// Durable storage engine benchmarks: what crash safety costs and what
// a restart costs.
//
//   0. CRC-32 throughput over a 1 MiB buffer: every WAL frame and
//      snapshot byte is checksummed on write and verified on restart.
//   1. WAL append throughput, fsync'd vs buffered: the per-statement
//      price of "an acknowledged write survives a crash".
//   2. Snapshot publish: BeginSnapshot capture time (the lock-hold),
//      CommitSnapshot publish time, and the image size.
//   3. Recovery wall time, WAL-replay vs snapshot-load, for the same
//      state — the number the README's Durability section quotes. The
//      recovered database is fingerprint-checked against the live one
//      (a benchmark that recovers the wrong state measures nothing).
//
// Emits BENCH_durable.json into the working directory.
// MOSAIC_BENCH_FULL=1 scales the sample up.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "storage/durable/crc32.h"
#include "storage/durable/engine.h"
#include "storage/durable/wal.h"

namespace mosaic {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string MakeTempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/mosaic_bench_durable_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  if (got == nullptr) {
    std::fprintf(stderr, "BENCH FATAL: mkdtemp failed\n");
    std::exit(1);
  }
  return got;
}

void RemoveTree(const std::string& dir) {
  // Bench temp dirs only ever hold engine-created flat files.
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not remove %s\n", dir.c_str());
  }
}

// --- 0. CRC-32 throughput --------------------------------------------------

/// Best of 5 reps of `passes` checksums over one 1 MiB buffer, in MB/s.
double BenchCrc32(size_t passes) {
  std::vector<uint8_t> buf(size_t{1} << 20);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 24);
  }
  double best_ms = 0;
  uint32_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (size_t i = 0; i < passes; ++i) {
      sink ^= durable::Crc32(buf.data(), buf.size(), sink);
    }
    const double ms = MsSince(start);
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  if (sink == 0x12345678u) std::printf("(crc sink %08x)\n", sink);
  return 1000.0 * static_cast<double>(passes) / best_ms;
}

// --- 1. raw WAL append throughput -----------------------------------------

struct WalNumbers {
  double synced_appends_per_s = 0;
  double buffered_appends_per_s = 0;
  double buffered_mb_per_s = 0;
};

WalNumbers BenchWalAppend(size_t records, size_t record_bytes) {
  WalNumbers out;
  durable::WalRecord record;
  record.type = durable::WalRecordType::kTableAppend;
  record.catalog_version = 1;
  record.metadata_version = 1;
  record.body.assign(record_bytes, 'x');
  for (const bool sync : {true, false}) {
    const std::string dir = MakeTempDir();
    auto writer = Unwrap(
        durable::WalWriter::Create(dir + "/" + durable::WalFileName(1), 1),
        "wal create");
    // fsync is ~ms-scale; keep the synced leg short.
    const size_t n = sync ? records / 50 + 1 : records;
    const auto start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      Check(writer->Append(record, sync), "wal append");
    }
    if (!sync) Check(writer->Sync(), "wal final sync");
    const double ms = MsSince(start);
    const double per_s = 1000.0 * static_cast<double>(n) / ms;
    if (sync) {
      out.synced_appends_per_s = per_s;
    } else {
      out.buffered_appends_per_s = per_s;
      out.buffered_mb_per_s = per_s * static_cast<double>(record_bytes) /
                              (1024.0 * 1024.0);
    }
    writer.reset();
    RemoveTree(dir);
  }
  return out;
}

// --- 2./3. snapshot + recovery over a real engine state -------------------

void IngestWorkload(core::Database* db, size_t rows, size_t batch) {
  Check(db->Execute("CREATE GLOBAL POPULATION People (email VARCHAR, "
                    "device VARCHAR)")
            .status(),
        "create population");
  Check(db->Execute("CREATE TABLE EmailReport (email VARCHAR, cnt INT)")
            .status(),
        "create table");
  Check(db->Execute("INSERT INTO EmailReport VALUES ('gmail', 550), "
                    "('yahoo', 300), ('aol', 150)")
            .status(),
        "insert report");
  Check(db->Execute(
              "CREATE METADATA People_M1 AS (SELECT email, cnt FROM "
              "EmailReport)")
            .status(),
        "create metadata");
  Check(db->Execute("CREATE SAMPLE Panel AS (SELECT * FROM People)")
            .status(),
        "create sample");
  const char* emails[] = {"gmail", "yahoo", "aol"};
  const char* devices[] = {"phone", "laptop"};
  size_t done = 0;
  while (done < rows) {
    std::string sql = "INSERT INTO Panel VALUES ";
    const size_t n = std::min(batch, rows - done);
    for (size_t i = 0; i < n; ++i) {
      const size_t r = done + i;
      if (i > 0) sql += ", ";
      sql += "('";
      sql += emails[r % 3];
      sql += "','";
      sql += devices[r % 2];
      sql += "')";
    }
    Check(db->Execute(sql).status(), "ingest batch");
    done += n;
  }
  Check(db->Execute("SELECT SEMI-OPEN COUNT(*) AS c FROM People").status(),
        "semi-open fit");
}

struct EngineNumbers {
  double ingest_ms = 0;
  double wal_replay_recovery_ms = 0;
  uint64_t wal_records = 0;
  double begin_snapshot_ms = 0;   ///< lock-hold portion
  double commit_snapshot_ms = 0;  ///< publish + GC, off-lock
  double snapshot_bytes = 0;
  double snapshot_recovery_ms = 0;
};

EngineNumbers BenchEngine(size_t rows, size_t batch, bool fsync_dml) {
  EngineNumbers out;
  const std::string dir = MakeTempDir();
  durable::StorageEngineOptions options;
  options.fsync_dml = fsync_dml;
  {
    core::Database db;
    auto engine = Unwrap(durable::StorageEngine::Open(dir, options), "open");
    Unwrap(engine->Recover(&db), "initial recover");
    const auto start = Clock::now();
    IngestWorkload(&db, rows, batch);
    out.ingest_ms = MsSince(start);
  }
  // Crash (no shutdown) -> WAL-replay recovery.
  std::string fingerprint;
  {
    core::Database db;
    auto engine = Unwrap(durable::StorageEngine::Open(dir, options), "open");
    const auto start = Clock::now();
    auto info = Unwrap(engine->Recover(&db), "wal recover");
    out.wal_replay_recovery_ms = MsSince(start);
    out.wal_records = info.wal_records_applied;

    // Snapshot the recovered state.
    const auto begin_start = Clock::now();
    auto pending = Unwrap(engine->BeginSnapshot(&db), "begin snapshot");
    out.begin_snapshot_ms = MsSince(begin_start);
    out.snapshot_bytes = static_cast<double>(pending.image.size());
    const auto commit_start = Clock::now();
    Check(engine->CommitSnapshot(std::move(pending)), "commit snapshot");
    out.commit_snapshot_ms = MsSince(commit_start);
  }
  // Crash again -> snapshot-load recovery.
  {
    core::Database db;
    auto engine = Unwrap(durable::StorageEngine::Open(dir, options), "open");
    const auto start = Clock::now();
    auto info = Unwrap(engine->Recover(&db), "snapshot recover");
    out.snapshot_recovery_ms = MsSince(start);
    if (!info.snapshot_loaded || info.samples != 1) {
      std::fprintf(stderr, "BENCH FATAL: snapshot recovery malformed\n");
      std::exit(1);
    }
    auto count =
        Unwrap(db.Execute("SELECT COUNT(*) AS c FROM Panel"),
               "recovered count");
    if (count.GetValue(0, 0).AsInt64() != static_cast<int64_t>(rows)) {
      std::fprintf(stderr, "BENCH FATAL: recovered %lld rows, expected %zu\n",
                   (long long)count.GetValue(0, 0).AsInt64(), rows);
      std::exit(1);
    }
  }
  RemoveTree(dir);
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace mosaic

int main() {
  using namespace mosaic::bench;
  const bool full = std::getenv("MOSAIC_BENCH_FULL") != nullptr;
  const size_t rows = full ? 200000 : 20000;
  const size_t batch = 500;
  const size_t wal_records = full ? 200000 : 50000;
  const size_t record_bytes = 256;

  std::printf("bench_durable: %zu sample rows, %zu-byte WAL records\n", rows,
              record_bytes);

  const double crc32_mb_per_s = BenchCrc32(full ? 256 : 64);
  std::printf("  crc32: %.0f MB/s over 1 MiB\n", crc32_mb_per_s);

  WalNumbers wal = BenchWalAppend(wal_records, record_bytes);
  std::printf(
      "  wal append: %.0f rec/s fsync'd, %.0f rec/s buffered (%.1f MB/s)\n",
      wal.synced_appends_per_s, wal.buffered_appends_per_s,
      wal.buffered_mb_per_s);

  EngineNumbers fsync_on = BenchEngine(rows, batch, /*fsync_dml=*/true);
  EngineNumbers fsync_off = BenchEngine(rows, batch, /*fsync_dml=*/false);
  std::printf(
      "  ingest %zu rows: %.0f ms fsync'd, %.0f ms buffered\n", rows,
      fsync_on.ingest_ms, fsync_off.ingest_ms);
  std::printf(
      "  recovery: %.1f ms WAL replay (%llu records), %.1f ms from "
      "snapshot (%.1f MB image)\n",
      fsync_on.wal_replay_recovery_ms,
      (unsigned long long)fsync_on.wal_records,
      fsync_on.snapshot_recovery_ms,
      fsync_on.snapshot_bytes / (1024.0 * 1024.0));
  std::printf(
      "  snapshot: %.1f ms capture (lock held), %.1f ms publish\n",
      fsync_on.begin_snapshot_ms, fsync_on.commit_snapshot_ms);

  std::FILE* json = std::fopen("BENCH_durable.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_durable.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  PrintHostJson(json, 0);
  std::fprintf(json,
               "  \"sample_rows\": %zu,\n"
               "  \"crc32_mb_per_s\": %.1f,\n"
               "  \"wal_record_bytes\": %zu,\n"
               "  \"wal_synced_appends_per_s\": %.1f,\n"
               "  \"wal_buffered_appends_per_s\": %.1f,\n"
               "  \"wal_buffered_mb_per_s\": %.2f,\n"
               "  \"ingest_ms_fsync\": %.1f,\n"
               "  \"ingest_ms_buffered\": %.1f,\n"
               "  \"recovery_wal_replay_ms\": %.2f,\n"
               "  \"recovery_wal_records\": %llu,\n"
               "  \"recovery_snapshot_ms\": %.2f,\n"
               "  \"snapshot_bytes\": %.0f,\n"
               "  \"snapshot_capture_ms\": %.2f,\n"
               "  \"snapshot_publish_ms\": %.2f\n"
               "}\n",
               rows, crc32_mb_per_s, record_bytes, wal.synced_appends_per_s,
               wal.buffered_appends_per_s, wal.buffered_mb_per_s,
               fsync_on.ingest_ms, fsync_off.ingest_ms,
               fsync_on.wal_replay_recovery_ms,
               (unsigned long long)fsync_on.wal_records,
               fsync_on.snapshot_recovery_ms, fsync_on.snapshot_bytes,
               fsync_on.begin_snapshot_ms, fsync_on.commit_snapshot_ms);
  std::fclose(json);
  std::printf("wrote BENCH_durable.json\n");
  return 0;
}
