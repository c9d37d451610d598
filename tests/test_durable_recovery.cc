// End-to-end crash-recovery fault injection for the durable storage
// engine: WAL-only recovery, snapshot + WAL recovery, torn tails at
// every byte offset, mid-log and snapshot corruption, crash-mid-
// publish leftovers, ingest atomicity, and the zero-refit guarantee.
// Recovered state is compared bit-for-bit via StateFingerprint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/metrics.h"
#include "core/database.h"
#include "durable_test_util.h"
#include "storage/durable/engine.h"
#include "storage/durable/io.h"
#include "storage/durable/snapshot.h"
#include "storage/durable/wal.h"

namespace mosaic {
namespace durable {
namespace {

using testutil::MakeTempDir;
using testutil::StateFingerprint;

void Exec(core::Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

/// Open the engine on `dir`, recover into a fresh db, and attach.
struct Recovered {
  std::unique_ptr<core::Database> db;
  std::unique_ptr<StorageEngine> engine;
  RecoveryInfo info;
};

Result<Recovered> OpenAndRecover(const std::string& dir) {
  Recovered out;
  out.db = std::make_unique<core::Database>();
  MOSAIC_ASSIGN_OR_RETURN(out.engine, StorageEngine::Open(dir));
  MOSAIC_ASSIGN_OR_RETURN(out.info, out.engine->Recover(out.db.get()));
  return out;
}

/// The standard workload: population + marginals + sample + ingest +
/// a SEMI-OPEN query that publishes a fitted IPF epoch.
void RunWorkload(core::Database* db) {
  Exec(db, "CREATE GLOBAL POPULATION People (email VARCHAR, device VARCHAR)");
  Exec(db, "CREATE TABLE EmailReport (email VARCHAR, cnt INT)");
  Exec(db,
       "INSERT INTO EmailReport VALUES ('gmail', 550), ('yahoo', 300), "
       "('aol', 150)");
  Exec(db, "CREATE TABLE DeviceReport (device VARCHAR, cnt INT)");
  Exec(db, "INSERT INTO DeviceReport VALUES ('phone', 600), ('laptop', 400)");
  Exec(db, "CREATE METADATA People_M1 AS (SELECT email, cnt FROM EmailReport)");
  Exec(db,
       "CREATE METADATA People_M2 AS (SELECT device, cnt FROM DeviceReport)");
  Exec(db, "CREATE SAMPLE Panel AS (SELECT * FROM People)");
  Exec(db,
       "INSERT INTO Panel VALUES ('gmail','phone'), ('gmail','phone'), "
       "('gmail','laptop'), ('yahoo','phone'), ('yahoo','laptop'), "
       "('aol','laptop')");
  Exec(db, "SELECT SEMI-OPEN COUNT(*) AS c FROM People");
}

std::vector<std::string> WalFilesIn(const std::string& dir) {
  auto names = ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::vector<std::string> wals;
  for (const auto& n : *names) {
    if (ParseWalFileName(n).ok()) wals.push_back(n);
  }
  std::sort(wals.begin(), wals.end());
  return wals;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------

TEST(DurableRecovery, WalOnlyRecoveryIsBitIdentical) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  std::string fingerprint;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    RunWorkload(live->db.get());
    fingerprint = StateFingerprint(live->db.get());
    // Crash: drop both without any shutdown protocol.
  }
  const std::vector<std::string> wals = WalFilesIn(dir);
  ASSERT_EQ(wals.size(), 1u);
  const size_t wal_size = FileBytes(dir + "/" + wals[0]).size();
  auto again = OpenAndRecover(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->info.snapshot_loaded);
  EXPECT_GT(again->info.wal_records_applied, 0u);
  EXPECT_FALSE(again->info.wal_tail_truncated);
  EXPECT_EQ(again->info.snapshot_bytes, 0u);
  EXPECT_EQ(again->info.wal_bytes, wal_size);
  EXPECT_EQ(again->info.tables, 2u);
  EXPECT_EQ(again->info.populations, 1u);
  EXPECT_EQ(again->info.samples, 1u);
  EXPECT_EQ(StateFingerprint(again->db.get()), fingerprint);
}

TEST(DurableRecovery, SnapshotPlusWalRecoveryIsBitIdentical) {
  const std::string dir = MakeTempDir();
  std::string fingerprint;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    auto pending = live->engine->BeginSnapshot(live->db.get());
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    ASSERT_TRUE(live->engine->CommitSnapshot(std::move(*pending)).ok());
    // Post-snapshot DML lands in the rotated WAL.
    Exec(live->db.get(),
         "INSERT INTO Panel VALUES ('aol','phone'), ('gmail','phone')");
    Exec(live->db.get(), "SELECT SEMI-OPEN COUNT(*) AS c FROM People");
    fingerprint = StateFingerprint(live->db.get());
  }
  // GC must have removed the pre-snapshot WAL generation.
  const std::vector<std::string> wals = WalFilesIn(dir);
  ASSERT_EQ(wals.size(), 1u);
  const size_t wal_size = FileBytes(dir + "/" + wals[0]).size();
  // The recovery_complete event reports the bytes verified.
  const std::string log_dir = MakeTempDir();
  const std::string log_path = log_dir + "/events.jsonl";
  ASSERT_TRUE(elog::EventLog::Global().Open(log_path).ok());
  auto again = OpenAndRecover(dir);
  elog::EventLog::Global().Close();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->info.snapshot_loaded);
  EXPECT_GT(again->info.wal_records_applied, 0u);
  const size_t snapshot_size =
      FileBytes(dir + "/" + SnapshotFileName(again->info.snapshot_seq))
          .size();
  EXPECT_GT(snapshot_size, 0u);
  EXPECT_EQ(again->info.snapshot_bytes, snapshot_size);
  EXPECT_EQ(again->info.wal_bytes, wal_size);
  const std::string events = FileBytes(log_path);
  EXPECT_NE(events.find("\"event\":\"recovery_complete\""),
            std::string::npos)
      << events;
  EXPECT_NE(events.find("\"snapshot_bytes\":\"" +
                        std::to_string(snapshot_size) + "\""),
            std::string::npos)
      << events;
  EXPECT_NE(
      events.find("\"wal_bytes\":\"" + std::to_string(wal_size) + "\""),
      std::string::npos)
      << events;
  EXPECT_EQ(StateFingerprint(again->db.get()), fingerprint);

  // And a snapshot with NO trailing WAL records recovers identically.
  {
    auto pending = again->engine->BeginSnapshot(again->db.get());
    ASSERT_TRUE(pending.ok());
    ASSERT_TRUE(again->engine->CommitSnapshot(std::move(*pending)).ok());
  }
  auto third = OpenAndRecover(dir);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third->info.snapshot_loaded);
  EXPECT_EQ(third->info.wal_records_applied, 0u);
  EXPECT_EQ(StateFingerprint(third->db.get()), fingerprint);
}

TEST(DurableRecovery, TornTailAtEveryByteOffsetRecoversPriorState) {
  const std::string dir = MakeTempDir();
  std::string before_last, after_last;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    before_last = StateFingerprint(live->db.get());
    // One final single-record statement (a table append).
    Exec(live->db.get(), "INSERT INTO EmailReport VALUES ('icloud', 42)");
    after_last = StateFingerprint(live->db.get());
  }
  auto wals = WalFilesIn(dir);
  ASSERT_EQ(wals.size(), 1u);
  const std::string wal_path = dir + "/" + wals[0];
  const std::string full = FileBytes(wal_path);

  // Find the byte offset where the final record starts: the largest
  // prefix that still recovers to `before_last` without truncation.
  auto read = ReadWal(wal_path);
  ASSERT_TRUE(read.ok());
  ASSERT_FALSE(read->tail_truncated);
  const size_t nrec = read->records.size();
  uint64_t last_start = 0;
  for (uint64_t cut = full.size() - 1;; --cut) {
    WriteBytes(wal_path, full.substr(0, cut));
    auto r = ReadWal(wal_path);
    ASSERT_TRUE(r.ok());
    if (r->records.size() == nrec - 1) {
      last_start = r->valid_bytes;
      break;
    }
    ASSERT_GT(cut, 0u);
  }

  // Every possible torn tail inside the final record must recover
  // bit-identically to the state before that statement.
  for (uint64_t cut = last_start + 1; cut < full.size(); ++cut) {
    WriteBytes(wal_path, full.substr(0, cut));
    auto rec = OpenAndRecover(dir);
    ASSERT_TRUE(rec.ok()) << "cut " << cut << ": "
                          << rec.status().ToString();
    EXPECT_TRUE(rec->info.wal_tail_truncated) << "cut " << cut;
    ASSERT_EQ(StateFingerprint(rec->db.get()), before_last)
        << "cut " << cut;
  }

  // The untouched file still recovers the full state (recovery itself
  // repaired/truncated nothing it shouldn't have).
  WriteBytes(wal_path, full);
  auto rec = OpenAndRecover(dir);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->info.wal_tail_truncated);
  EXPECT_EQ(StateFingerprint(rec->db.get()), after_last);
}

TEST(DurableRecovery, MidLogBitFlipFailsLoudly) {
  const std::string dir = MakeTempDir();
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
  }
  auto wals = WalFilesIn(dir);
  ASSERT_EQ(wals.size(), 1u);
  const std::string wal_path = dir + "/" + wals[0];
  const std::string full = FileBytes(wal_path);
  // Flip a bit early in the log (inside the first record's frame,
  // past the 16-byte file header) — valid records follow, so this is
  // silent corruption, not a torn tail: recovery must refuse.
  std::string bytes = full;
  bytes[40] = static_cast<char>(bytes[40] ^ 0x10);
  WriteBytes(wal_path, bytes);
  auto rec = OpenAndRecover(dir);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kIOError);
}

TEST(DurableRecovery, LeftoverTmpSnapshotIsIgnoredAndCleaned) {
  const std::string dir = MakeTempDir();
  std::string fingerprint;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    fingerprint = StateFingerprint(live->db.get());
  }
  // A crash mid-publish leaves a partial .tmp image.
  const std::string tmp = dir + "/" + SnapshotFileName(99) + ".tmp";
  WriteBytes(tmp, "MOSSNP01 partial garbage");
  auto rec = OpenAndRecover(dir);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->info.snapshot_loaded);
  EXPECT_EQ(StateFingerprint(rec->db.get()), fingerprint);
  EXPECT_FALSE(FileExists(tmp));
}

TEST(DurableRecovery, CorruptPublishedSnapshotFailsLoudly) {
  const std::string dir = MakeTempDir();
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    auto pending = live->engine->BeginSnapshot(live->db.get());
    ASSERT_TRUE(pending.ok());
    ASSERT_TRUE(live->engine->CommitSnapshot(std::move(*pending)).ok());
  }
  auto names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::string snap_path;
  for (const auto& n : *names) {
    if (ParseSnapshotFileName(n).ok()) snap_path = dir + "/" + n;
  }
  ASSERT_FALSE(snap_path.empty());
  std::string bytes = FileBytes(snap_path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteBytes(snap_path, bytes);
  // The WALs predating the snapshot are GC'd; a damaged snapshot has
  // no fallback and must be a hard error, never a silent empty state.
  auto rec = OpenAndRecover(dir);
  ASSERT_FALSE(rec.ok());
}

TEST(DurableRecovery, IngestIsAtomicRowsAndWeightsTogether) {
  const std::string dir = MakeTempDir();
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
  }
  auto rec = OpenAndRecover(dir);
  ASSERT_TRUE(rec.ok());
  core::SampleInfo* sample = *rec->db->catalog()->GetSample("Panel");
  core::WeightEpochPtr epoch = sample->weights.Pin();
  // Whatever prefix of the log survives, rows and weights always
  // arrive in the same record: the counts can never diverge.
  EXPECT_EQ(epoch->weights.size(), sample->data.num_rows());
  EXPECT_GT(sample->data.num_rows(), 0u);
}

TEST(DurableRecovery, RecoveredEpochSkipsRefitAndAnswersIdentically) {
  const std::string dir = MakeTempDir();
  std::string answer;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    auto r = live->db->Execute(
        "SELECT SEMI-OPEN COUNT(*) AS c FROM People WHERE device = 'phone'");
    ASSERT_TRUE(r.ok());
    answer = r->GetValue(0, 0).ToString();
  }
  // The weight counts are per process: start the "restarted process"
  // from zero, as a real restart would.
  metrics::Registry::Global().ResetForTesting();
  auto rec = OpenAndRecover(dir);
  ASSERT_TRUE(rec.ok());
  core::Database* db = rec->db.get();
  const auto before = db->WeightCountersSnapshot();
  EXPECT_EQ(before.refits_total, 0u);

  auto r = db->Execute(
      "SELECT SEMI-OPEN COUNT(*) AS c FROM People WHERE device = 'phone'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetValue(0, 0).ToString(), answer);

  // The replayed epoch kept its fit signature and the metadata
  // version was restored exactly, so the refit is a signature-match
  // no-op: a restart never retrains.
  const auto after = db->WeightCountersSnapshot();
  EXPECT_EQ(after.refits_total, 0u);
  EXPECT_GT(after.refits_skipped, before.refits_skipped);
}

TEST(DurableRecovery, DropAndUpdateReplayFaithfully) {
  const std::string dir = MakeTempDir();
  std::string fingerprint;
  {
    auto live = OpenAndRecover(dir);
    ASSERT_TRUE(live.ok());
    RunWorkload(live->db.get());
    core::Database* db = live->db.get();
    Exec(db, "CREATE TABLE Doomed (x INT)");
    Exec(db, "INSERT INTO Doomed VALUES (1)");
    Exec(db, "DROP TABLE Doomed");
    Exec(db, "UPDATE EmailReport SET cnt = 551 WHERE email = 'gmail'");
    Exec(db, "UPDATE Panel SET weight = weight * 2 WHERE device = 'phone'");
    fingerprint = StateFingerprint(db);
  }
  auto rec = OpenAndRecover(dir);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->db->catalog()->HasTable("Doomed"));
  EXPECT_EQ(StateFingerprint(rec->db.get()), fingerprint);
}

}  // namespace
}  // namespace durable
}  // namespace mosaic
