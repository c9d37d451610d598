// perfbench: the end-to-end benchmark for Mosaic population queries.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--dir <scratch dir>]
//
// One process runs one workload against an in-process net::Server +
// service::QueryService over loopback, on the synthetic flights world
// (world.h). With --trace 0 it prints the end-to-end metrics, timings
// scaled to a reference host speed as speed.h describes; with
// --trace 1 it replays the workload's statement stream at each layer's
// public entry point, one pass per entry point, and prints per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary, pins the process to a fixed CPU
// set and runs it.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/query_service.h"
#include "service/sql_canonical.h"
#include "speed.h"
#include "sql/parser.h"
#include "stats.h"
#include "workloads.h"
#include "world.h"

namespace mosaic {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).value();
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what, status);
}

/// Byte-exact encoding of a result table (the wire codec), for
/// bit-identity checks.
std::string Encode(const Table& t) {
  net::WireWriter w;
  net::EncodeTable(t, &w);
  return w.Take();
}

std::vector<int> PinnedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }

  /// One statement the benchmark sent, or one answer it verified.
  void Count(bool ok, const std::string& what) {
    tally_.Add(ok);
    if (!ok && failures_shown_++ < 10) {
      std::printf("  FAILED: %s\n", what.c_str());
    }
  }
  void CountAll(const Tally& t) { tally_.Merge(t); }

  /// A check that is not a statement (recovered row counts).
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      checks_ok_ = false;
      std::printf("  CHECK FAILED: %s\n", what.c_str());
    }
  }

  void PrintJson() const {
    std::printf("  err_pct %.6f %% (%llu failed of %llu attempted)\n",
                tally_.err_pct(), (unsigned long long)tally_.failed,
                (unsigned long long)tally_.attempted);
    std::string json = StrFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        checks_ok_ && tally_.failed == 0 ? "true" : "false",
        (unsigned long long)tally_.attempted,
        (unsigned long long)tally_.failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  Tally tally_;
  bool checks_ok_ = true;
  int failures_shown_ = 0;
};

// ---------------------------------------------------------------------------
// A running service + loopback server
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;  // declared last: stopped first

  core::Database* db() { return service->database(); }
};

std::unique_ptr<Instance> StartInstance(const std::string& dir, size_t cpus) {
  auto inst = std::make_unique<Instance>();
  inst->service = std::make_unique<service::QueryService>(
      ServiceOptionsFor(dir, cpus));
  MustOk(inst->service->durability_status(), "open data dir");
  inst->server = std::make_unique<net::Server>(inst->service.get(),
                                               net::ServerOptions());
  MustOk(inst->server->Start(), "server start");
  return inst;
}

net::Client Connect(const Instance& inst) {
  net::Client client;
  net::ClientOptions opts;
  opts.port = inst.server->port();
  opts.client_name = "perfbench";
  MustOk(client.Connect(opts), "connect");
  return client;
}

size_t SampleRows(core::Database* db) {
  auto sample = db->catalog()->GetSample("GateLogs");
  return sample.ok() ? (*sample)->data.num_rows() : 0;
}

/// Held-back batch `batch` as an INSERT. Batches go in in a fixed order
/// on every seed: incremental refits depend on the order rows arrive
/// in, and answer_err_pct must not move with the seed.
std::string BatchSql(const World& world, size_t batch) {
  return InsertSql(world.held_back, batch * kBatchRows,
                   (batch + 1) * kBatchRows);
}

// ---------------------------------------------------------------------------
// The timed phase: closed-loop reader, optional open-loop writer
// ---------------------------------------------------------------------------

/// Seconds between host-speed calibrations of the reader.
constexpr double kCalibrateEvery = 0.05;
/// Read records kept per second of phase: far above any workload's
/// rate on one CPU, so the reader never runs out.
constexpr size_t kMaxReadsPerSecond = 100000;

/// One read, compactly. The record array is allocated and written
/// before the phase, so its size does not follow how many reads a run
/// completes, and neither does peak_rss_mb.
struct ReadRecord {
  uint32_t start_100ns;  ///< since the phase start
  float raw_us;
};

struct WriteRecord {
  Clock::time_point due, sent, done;
};

struct PhaseResult {
  Clock::time_point start;
  std::vector<ReadRecord> reads;  ///< the first num_reads are filled in
  size_t num_reads = 0;
  std::vector<WriteRecord> writes;
  SpeedTrack track;  ///< the reader's calibrations
  double reader_s = 0;
  double max_write_lateness_ms = 0;
  uint64_t acked_rows = 0;
  Tally tally;
  /// Encoded answers of the first verify_statements reads.
  std::vector<std::string> answers;

  Clock::time_point ReadStart(size_t i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::nanoseconds(
                           uint64_t{reads[i].start_100ns} * 100));
  }
};

/// A closed-loop reader over one connection and, on ingest_mixed, an
/// open-loop writer over another. The reader calibrates the host speed
/// every kCalibrateEvery seconds, between statements and never while a
/// write is in flight: the writer's work would slow the calibration as
/// it slows the reads, and the scaling would hide what writes cost
/// reads.
PhaseResult RunPhase(Instance* inst, const Workload& w, const World& world,
                     uint64_t seed, double seconds, SpeedMeter* meter) {
  PhaseResult out;
  out.reads.resize(static_cast<size_t>(seconds * kMaxReadsPerSecond) + 1);
  const size_t batches = ScheduledBatches(w, seconds);
  std::atomic<bool> writer_done{batches == 0};
  std::atomic<bool> writing{false};
  Tally write_tally;
  out.track.Calibrate(meter);
  const auto start = out.start = Clock::now();

  std::thread writer;
  if (batches > 0) {
    writer = std::thread([&] {
      net::Client client = Connect(*inst);
      for (size_t i = 0; i < batches; ++i) {
        if (i == batches / 2) {
          // One snapshot at the midpoint: later batches form the WAL
          // tail the closing restarts replay.
          MustOk(inst->service->TriggerSnapshot(), "midpoint snapshot");
        }
        const auto due = After(start, static_cast<double>(i) / w.write_rate);
        std::this_thread::sleep_until(due);
        writing.store(true);
        const auto sent = Clock::now();
        out.max_write_lateness_ms =
            std::max(out.max_write_lateness_ms, MicrosBetween(due, sent) / 1e3);
        auto r = client.Query(BatchSql(world, i));
        out.writes.push_back({due, sent, Clock::now()});
        writing.store(false);
        write_tally.Add(r.ok());
        if (r.ok()) out.acked_rows += kBatchRows;
      }
      writer_done.store(true);
    });
  }

  net::Client client = Connect(*inst);
  std::unique_ptr<Stream> stream = MakeStream(w, world, seed);
  const auto deadline = After(start, seconds);
  auto next_calibration = start;
  while ((Clock::now() < deadline || !writer_done.load()) &&
         out.num_reads < out.reads.size()) {
    const std::string sql = stream->Next();
    if (Clock::now() >= next_calibration && !writing.load()) {
      out.track.Calibrate(meter);
      next_calibration = After(Clock::now(), kCalibrateEvery);
    }
    const auto t0 = Clock::now();
    auto r = client.Query(sql);
    const auto t1 = Clock::now();
    out.reads[out.num_reads++] = {
        static_cast<uint32_t>((t0 - start) / std::chrono::nanoseconds(100)),
        static_cast<float>(MicrosBetween(t0, t1))};
    out.tally.Add(r.ok());
    if (out.answers.size() < w.verify_statements) {
      out.answers.push_back(r.ok() ? Encode(*r) : std::string());
    }
  }
  out.reader_s = SecondsSince(start);
  if (writer.joinable()) writer.join();
  out.track.Calibrate(meter);
  out.tally.Merge(write_tally);
  return out;
}

/// A phase's timings; the normalised ones at the reference speed.
struct PhaseTimings {
  std::vector<double> read_us;
  std::vector<double> raw_read_us;
  std::vector<double> write_us;  ///< from each batch's scheduled send
};

/// Reads are scaled group by group (the groups stats.h reports over),
/// each by the mean speed of the calibrations during the group: one
/// calibration alone is noisy, and the host's stretches outlast a group.
PhaseTimings Normalize(const PhaseResult& p) {
  PhaseTimings out;
  const size_t n = p.num_reads;
  const size_t groups = GroupCount(n);
  for (size_t g = 0; g < groups; ++g) {
    const size_t first = g * n / groups, last = (g + 1) * n / groups;
    if (first == last) continue;
    const double speed = p.track.MeanSpeed(p.ReadStart(first),
                                           p.ReadStart(last - 1));
    for (size_t i = first; i < last; ++i) {
      out.raw_read_us.push_back(p.reads[i].raw_us);
      out.read_us.push_back(p.reads[i].raw_us * speed);
    }
  }
  for (const WriteRecord& wr : p.writes) {
    out.write_us.push_back(p.track.NormalizedMicros(wr.due, wr.done));
  }
  return out;
}

/// Share of reads whose interval overlaps some write's interval (from
/// its send to its reply).
double BlockedPct(const PhaseResult& p) {
  if (p.num_reads == 0 || p.writes.empty()) return 0.0;
  size_t blocked = 0, j = 0;
  for (size_t i = 0; i < p.num_reads; ++i) {  // both lists are in time order
    const auto r0 = p.ReadStart(i);
    const auto r1 = r0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 p.reads[i].raw_us));
    while (j < p.writes.size() && p.writes[j].done < r0) ++j;
    if (j < p.writes.size() && p.writes[j].sent < r1) ++blocked;
  }
  return 100.0 * static_cast<double>(blocked) /
         static_cast<double>(p.num_reads);
}

/// The first `n` statements of the workload's stream.
std::vector<std::string> StreamPrefix(const Workload& w, const World& world,
                                      uint64_t seed, size_t n) {
  std::unique_ptr<Stream> stream = MakeStream(w, world, seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream->Next());
  return out;
}

/// Replays `sqls` through Database::Execute (no result cache) and
/// compares each answer byte for byte with `answers`.
void VerifyAgainstEngine(core::Database* db,
                         const std::vector<std::string>& sqls,
                         const std::vector<std::string>& answers,
                         Report* report) {
  for (size_t i = 0; i < answers.size(); ++i) {
    auto direct = db->Execute(sqls[i]);
    report->Count(direct.ok() && !answers[i].empty() &&
                      Encode(*direct) == answers[i],
                  "engine replay differs: " + sqls[i]);
  }
}

std::vector<std::string> ProbeSql(const std::vector<Probe>& probes,
                                  const std::string& visibility) {
  std::vector<std::string> out;
  for (const Probe& p : probes) {
    out.push_back(StrFormat(p.sql.c_str(), visibility.c_str()));
  }
  return out;
}

/// Table 2 probes at `visibility` over the wire; returns the mean
/// percent difference from the truth (a failed probe counts 100
/// percent) and, optionally, the encoded answers.
double ScoreProbes(net::Client* client, const std::vector<Probe>& probes,
                   const std::string& visibility, Report* report,
                   std::vector<std::string>* answers) {
  double acc = 0;
  const std::vector<std::string> sqls = ProbeSql(probes, visibility);
  for (size_t i = 0; i < probes.size(); ++i) {
    auto r = client->Query(sqls[i]);
    report->Count(r.ok(), "probe: " + sqls[i]);
    acc += r.ok() ? AvgPercentDiff(AnswerMap(*r, probes[i].group_by),
                                   probes[i].truth)
                  : 100.0;
    if (answers != nullptr) answers->push_back(r.ok() ? Encode(*r) : "");
  }
  return acc / static_cast<double>(probes.size());
}

/// Sends the first `count` held-back batches as INSERTs, one after the
/// other; gives each batch's latency at the reference compute speed
/// (`us`) and as the clock read it (`raw_us`).
void WriteBurst(Instance* inst, const World& world, size_t count,
                SpeedMeter* meter, Report* report, uint64_t* acked_rows,
                std::vector<double>* us, std::vector<double>* raw_us) {
  net::Client client = Connect(*inst);
  for (size_t b = 0; b < count; ++b) {
    const double before = meter->ComputeSpeed();
    const auto t0 = Clock::now();
    auto r = client.Query(BatchSql(world, b));
    raw_us->push_back(MicrosBetween(t0, Clock::now()));
    us->push_back(raw_us->back() * (before + meter->ComputeSpeed()) / 2);
    report->Count(r.ok(), "insert batch");
    if (r.ok()) *acked_rows += kBatchRows;
  }
  MustOk(client.Close(), "close");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/run";
};

/// Takes `setups` services from an empty data dir to ready, one after
/// the other, and keeps the last one running. `setup_s` gets each
/// setup's time at the reference compute speed, `raw_s` as the clock
/// read it.
std::unique_ptr<Instance> SetUp(const World& world, const Workload& w,
                                const std::string& dir, size_t cpus,
                                int setups, SpeedMeter* meter,
                                std::vector<double>* setup_s,
                                std::vector<double>* raw_s,
                                SetupTiming* timing) {
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < setups; ++k) {
    inst.reset();
    std::filesystem::remove_all(dir);
    const double before = meter->ComputeSpeed();
    const auto t0 = Clock::now();
    inst = StartInstance(dir, cpus);
    MustOk(Setup(world, w.train_in_setup, inst->service.get(), timing),
           "setup");
    raw_s->push_back(SecondsSince(t0));
    setup_s->push_back(raw_s->back() * (before + meter->ComputeSpeed()) / 2);
  }
  return inst;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

constexpr int kSetups = 3;
constexpr int kRestarts = 21;

std::string Join(const std::vector<double>& values, const char* format) {
  std::string out;
  for (double v : values) out += StrFormat(format, v);
  return out;
}

void RunEndToEnd(const Args& args, const Workload& w, const World& world,
                 const std::string& dir, size_t cpus, Report* report) {
  const std::vector<Probe> probes = Table2Probes(world);
  SpeedMeter meter;
  std::vector<double> setup_s, raw_setup_s;
  SetupTiming timing;
  std::unique_ptr<Instance> inst = SetUp(world, w, dir, cpus, kSetups, &meter,
                                         &setup_s, &raw_setup_s, &timing);
  const size_t initial_rows = SampleRows(inst->db());
  if (!w.writes_during_reads) {
    // Restarts then load this snapshot plus the write burst's WAL tail.
    MustOk(inst->service->TriggerSnapshot(), "snapshot");
  }

  PhaseResult phase =
      RunPhase(inst.get(), w, world, args.seed, args.seconds, &meter);
  report->CountAll(phase.tally);

  // Correctness, outside the timed phase: a fixed prefix of the stream
  // through Database::Execute must match the served answers bit for bit.
  const std::vector<std::string> verify_sqls =
      StreamPrefix(w, world, args.seed, phase.answers.size());
  net::Client client = Connect(*inst);
  if (w.writes_during_reads) {
    // The phase's answers saw a moving sample; compare on the final one.
    phase.answers.clear();
    for (const std::string& sql : verify_sqls) {
      auto r = client.Query(sql);
      report->Count(r.ok(), "verify read: " + sql);
      phase.answers.push_back(r.ok() ? Encode(*r) : std::string());
    }
  }
  VerifyAgainstEngine(inst->db(), verify_sqls, phase.answers, report);
  const double answer_err =
      ScoreProbes(&client, probes, w.probe_visibility, report, nullptr);

  uint64_t acked = phase.acked_rows;
  std::vector<double> burst_us, raw_burst_us;
  if (!w.writes_during_reads) {
    WriteBurst(inst.get(), world, w.burst_batches, &meter, report, &acked,
               &burst_us, &raw_burst_us);
  }
  std::vector<std::string> semi_answers;
  ScoreProbes(&client, probes, "SEMI-OPEN", report, &semi_answers);
  MustOk(client.Close(), "close");
  inst.reset();

  // Restarts: every acknowledged row and the same SEMI-OPEN answers.
  std::vector<double> raw_restart_ms;
  const std::vector<std::string> semi_sqls = ProbeSql(probes, "SEMI-OPEN");
  for (int k = 0; k < kRestarts; ++k) {
    const auto t0 = Clock::now();
    service::QueryService svc(ServiceOptionsFor(dir, cpus));
    raw_restart_ms.push_back(SecondsSince(t0) * 1e3);
    MustOk(svc.durability_status(), "recover");
    if (k + 1 < kRestarts) continue;
    const size_t rows = SampleRows(svc.database());
    report->Require(rows == initial_rows + acked,
                    StrFormat("recovered %zu sample rows, expected %zu", rows,
                              static_cast<size_t>(initial_rows + acked)));
    service::Session session = svc.OpenSession();
    for (size_t i = 0; i < semi_sqls.size(); ++i) {
      auto r = session.Execute(semi_sqls[i]);
      report->Count(r.ok() && Encode(*r) == semi_answers[i],
                    "answer changed across restart: " + semi_sqls[i]);
    }
  }
  // Before the bookkeeping below allocates.
  const double peak_rss_mb = PeakRssMb();

  const PhaseTimings t = Normalize(phase);
  std::vector<double> speeds = phase.track.Speeds();
  std::sort(speeds.begin(), speeds.end());
  const std::vector<double>& write_us =
      w.writes_during_reads ? t.write_us : burst_us;
  const size_t groups = GroupCount(t.read_us.size());
  TailChoice tail, raw_tail;
  const double tail_us = GroupedTail(t.read_us, groups, &tail);
  std::printf(
      "workload %s: %zu reads in %.3f s, %zu groups; read_tail_us is the "
      "median over groups of each group's p%g (%zu reads beyond it); %zu "
      "write batches, generator at most %.1f ms late\n",
      w.name.c_str(), t.read_us.size(), phase.reader_s, groups, tail.q * 100,
      tail.beyond, write_us.size(), phase.max_write_lateness_ms);
  std::printf("  host speed over %zu calibrations: min %.3f median %.3f max "
              "%.3f\n",
              speeds.size(), speeds.front(), QuantileSorted(speeds, 0.5),
              speeds.back());
  std::printf("  phase reads as the clock read them: qps %.1f p50 %.1f us "
              "tail %.1f us\n",
              static_cast<double>(t.read_us.size()) / phase.reader_s,
              Median(t.raw_read_us),
              GroupedTail(t.raw_read_us, groups, &raw_tail));
  std::printf("  as the clock read them: setup_s%s; burst write_us%s; "
              "restart_ms%s\n",
              Join(raw_setup_s, " %.4f").c_str(),
              Join(raw_burst_us, " %.0f").c_str(),
              Join(raw_restart_ms, " %.3f").c_str());
  std::printf("  scaled: setup_s%s; write_us%s\n",
              Join(setup_s, " %.4f").c_str(), Join(write_us, " %.0f").c_str());
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("read_qps", GroupedRate(t.read_us, groups), "1/s");
  report->Add("read_p50_us", Median(t.read_us), "us");
  report->Add("read_tail_us", tail_us, "us");
  report->Add("write_p50_us", Median(write_us), "us");
  report->Add("recovery_ms", Median(raw_restart_ms), "ms");
  report->Add("answer_err_pct", answer_err, "%");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Statements replayed per entry-point pass.
size_t TracedStatements(const Workload& w) {
  switch (w.kind) {
    case Kind::kDashboardHot:
      return 5000;
    case Kind::kOpenWorld:
      return 48;
    default:
      return 2000;
  }
}

/// Makes every result-cache entry stale (a DDL bumps the catalog
/// version the cache keys on) without touching the trained-model
/// cache, so each pass starts from the cache state the timed run saw.
void ResetResultCache(Instance* inst, int pass) {
  MustOk(inst->service
             ->Execute(StrFormat("CREATE TABLE perfbench_pass_%d (x INT)", pass))
             .status(),
         "cache reset");
}

double HitPct(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

struct LoopbackPass {
  std::vector<double> us;
  double frames_per_stmt = 0;
  double reply_bytes_per_stmt = 0;
  double cache_hit_pct = 0;
  double model_cache_hit_pct = 0;
  double rows_scanned_per_stmt = 0;
};

/// The stream over the wire; `sampled` asks the server to collect its
/// own spans for every statement (the program's tracing).
LoopbackPass RunLoopbackPass(Instance* inst,
                             const std::vector<std::string>& sqls,
                             bool sampled, Report* report) {
  LoopbackPass out;
  net::Client client = Connect(*inst);
  const service::ServiceStats s0 = inst->service->Stats();
  const CacheStats m0 = inst->db()->ModelCacheStats();
  const net::NetServerStats n0 = inst->server->stats();
  // system.queries keeps only the latest statements, so collect this
  // pass's records every few hundred statements.
  uint64_t last_id = qlog::QueryLog::Global().total_appended();
  uint64_t scanned = 0, records = 0;
  auto collect = [&] {
    for (const auto& rec : qlog::QueryLog::Global().Snapshot()) {
      if (rec.query_id > last_id && rec.session_id == client.session_id()) {
        scanned += rec.rows_scanned;
        ++records;
      }
      last_id = std::max(last_id, rec.query_id);
    }
  };
  uint64_t reply_bytes = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (i % 256 == 255) collect();
    net::TraceContext ctx;
    if (sampled) {
      ctx.trace_id = i + 1;
      ctx.sampled = true;
    }
    const auto t0 = Clock::now();
    auto r = client.Query(sqls[i], ctx);
    out.us.push_back(MicrosBetween(t0, Clock::now()));
    report->Count(r.ok(), "traced read: " + sqls[i]);
    if (r.ok()) {
      reply_bytes += net::EncodeResultReply({Status::OK(), *r}).size();
    }
  }
  const service::ServiceStats s1 = inst->service->Stats();
  const CacheStats m1 = inst->db()->ModelCacheStats();
  const net::NetServerStats n1 = inst->server->stats();
  const double n = static_cast<double>(sqls.size());
  out.frames_per_stmt =
      static_cast<double>((n1.frames_received - n0.frames_received) +
                          (n1.frames_sent - n0.frames_sent)) /
      n;
  out.reply_bytes_per_stmt = static_cast<double>(reply_bytes) / n;
  out.cache_hit_pct = HitPct(s1.result_cache.hits - s0.result_cache.hits,
                             s1.result_cache.misses - s0.result_cache.misses);
  out.model_cache_hit_pct = HitPct(m1.hits - m0.hits, m1.misses - m0.misses);
  collect();
  out.rows_scanned_per_stmt =
      records == 0 ? 0.0
                   : static_cast<double>(scanned) / static_cast<double>(records);
  MustOk(client.Close(), "close");
  return out;
}

void RunTraced(const Args& args, const Workload& w, const World& world,
               const std::string& dir, size_t cpus, Report* report) {
  SpeedMeter meter;
  std::vector<double> setup_s, raw_setup_s;
  SetupTiming timing;
  std::unique_ptr<Instance> inst = SetUp(world, w, dir, cpus, 1, &meter,
                                         &setup_s, &raw_setup_s, &timing);
  core::Database* db = inst->db();
  MustOk(inst->service->TriggerSnapshot(), "snapshot");
  const core::Database::WeightCounters wc0 = db->WeightCountersSnapshot();

  // One pass per entry point over the same statements, outermost first.
  const std::vector<std::string> sqls =
      StreamPrefix(w, world, args.seed, TracedStatements(w));
  int pass = 0;
  ResetResultCache(inst.get(), pass++);
  const LoopbackPass plain = RunLoopbackPass(inst.get(), sqls, false, report);
  ResetResultCache(inst.get(), pass++);
  const LoopbackPass traced = RunLoopbackPass(inst.get(), sqls, true, report);

  ResetResultCache(inst.get(), pass++);
  service::Session session = inst->service->OpenSession();
  std::vector<double> stmt_us;
  std::vector<bool> hit;
  for (const std::string& sql : sqls) {
    const uint64_t h0 = inst->service->Stats().result_cache.hits;
    const auto t0 = Clock::now();
    auto r = session.Execute(sql);
    stmt_us.push_back(MicrosBetween(t0, Clock::now()));
    report->Count(r.ok(), "session: " + sql);
    hit.push_back(inst->service->Stats().result_cache.hits > h0);
  }
  // Service self time: a hit is all service; a miss is the statement
  // minus the engine's time for it.
  std::vector<double> engine_us, self_us, parse_us, canon_us, select_us;
  for (size_t i = 0; i < sqls.size(); ++i) {
    const auto t0 = Clock::now();
    auto r = db->Execute(sqls[i]);
    engine_us.push_back(MicrosBetween(t0, Clock::now()));
    report->Count(r.ok(), "engine: " + sqls[i]);
    self_us.push_back(stmt_us[i] - (hit[i] ? 0.0 : engine_us.back()));
  }
  for (const std::string& sql : sqls) {
    const auto t0 = Clock::now();
    auto stmt = sql::ParseStatement(sql);
    parse_us.push_back(MicrosBetween(t0, Clock::now()));
    report->Count(stmt.ok(), "parse: " + sql);
  }
  for (const std::string& sql : sqls) {
    const auto t0 = Clock::now();
    auto canon = service::CanonicalizeSql(sql);
    canon_us.push_back(MicrosBetween(t0, Clock::now()));
    report->Count(canon.ok(), "canonicalize: " + sql);
  }
  {
    // The executor alone, over the sample and its pinned weight epoch.
    auto sample = Must(db->catalog()->GetSample("GateLogs"), "sample");
    Table source = sample->data;
    MustOk(source.AddDoubleColumn("perfbench_w",
                                  sample->weights.Pin()->weights),
           "weights");
    for (const std::string& sql : sqls) {
      auto stmt = Must(sql::ParseStatement(sql), "parse");
      const auto& select = stmt.As<sql::SelectStmt>();
      exec::ExecOptions opts;
      if (select.visibility != sql::Visibility::kClosed) {
        opts.weight_column = "perfbench_w";
      }
      const auto t0 = Clock::now();
      auto r = exec::ExecuteSelect(source, select, opts);
      select_us.push_back(MicrosBetween(t0, Clock::now()));
      report->Count(r.ok(), "executor: " + sql);
    }
  }

  // Reads beside writes (ingest_mixed): the timed phase once more.
  double blocked_pct = 0;
  size_t skip_batches = 0;
  if (w.writes_during_reads) {
    const PhaseResult phase =
        RunPhase(inst.get(), w, world, args.seed, args.seconds, &meter);
    report->CountAll(phase.tally);
    blocked_pct = BlockedPct(phase);
    skip_batches = ScheduledBatches(w, args.seconds);
  }

  // nn: training (unless setup trained), generation, and the executor
  // over the generated samples — an OPEN query minus its generation.
  double train_ms = timing.train_ms;
  if (!w.train_in_setup) {
    const auto t0 = Clock::now();
    Must(db->GenerateOpenWorldTable("Flights", world.spec.generated_rows, 1),
         "train");
    train_ms = SecondsSince(t0) * 1e3;
  }
  std::vector<Table> generated;
  std::vector<double> gen_us;
  const uint64_t gen_seed = db->mutable_open_options()->generation_seed;
  for (size_t k = 0; k < world.spec.generated_samples; ++k) {
    const auto t0 = Clock::now();
    generated.push_back(Must(db->GenerateOpenWorldTable(
                                 "Flights", world.spec.generated_rows,
                                 gen_seed + k),
                             "generate"));
    gen_us.push_back(MicrosBetween(t0, Clock::now()));
  }
  std::vector<std::string> open_sqls =
      w.kind == Kind::kOpenWorld ? sqls
                                 : ProbeSql(Table2Probes(world), "OPEN");
  std::vector<double> open_select_us;
  for (const std::string& sql : open_sqls) {
    auto stmt = Must(sql::ParseStatement(sql), "parse");
    exec::ExecOptions opts;
    opts.weight_column = "weight";
    double total = 0;
    for (const Table& g : generated) {
      const auto t0 = Clock::now();
      auto r = exec::ExecuteSelect(g, stmt.As<sql::SelectStmt>(), opts);
      total += MicrosBetween(t0, Clock::now());
      report->Count(r.ok(), "open executor: " + sql);
    }
    open_select_us.push_back(total);
  }

  // Ingest: Database::IngestSample of one batch at a time.
  const uint64_t wal_bytes0 = CounterValue("mosaic_wal_append_bytes_total");
  const uint64_t fsyncs0 = CounterValue("mosaic_wal_fsyncs_total");
  std::vector<double> ingest_ms;
  for (size_t i = 0; i < w.burst_batches; ++i) {
    std::vector<size_t> rows;
    for (size_t r = 0; r < kBatchRows; ++r) {
      rows.push_back((skip_batches + i) * kBatchRows + r);
    }
    const Table batch = world.held_back.Filter(rows);
    const auto t0 = Clock::now();
    Status s = db->IngestSample("GateLogs", batch);
    ingest_ms.push_back(SecondsSince(t0) * 1e3);
    report->Count(s.ok(), "ingest batch");
  }
  const double wal_bytes_per_row =
      static_cast<double>(CounterValue("mosaic_wal_append_bytes_total") -
                          wal_bytes0) /
      static_cast<double>(w.burst_batches * kBatchRows);
  const double fsyncs_per_write =
      static_cast<double>(CounterValue("mosaic_wal_fsyncs_total") - fsyncs0) /
      static_cast<double>(w.burst_batches);
  const core::Database::WeightCounters wc1 = db->WeightCountersSnapshot();

  const auto snap0 = Clock::now();
  MustOk(inst->service->TriggerSnapshot(), "snapshot");
  const double snapshot_ms = SecondsSince(snap0) * 1e3;
  const size_t live_rows = SampleRows(db);
  const double disk_bytes_per_row =
      static_cast<double>(DirBytes(dir)) / static_cast<double>(live_rows);
  inst.reset();
  double recover_ms = 0;
  {
    service::QueryService svc(ServiceOptionsFor(dir, cpus));
    MustOk(svc.durability_status(), "recover");
    recover_ms =
        static_cast<double>(svc.storage_engine()->recovery_info().recovery_us) /
        1e3;
    report->Require(SampleRows(svc.database()) == live_rows,
                    "restart lost sample rows");
  }

  const double p50_plain = Median(plain.us);
  std::printf("workload %s (traced): %zu statements per pass; loopback p50 "
              "%.1f us untraced, %.1f us with server spans\n",
              w.name.c_str(), sqls.size(), p50_plain, Median(traced.us));
  report->Add("net.rtt_overhead_us", p50_plain - Median(stmt_us), "us");
  report->Add("net.frames_per_stmt", plain.frames_per_stmt, "count");
  report->Add("net.reply_bytes_per_stmt", plain.reply_bytes_per_stmt, "bytes");
  report->Add("service.cache_hit_pct", plain.cache_hit_pct, "%");
  report->Add("service.stmt_us", Median(stmt_us), "us");
  report->Add("service.self_us", Median(self_us), "us");
  report->Add("service.read_blocked_pct", blocked_pct, "%");
  report->Add("sql.parse_us", Median(parse_us), "us");
  report->Add("sql.canonicalize_us", Median(canon_us), "us");
  report->Add("core.engine_us", Median(engine_us), "us");
  report->Add("core.refits_total",
              static_cast<double>(wc1.refits_total - wc0.refits_total),
              "count");
  report->Add("core.refits_skipped",
              static_cast<double>(wc1.refits_skipped - wc0.refits_skipped),
              "count");
  report->Add(
      "core.refits_incremental",
      static_cast<double>(wc1.refits_incremental - wc0.refits_incremental),
      "count");
  report->Add("core.epochs_published",
              static_cast<double>(wc1.epochs_published - wc0.epochs_published),
              "count");
  report->Add("core.model_cache_hit_pct", plain.model_cache_hit_pct, "%");
  report->Add("stats.ipf_cold_ms", timing.ipf_cold_ms, "ms");
  report->Add("stats.ipf_iterations",
              static_cast<double>(timing.ipf_iterations), "count");
  report->Add("stats.ipf_l1_err", timing.ipf_l1_err, "ratio");
  report->Add("stats.ingest_refit_ms", Median(ingest_ms), "ms");
  report->Add("nn.train_ms", train_ms, "ms");
  report->Add("nn.generate_us_per_krow",
              Median(gen_us) * 1000.0 /
                  static_cast<double>(world.spec.generated_rows),
              "us");
  report->Add("exec.select_us", Median(select_us), "us");
  // system.queries counts rows only for statements that carry a trace.
  report->Add("exec.rows_scanned_per_stmt", traced.rows_scanned_per_stmt,
              "count");
  report->Add("exec.open_select_us", Median(open_select_us), "us");
  report->Add("durable.wal_bytes_per_row", wal_bytes_per_row, "bytes");
  report->Add("durable.fsyncs_per_write", fsyncs_per_write, "count");
  report->Add("durable.snapshot_ms", snapshot_ms, "ms");
  report->Add("durable.recover_ms", recover_ms, "ms");
  report->Add("durable.disk_bytes_per_row", disk_bytes_per_row, "bytes");
  report->Add("trace.overhead_pct",
              100.0 * (Median(traced.us) - p50_plain) / p50_plain, "%");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      auto v = ParseUint64(value);
      if (!v.ok()) return false;
      args->seed = *v;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
      if (!(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace perfbench
}  // namespace mosaic

int main(int argc, char** argv) {
  using namespace mosaic;
  using namespace mosaic::perfbench;
  SetLogLevel(LogLevel::kWarning);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--dir <scratch dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = FindWorkload(args.workload, args.seconds);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::vector<int> cpus = PinnedCpus();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), (unsigned long long)args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf("{\n");
  bench::PrintHostJson(stdout, 0);
  std::printf("  \"cpu_set\": [");
  for (size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ", ", cpus[i]);
  }
  std::printf("]\n}\n");

  std::filesystem::create_directories(args.dir);
  const std::string dir = args.dir + "/" + w->name + "-" +
                          std::to_string(static_cast<long>(::getpid()));
  const World world = MakeWorld(w->world);
  Report report;
  if (args.trace) {
    RunTraced(args, *w, world, dir, cpus.size(), &report);
  } else {
    RunEndToEnd(args, *w, world, dir, cpus.size(), &report);
  }
  std::filesystem::remove_all(dir);
  report.PrintJson();
  return 0;
}
