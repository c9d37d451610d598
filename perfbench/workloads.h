// The four workloads: what each one runs, and the seeded statement
// streams it sends. Streams are pure SQL generators — the service only
// ever sees the statements — and emit only statements that succeed:
// every filtered AVG is anchored on a sample row, so its selection is
// never empty.
#ifndef MOSAIC_PERFBENCH_WORKLOADS_H_
#define MOSAIC_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "world.h"

namespace mosaic {
namespace perfbench {

enum class Kind { kDashboardHot, kAdhocScan, kOpenWorld, kIngestMixed };

struct Workload {
  Kind kind = Kind::kDashboardHot;
  std::string name;
  WorldSpec world;
  /// Train the M-SWG during setup (the OPEN workload).
  bool train_in_setup = false;
  /// Visibility the Table 2 probes run at for answer_err_pct.
  std::string probe_visibility = "SEMI-OPEN";
  /// ingest_mixed: INSERT batches sent open-loop during the timed
  /// phase at `write_rate` per second. Other workloads send
  /// `burst_batches` batches after it, so every workload reports write
  /// latency and recovery on its own world.
  bool writes_during_reads = false;
  double write_rate = 1.0;
  size_t burst_batches = 5;
  /// Stream statements whose answers are replayed through
  /// Database::Execute and compared byte for byte.
  size_t verify_statements = 32;
};

/// Rows per INSERT batch.
constexpr size_t kBatchRows = 100;

/// Null for an unknown name. `seconds` sizes the ingest schedule.
std::unique_ptr<Workload> FindWorkload(const std::string& name,
                                       double seconds);

/// INSERT batches ingest_mixed sends during a run of `seconds`.
size_t ScheduledBatches(const Workload& w, double seconds);

/// A workload's read statements, in order, from the run seed.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual std::string Next() = 0;
};

std::unique_ptr<Stream> MakeStream(const Workload& w, const World& world,
                                   uint64_t seed);

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_WORKLOADS_H_
