// Morsel-driven intra-query parallelism for the batch executor
// (Leis et al., "Morsel-Driven Parallelism", the scheduling model
// behind modern vectorized engines).
//
// The executor has one pipeline, and every step of it is written as
// a per-morsel body plus an in-order merge: WHERE refinement,
// expression evaluation, weight and key gathers, group-key building,
// and the exact (order-insensitive) aggregates COUNT/MIN/MAX. With
// morsels off the driver yields a single morsel covering the whole
// selection and runs it inline on the calling thread; morsel 0 always
// writes straight into the final output, so that case has no partial
// state and nothing to merge. With morsels on, the selection vector
// is split into fixed-size morsels, possibly run on several threads,
// and later morsels' partial states are merged in morsel order.
// Because the concatenation of per-morsel results in morsel order is
// exactly the whole-selection sequence, every merge is deterministic
// and the output is bit-identical at every morsel size and thread
// count (and to the row oracle). Floating-point sums are the one
// aggregate whose merge order would change the rounding, so they are
// reduced serially in selection order over per-row products computed
// per morsel — see executor.cc.
//
// Scheduling: MorselDriver::Run never blocks on queued pool work.
// The calling thread claims morsels from a shared atomic counter and
// executes them itself; helper tasks submitted to the (shared) pool
// do the same when a worker picks them up. A helper that only runs
// after all morsels are claimed exits immediately, so the driver is
// deadlock-free even when the pool is saturated with other queries'
// work or has a single thread — the property that lets the query
// service share one request pool between inter-query and intra-query
// parallelism.
#ifndef MOSAIC_EXEC_MORSEL_H_
#define MOSAIC_EXEC_MORSEL_H_

#include <cstddef>
#include <functional>
#include <utility>

#include "common/status.h"
#include "common/thread_pool.h"

namespace mosaic {
namespace exec {

struct MorselOptions {
  /// Rows per morsel; 0 disables splitting (one morsel covers the
  /// whole selection and runs on the calling thread).
  size_t morsel_size = 0;
  /// Extra workers (typically the service's request pool); a split
  /// query runs on the calling thread plus the pool's idle workers.
  /// Null means morsels still partition and merge — exercising the
  /// slicing and merge logic — but run only on the calling thread.
  ThreadPool* pool = nullptr;

  bool enabled() const { return morsel_size > 0; }
};

/// Partitions [0, n) row positions into morsels and runs a callback
/// per morsel, claim-loop style (see file comment). A default driver
/// never splits.
class MorselDriver {
 public:
  MorselDriver() = default;
  explicit MorselDriver(const MorselOptions& options) : options_(options) {}

  const MorselOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled(); }

  /// Number of morsels covering `rows` positions: always at least
  /// one (an empty selection is one empty morsel), and exactly one
  /// when splitting is off.
  size_t NumMorsels(size_t rows) const {
    if (!enabled() || rows == 0) return 1;
    return (rows + options_.morsel_size - 1) / options_.morsel_size;
  }

  /// [begin, end) positions of morsel `m` out of NumMorsels(rows).
  std::pair<size_t, size_t> Range(size_t rows, size_t m) const {
    if (!enabled()) return {0, rows};
    size_t begin = m * options_.morsel_size;
    size_t end = begin + options_.morsel_size;
    if (begin > rows) begin = rows;
    if (end > rows) end = rows;
    return {begin, end};
  }

  /// Run fn(m) for every morsel index m in [0, num_morsels). A single
  /// morsel is a plain inline call. Otherwise fn must be safe to call
  /// concurrently for distinct m, must not throw, and should write
  /// its result into caller-preallocated per-morsel slots. Returns
  /// the error of the lowest failing morsel index (deterministic
  /// regardless of execution interleaving). Blocks until every
  /// started morsel finished; never blocks on pool capacity.
  template <typename Fn>
  [[nodiscard]] Status Run(size_t num_morsels, const Fn& fn) const {
    if (num_morsels == 1) return fn(0);
    // A reference_wrapper fits std::function's inline buffer: no
    // allocation on the split path either.
    return RunSplit(num_morsels, std::cref(fn));
  }

 private:
  [[nodiscard]] Status RunSplit(size_t num_morsels,
                                const std::function<Status(size_t)>& fn) const;

  MorselOptions options_;
};

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_MORSEL_H_
