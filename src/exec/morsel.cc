#include "exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/synchronization.h"

namespace mosaic {
namespace exec {

namespace {

/// Shared between the submitting thread and helper tasks. Owned by
/// shared_ptr so a helper task that the pool only dequeues after the
/// driver already returned (all morsels claimed by then) still has a
/// valid counter to read before exiting.
struct ClaimState {
  explicit ClaimState(size_t total) : total(total), status(total) {}

  const size_t total;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  /// Set on the first morsel failure; later claims are counted but
  /// not executed. Determinism is unaffected: claims are handed out
  /// in index order, so the lowest-index failing morsel is always
  /// claimed (and run) before any other failing morsel, and every
  /// skipped morsel has a higher index than an already-recorded
  /// failure.
  std::atomic<bool> failed{false};
  /// Per-morsel results; slots are only written by the claimer of
  /// that morsel and only read after `done` reached `total`
  /// (release/acquire on `done` orders the accesses).
  std::vector<Status> status;
  /// mu orders the final notify against the driver's wait; the data
  /// it fences (done/status) is already atomic-ordered, so nothing is
  /// GUARDED_BY it.
  Mutex mu;
  CondVar all_done;
  /// Null once the driver returned; guarded by the claim protocol:
  /// only dereferenced for a successfully claimed morsel, and the
  /// driver cannot return while any morsel is claimed but unfinished.
  const std::function<Status(size_t)>* fn;
};

void ClaimLoop(ClaimState* state) {
  for (;;) {
    const size_t m = state->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= state->total) return;
    if (!state->failed.load(std::memory_order_relaxed)) {
      // fn must not throw (the executor surfaces all failures as
      // Status); the belt-and-braces catch keeps a violation from
      // tearing down a pool worker.
      try {
        state->status[m] = (*state->fn)(m);
      } catch (...) {
        state->status[m] = Status::Internal("morsel task threw");
      }
      if (!state->status[m].ok()) {
        state->failed.store(true, std::memory_order_relaxed);
      }
    }
    // A claim made after a failure is counted but skipped (its slot
    // stays OK) — the serial path's first-error short-circuit,
    // without breaking the done-counter protocol.
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->total) {
      MutexLock lock(state->mu);
      state->all_done.NotifyAll();
    }
  }
}

}  // namespace

Status MorselDriver::RunSplit(size_t num_morsels,
                              const std::function<Status(size_t)>& fn) const {
  if (num_morsels == 0) return Status::OK();

  size_t helpers = 0;
  if (options_.pool != nullptr) {
    helpers = std::min(options_.pool->num_threads(), num_morsels - 1);
    // Don't enqueue helpers a busy pool cannot serve: a helper that
    // only runs after all morsels are claimed is pure queue churn
    // ahead of real work. pending() counts queued + running (incl.
    // the query task calling this from a pool worker), so this is the
    // pool's idle capacity right now — a heuristic, not a guarantee;
    // correctness never depends on helpers running.
    const size_t busy = options_.pool->pending();
    const size_t idle = options_.pool->num_threads() > busy
                            ? options_.pool->num_threads() - busy
                            : 0;
    helpers = std::min(helpers, idle);
  }
  if (helpers == 0) {
    // Single-threaded: still morsel-at-a-time (callers rely on the
    // partition/merge structure for parity testing), with the
    // deterministic first-error short-circuit for free.
    for (size_t m = 0; m < num_morsels; ++m) {
      MOSAIC_RETURN_IF_ERROR(fn(m));
    }
    return Status::OK();
  }

  auto state = std::make_shared<ClaimState>(num_morsels);
  state->fn = &fn;
  for (size_t h = 0; h < helpers; ++h) {
    // Futures are intentionally dropped: completion is tracked by the
    // done counter, and a helper dequeued late (even after this call
    // returned) finds no unclaimed morsel and exits without touching
    // `fn`.
    options_.pool->Submit([state] { ClaimLoop(state.get()); });
  }
  ClaimLoop(state.get());
  {
    MutexLock lock(state->mu);
    while (state->done.load(std::memory_order_acquire) != state->total) {
      state->all_done.Wait(lock);
    }
  }
  state->fn = nullptr;
  for (size_t m = 0; m < num_morsels; ++m) {
    MOSAIC_RETURN_IF_ERROR(std::move(state->status[m]));
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace mosaic
