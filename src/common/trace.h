// Per-query tracing: a QueryTrace collects timestamped spans as the
// statement moves through parse -> cache -> plan -> execution, and
// renders them as an indented tree (slow-query log) or a result table
// (EXPLAIN ANALYZE).
//
// Threading model. Spans name their parent explicitly (Begin takes a
// parent id) instead of keeping an implicit per-thread stack: an OPEN
// query's generation-pool tasks record spans for the same query from
// several threads at once, so "current span" is ambiguous — the call
// site always knows its parent and captures the id into worker
// lambdas. One mutex guards the span vector; it is only ever touched
// when tracing is on.
//
// Cost when disabled. Everything takes the trace as a nullable
// pointer: ScopedSpan(nullptr, ...) compiles to two branches and no
// clock read, so instrumented code paths stay at production speed
// with tracing off.
#ifndef MOSAIC_COMMON_TRACE_H_
#define MOSAIC_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/synchronization.h"

namespace mosaic {
namespace trace {

/// One timed region. Span ids are 1-based; parent 0 means top-level.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;     ///< 0 = top-level
  std::string name;
  uint64_t start_us = 0;   ///< microseconds since the trace began
  uint64_t end_us = 0;     ///< 0 while the span is open
  uint64_t cpu_ns = 0;     ///< thread CPU time spent inside the span;
                           ///< only meaningful for spans begun and
                           ///< ended on the same thread (ScopedSpan),
                           ///< 0 for AddTimed spans
  std::string note;        ///< free-form annotation ("rows=120 ...")

  uint64_t duration_us() const {
    return end_us >= start_us ? end_us - start_us : 0;
  }
};

/// Parent id for top-level spans.
inline constexpr uint32_t kNoParent = 0;

/// Nanoseconds of CPU consumed by the calling thread
/// (CLOCK_THREAD_CPUTIME_ID); 0 if the platform lacks the clock.
uint64_t ThreadCpuNs();

/// Per-query resource tallies, accumulated alongside the spans. All
/// counters are relaxed atomics: generation-pool tasks bump them from
/// several threads, and exact interleaving does not matter — only the
/// final totals, read after the query completes, do.
struct ResourceCounters {
  std::atomic<uint64_t> rows_scanned{0};   ///< rows examined by WHERE
  std::atomic<uint64_t> rows_produced{0};  ///< rows in the result
  std::atomic<uint64_t> epoch_pins{0};     ///< weight epochs pinned
  /// -1 unknown (not a cacheable read), 0 miss, 1 hit.
  std::atomic<int> cache_hit{-1};
};

class QueryTrace {
 public:
  QueryTrace() : epoch_(std::chrono::steady_clock::now()) {}

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Distributed trace id this query belongs to. 0 = unsampled local
  /// trace; a client (or the upstream coordinator) supplies a nonzero
  /// id over the wire and every span tree rendered from this trace
  /// carries it. Set once at creation, before the trace is shared.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

  /// Resource tallies for the whole query (thread-safe to bump from
  /// generation-pool tasks; see ResourceCounters).
  ResourceCounters& counters() { return counters_; }
  const ResourceCounters& counters() const { return counters_; }

  /// Open a span under `parent` (kNoParent for top level); returns
  /// its id for use as a parent and for End().
  uint32_t Begin(uint32_t parent, const std::string& name);

  /// Close the span. Idempotent enough for error paths: closing an
  /// already-closed span keeps the first end time.
  void End(uint32_t id);

  /// Record an already-measured region (start/end in microseconds
  /// since the trace epoch, see NowUs).
  void AddTimed(uint32_t parent, const std::string& name, uint64_t start_us,
                uint64_t end_us);

  /// Append an annotation to the span ("rows=120"). Multiple notes
  /// join with a space.
  void Note(uint32_t id, const std::string& text);

  /// Microseconds elapsed since this trace was constructed.
  uint64_t NowUs() const;

  /// Copy of all spans, in creation order.
  std::vector<Span> Spans() const;

  /// Indented tree, one span per line:
  ///   execute                     1234us
  ///     filter                     987us  [rows=120]
  std::string ToString() const;

  /// Pre-order walk over the span forest (children in creation
  /// order); `visit` receives each span with its depth. This is how
  /// renderers in higher layers (EXPLAIN ANALYZE's result table)
  /// consume a trace without common/ depending on them.
  void Visit(const std::function<void(const Span&, size_t)>& visit) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  uint64_t trace_id_ = 0;
  ResourceCounters counters_;
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  /// Thread-CPU clock reading captured at Begin, consumed by End on
  /// the same thread; 0 for AddTimed spans (no live interval).
  std::vector<uint64_t> cpu_start_ns_ GUARDED_BY(mu_);
};

/// Null-safe counter bumps: the instrumented executor paths call
/// these unconditionally; with tracing off they are one branch.
inline void CountRowsScanned(QueryTrace* trace, uint64_t n) {
  if (trace != nullptr)
    trace->counters().rows_scanned.fetch_add(n, std::memory_order_relaxed);
}
inline void CountRowsProduced(QueryTrace* trace, uint64_t n) {
  if (trace != nullptr)
    trace->counters().rows_produced.fetch_add(n, std::memory_order_relaxed);
}
inline void CountEpochPin(QueryTrace* trace) {
  if (trace != nullptr)
    trace->counters().epoch_pins.fetch_add(1, std::memory_order_relaxed);
}
inline void NoteCacheHit(QueryTrace* trace, bool hit) {
  if (trace != nullptr)
    trace->counters().cache_hit.store(hit ? 1 : 0,
                                      std::memory_order_relaxed);
}

/// RAII span that is a no-op when the trace pointer is null. id()
/// returns 0 (= kNoParent) in that case, so untraced parents chain
/// through transparently.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, uint32_t parent, const char* name)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->Begin(parent, name);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  QueryTrace* trace() const { return trace_; }

  /// Annotate this span (no-op when untraced).
  void Note(const std::string& text) {
    if (trace_ != nullptr) trace_->Note(id_, text);
  }

 private:
  QueryTrace* trace_;
  uint32_t id_ = 0;
};

}  // namespace trace
}  // namespace mosaic

#endif  // MOSAIC_COMMON_TRACE_H_
