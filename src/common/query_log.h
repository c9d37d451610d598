// The query log: a process-wide bounded ring of per-query resource
// records. Every statement the service runs — traced or not — rolls
// its wall/CPU time, row/epoch tallies, cache outcome, SIMD
// ISA, and (when traced) the full span tree into one QueryRecord and
// appends it here. `system.queries` is a snapshot of this ring
// rendered as a table, so the introspection surface is plain SQL.
//
// Concurrency. Appends claim a slot with one relaxed fetch_add on the
// global sequence — writers never serialize against each other except
// on the rare wraparound collision, where a per-slot mutex keeps the
// record internally consistent (a QueryRecord holds strings and a
// span vector, so a seqlock would torn-read). Readers copy slot by
// slot under the same per-slot mutex; a snapshot is consistent per
// record, not across records, which is the right contract for an
// observability table.
#ifndef MOSAIC_COMMON_QUERY_LOG_H_
#define MOSAIC_COMMON_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/synchronization.h"

namespace mosaic {
namespace qlog {

/// One span flattened out of the QueryTrace (creation-order id and
/// parent preserved so consumers can rebuild the tree).
struct RecordSpan {
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  uint64_t cpu_ns = 0;
  std::string note;
};

/// Everything the service knows about one completed statement.
struct QueryRecord {
  uint64_t query_id = 0;   ///< assigned by Append, monotonically rising
  uint64_t session_id = 0;
  uint64_t trace_id = 0;   ///< 0 = not part of a distributed trace
  std::string sql;
  std::string status;      ///< "OK" or the error code ("InvalidArgument")
  int cache_hit = -1;      ///< -1 n/a, 0 miss, 1 hit
  uint64_t wall_us = 0;
  uint64_t cpu_ns = 0;     ///< thread CPU of the statement span
  uint64_t rows_scanned = 0;
  uint64_t rows_produced = 0;
  uint64_t epoch_pins = 0;
  std::string simd_isa;
  std::vector<RecordSpan> spans;  ///< empty when the query was untraced
};

class QueryLog {
 public:
  /// The process-wide log that `system.queries` reads.
  static QueryLog& Global();

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Append one record (its query_id field is overwritten with the
  /// claimed sequence number, which is returned). Overwrites the
  /// oldest record once the ring is full.
  uint64_t Append(QueryRecord record);

  /// Copy of the live records, oldest first (query_id ascending).
  std::vector<QueryRecord> Snapshot() const;

  size_t capacity() const { return slots_.size(); }

  /// Total appends ever (== highest query_id handed out).
  uint64_t total_appended() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Drop all records and restart ids at 1. Test-only: concurrent
  /// appenders may race the reset.
  void ResetForTesting();

  static constexpr size_t kDefaultCapacity = 1024;

 private:
  struct Slot {
    mutable Mutex mu;
    uint64_t seq GUARDED_BY(mu) = 0;  ///< 0 = never written
    QueryRecord record GUARDED_BY(mu);
  };

  std::atomic<uint64_t> next_id_{1};
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace qlog
}  // namespace mosaic

#endif  // MOSAIC_COMMON_QUERY_LOG_H_
