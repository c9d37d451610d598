// Concurrent query-serving subsystem in front of core::Database.
//
// Threading model
//   - A request pool runs submitted statements. Statements are
//     classified up front (service/sql_canonical.h): reads (SELECT at
//     every visibility level, SHOW) execute under a shared lock,
//     concurrently with each other — SEMI-OPEN included, because its
//     refit publishes the fitted weights as an immutable
//     copy-on-write epoch (core/weights.h) that swaps in without
//     disturbing readers pinned to the previous one. Writers (DDL,
//     DML, UPDATE) take the lock exclusively, serializing catalog
//     mutations.
//   - Every statement runs the same stages (PendingStatement): lex
//     (and key a SELECT or SHOW from the tokens), prepare (parse the
//     same tokens, classify), probe (stamp and result-cache lookup
//     under the shared lock), execute, and record (latency, counters,
//     `system.queries`, the session's count). Session::TryServeCached
//     lexes and looks up on the caller's thread without ever blocking
//     or parsing — the TCP server's poll thread answers cache hits
//     that way — and SubmitAsync resumes a statement at the stage it
//     reached, so nothing runs twice.
//   - A second, dedicated generation pool is handed to the OPEN
//     module (core::OpenWorld, through Database::set_generation_pool)
//     for parallel OPEN-query sample generation. Keeping the two
//     pools separate means a request task blocking on generation
//     futures can never deadlock the pool serving it.
//   - One statement runs on one thread: the executor never splits a
//     SELECT across workers, so parallelism is across statements (the
//     request pool) and across an OPEN query's generated samples (the
//     generation pool).
//
// Caching
//   - Model cache: the OPEN module's bounded LRU of trained generators
//     (shared across sessions; invalidated by metadata changes).
//   - Result cache: canonicalized SQL -> {stamp the answer was
//     computed under, subject, table}, bounded LRU, read-class
//     statements only. A lookup re-stamps the subject and serves the
//     entry while the stamp matches. Nothing is ever flushed
//     wholesale: a write bumps the catalog version and a SEMI-OPEN
//     refit bumps the sample's weight epoch, so exactly the stale
//     entries stop matching (the next answer replaces them) while
//     unrelated entries keep serving hits. OPEN answers are cacheable
//     because generation seeds are deterministic (seed + sample index).
#ifndef MOSAIC_SERVICE_QUERY_SERVICE_H_
#define MOSAIC_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/database.h"
#include "service/sql_canonical.h"
#include "sql/ast.h"
#include "sql/token.h"
#include "storage/durable/engine.h"
#include "storage/table.h"

namespace mosaic {
namespace service {

struct ServiceOptions {
  /// Workers executing submitted statements.
  size_t num_request_threads = 4;
  /// Workers producing OPEN-query generated samples; 0 disables
  /// parallel generation (the sequential engine path).
  size_t num_generation_threads = 4;
  /// Result-cache bound in entries; 0 disables result caching.
  size_t result_cache_capacity = 256;
  /// Trained-generator cache bound, applied to the owned Database.
  size_t model_cache_capacity = 16;
  /// Trace every statement (parse, cache, execute, per-phase executor
  /// spans). Results are bit-identical traced or not; the cost is the
  /// span bookkeeping. Also enabled by MOSAIC_TRACE=1. EXPLAIN
  /// ANALYZE statements are always traced regardless of this flag.
  bool trace_queries = false;
  /// Statements taking at least this many milliseconds log their span
  /// tree at WARNING. Negative = disabled; also settable via
  /// MOSAIC_SLOW_QUERY_MS (the option wins when >= 0). Enabling the
  /// slow-query log implies trace_queries — without spans there would
  /// be nothing to print.
  int64_t slow_query_ms = -1;
  /// Directory for durable state (snapshots + WAL,
  /// storage/durable/engine.h). Empty = in-memory only. When set, the
  /// service recovers the catalog from it at construction (check
  /// durability_status() before serving) and write-ahead-logs every
  /// mutation afterwards.
  std::string data_dir;
  /// fsync the WAL on every logged mutation (durable::
  /// StorageEngineOptions::fsync_dml).
  bool durable_fsync_dml = true;
};

/// Aggregate service counters, per process (the registry's
/// `mosaic_<field>` metrics); a consistent-enough snapshot for
/// monitoring (counters are sampled individually).
struct ServiceStats {
  uint64_t queries_total = 0;
  uint64_t queries_failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  CacheStats result_cache;
  CacheStats model_cache;
  /// Versioned weight-store activity (core/database.h).
  uint64_t weight_epochs_published = 0;
  uint64_t weight_refits_total = 0;
  uint64_t weight_refits_skipped = 0;
  uint64_t weight_refits_incremental = 0;
};

class QueryService;

/// Caller-supplied distributed-trace context for one statement,
/// transport-agnostic (the network server decodes it from the wire's
/// minor-v2 trace fields; in-process callers can fill it directly —
/// the same plumbing a scatter-gather coordinator reuses to stitch
/// shard spans under one trace_id).
struct RequestContext {
  /// Trace this statement belongs to; 0 = none. Adopted onto the
  /// QueryTrace so span trees and query-log records carry it.
  uint64_t trace_id = 0;
  /// The caller's enclosing span id (annotated on the statement span
  /// so a collector can stitch the cross-process parent edge).
  uint64_t parent_span_id = 0;
  /// Force span collection for this statement even when the service
  /// does not trace by default.
  bool sampled = false;
};

/// One statement on its way through the service's stages (see the
/// file comment). Callers only construct it; the service advances it,
/// and a statement handed to SubmitAsync resumes at the stage it
/// reached.
class PendingStatement {
 public:
  explicit PendingStatement(std::string sql,
                            RequestContext ctx = RequestContext())
      : sql_(std::move(sql)), ctx_(ctx) {}

 private:
  friend class QueryService;
  enum class Stage { kNew, kLexed, kPrepared };

  std::string sql_;
  RequestContext ctx_;
  Stage stage_ = Stage::kNew;
  Status status_;  ///< the lex or parse failure
  std::vector<sql::Token> tokens_;  ///< lexed, until the parser takes them
  std::optional<sql::Statement> stmt_;  ///< none until parsed
  bool is_read_ = false;
  bool explain_ = false;
  /// The result-cache key: canonical SQL, built from tokens_ for a
  /// statement that starts with SELECT or SHOW; empty otherwise.
  std::string cache_key_;
  core::Database::CacheStamp stamp_;  ///< a miss's answer is stored under
  int cache_hit_ = -1;  ///< -1 not looked up, 0 miss, 1 hit
  /// Time spent in stages run before the request pool took over.
  std::chrono::steady_clock::duration elapsed_{};
};

/// A lightweight client handle. Sessions share the service's catalog
/// and caches but keep their own submission counters; handles are
/// cheap to copy and safe to use from several threads.
class Session {
 public:
  /// Run one statement synchronously on the calling thread.
  [[nodiscard]] Result<Table> Execute(const std::string& sql);

  /// Same, under a caller-supplied trace context.
  [[nodiscard]] Result<Table> Execute(const std::string& sql, const RequestContext& ctx);

  /// Enqueue one statement on the request pool.
  std::future<Result<Table>> Submit(const std::string& sql);

  /// Answer `*statement` from the result cache without ever blocking
  /// or parsing (the TCP server calls this on its poll thread). On a
  /// hit the statement is recorded like any other and the table is
  /// returned shared, not copied. Otherwise returns null and leaves
  /// the statement as far as it got, for SubmitAsync to finish. Only
  /// an untraced, unsampled SELECT or SHOW outside union-samples mode
  /// is probed, and only when the catalog lock's shared side is free
  /// right now: anything else falls through untouched.
  std::shared_ptr<const Table> TryServeCached(PendingStatement* statement);

  /// Finish `statement` on the request pool and deliver the result to
  /// `done` on the worker that ran it (instead of a future), shared
  /// with the result cache rather than copied. The
  /// callback form lets event-driven callers — the TCP server's poll
  /// loop — avoid parking a thread per in-flight statement. The
  /// callback must not block on other request-pool work.
  void SubmitAsync(
      PendingStatement statement,
      std::function<void(Result<std::shared_ptr<const Table>>)> done);

  /// Fan a batch out across the request pool, one future per
  /// statement, in input order.
  std::vector<std::future<Result<Table>>> SubmitBatch(
      const std::vector<std::string>& sqls);

  uint64_t id() const;
  /// Statements this session has run to completion, failed ones
  /// included.
  uint64_t queries_submitted() const;

 private:
  friend class QueryService;
  struct State {
    uint64_t id = 0;
    std::atomic<uint64_t> submitted{0};
  };
  Session(QueryService* service, std::shared_ptr<State> state)
      : service_(service), state_(std::move(state)) {}

  QueryService* service_;
  std::shared_ptr<State> state_;
};

class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Open a client handle.
  Session OpenSession();

  /// Record the end of a session's lifetime (handles are plain
  /// values, so closure is an explicit event — the network server
  /// calls this when a connection goes away). Purely observational
  /// today: the handle stays usable, only the stats move.
  void CloseSession(const Session& session);

  /// Service-level variants of the Session API (an anonymous
  /// session).
  [[nodiscard]] Result<Table> Execute(const std::string& sql);
  std::future<Result<Table>> Submit(const std::string& sql);
  std::vector<std::future<Result<Table>>> SubmitBatch(
      const std::vector<std::string>& sqls);

  /// The owned engine, for programmatic setup (ingest, options).
  /// Exclusive access — do not call while queries are in flight.
  /// Catalog and ingest mutations through this pointer bump the
  /// engine's cache stamps like their SQL counterparts, but option
  /// mutations (mutable_open_options and friends) do not: follow
  /// those with InvalidateCaches() if the service already answered
  /// queries.
  core::Database* database() { return &db_; }

  /// Drop both the result cache and the trained-model cache.
  void InvalidateCaches();

  // ---- Durability (ServiceOptions::data_dir) --------------------------

  /// OK when the service runs without a data dir or recovery
  /// succeeded; the recovery/open error otherwise. A server must
  /// refuse to serve on a non-OK status — the in-memory catalog may
  /// be partial.
  [[nodiscard]] Status durability_status() const { return durability_status_; }

  /// Null without a data dir.
  const durable::StorageEngine* storage_engine() const {
    return storage_engine_.get();
  }

  /// Write a snapshot of the current state and GC obsolete WALs.
  /// Takes the catalog lock exclusively only for the in-memory
  /// capture; the file write runs outside the lock, concurrent with
  /// queries. No-op error when the service is not durable.
  [[nodiscard]] Status TriggerSnapshot();

  ServiceStats Stats() const;

  /// Drain both pools and stop accepting work. Called by the
  /// destructor; statements submitted afterwards run inline.
  void Shutdown();

 private:
  friend class Session;
  /// Test-only access to the catalog lock (tests/test_net_e2e.cc).
  friend class QueryServiceTestPeer;

  using Clock = std::chrono::steady_clock;

  /// Run `*st` to the end from the stage it reached, then record it.
  /// The answer may be shared with the result cache.
  [[nodiscard]] Result<std::shared_ptr<const Table>> Run(
      PendingStatement* st, Session::State* session);

  /// The lex, prepare, probe and execute stages, each skipped when `*st`
  /// already passed it. Failures and latency are accounted in Record,
  /// which Run calls exactly once for whatever this returns.
  [[nodiscard]] Result<std::shared_ptr<const Table>> RunInternal(
      PendingStatement* st, trace::QueryTrace* trace);

  /// Stage 1: lex, and key a SELECT or SHOW. Stage 2: parse the same
  /// tokens and classify.
  void Lex(PendingStatement* st, trace::QueryTrace* trace, uint32_t parent);
  void Prepare(PendingStatement* st, trace::QueryTrace* trace,
               uint32_t parent);

  /// Stage 3: stamp the statement and (unless TryServeCached counted
  /// its lookup) look it up: the cached table on a hit, else null.
  std::shared_ptr<const Table> Probe(PendingStatement* st,
                                     trace::QueryTrace* trace,
                                     uint32_t parent)
      REQUIRES_SHARED(catalog_mu_);

  /// Session::TryServeCached.
  std::shared_ptr<const Table> TryServeCached(PendingStatement* st,
                                              Session::State* session);

  /// Stage 5, the single accounting point: latency histograms,
  /// statement counters, the `system.queries` record, the session's
  /// count and the slow-query log.
  void Record(const PendingStatement& st, Session::State* session,
              trace::QueryTrace* trace, Clock::time_point start,
              const Status& status);

  /// Register the service-backed system tables (`system.sessions`,
  /// `system.snapshots`) on the owned database.
  void RegisterSystemTables();

  /// The `system.sessions` snapshot (providers run on request-pool
  /// threads; the lambda registered with the database delegates here
  /// so the guarded map is only touched inside an analyzed method).
  [[nodiscard]] Result<Table> SessionsTable();

  /// In-memory snapshot capture. REQUIRES makes
  /// durable::StorageEngine::BeginSnapshot's contract — writers must
  /// be excluded while the image is captured — machine-checked at
  /// every call site instead of a comment.
  [[nodiscard]] Result<durable::StorageEngine::PendingSnapshot> CaptureSnapshotLocked()
      REQUIRES(catalog_mu_);

  ServiceOptions options_;
  core::Database db_;
  /// Owns the data dir; attached to db_ as its durability sink after
  /// recovery. Declared after db_ but destroyed first (members
  /// destruct in reverse order), so the sink must be detached in
  /// Shutdown before db_ could outlive it — it isn't: db_ only logs
  /// through the pointer during statement execution, which Shutdown's
  /// pool drain ends first.
  std::unique_ptr<durable::StorageEngine> storage_engine_;
  Status durability_status_ = Status::OK();
  ThreadPool request_pool_;
  /// Null when num_generation_threads == 0 (sequential OPEN path).
  std::unique_ptr<ThreadPool> generation_pool_;
  /// Readers = read-class statements, writers = catalog mutations.
  SharedMutex catalog_mu_;
  /// An answer and what it was computed under.
  struct CachedResult {
    core::Database::CacheStamp stamp;
    core::Database::CacheSubject subject;
    std::shared_ptr<const Table> table;
  };
  LruCache<std::string, CachedResult> result_cache_;

  /// Live session states for `system.sessions`, keyed by id. Weak
  /// pointers: a session whose handles are all gone drops out on the
  /// next snapshot; CloseSession erases eagerly.
  mutable Mutex sessions_mu_;
  std::map<uint64_t, std::weak_ptr<Session::State>> sessions_
      GUARDED_BY(sessions_mu_);

  std::atomic<uint64_t> next_session_id_{1};
  /// Statement and session counts in the process-wide registry.
  metrics::Counter* queries_total_;
  metrics::Counter* queries_failed_;
  metrics::Counter* reads_;
  metrics::Counter* writes_;
  metrics::Counter* sessions_opened_;
  metrics::Counter* sessions_closed_;

  /// Resolved tracing config (options + MOSAIC_TRACE /
  /// MOSAIC_SLOW_QUERY_MS environment fallbacks).
  bool trace_enabled_ = false;
  int64_t slow_query_us_ = -1;  ///< < 0 disables the slow-query log
  /// Latency histograms in the process-wide registry; recorded for
  /// every statement whether or not tracing is on (a Record is three
  /// relaxed atomic adds).
  metrics::Histogram* latency_all_;
  metrics::Histogram* latency_read_;
  metrics::Histogram* latency_write_;
};

}  // namespace service
}  // namespace mosaic

#endif  // MOSAIC_SERVICE_QUERY_SERVICE_H_
