#include "service/query_service.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/env.h"
#include "common/event_log.h"
#include "common/logging.h"
#include "common/query_log.h"
#include "common/string_util.h"
#include "core/system_tables.h"
#include "exec/simd.h"
#include "exec/trace_table.h"
#include "sql/parser.h"

namespace mosaic {
namespace service {

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Result<Table> Session::Execute(const std::string& sql) {
  state_->submitted.fetch_add(1, std::memory_order_relaxed);
  return service_->Run(sql, state_.get());
}

Result<Table> Session::Execute(const std::string& sql,
                               const RequestContext& ctx) {
  state_->submitted.fetch_add(1, std::memory_order_relaxed);
  return service_->Run(sql, state_.get(), ctx);
}

std::future<Result<Table>> Session::Submit(const std::string& sql) {
  state_->submitted.fetch_add(1, std::memory_order_relaxed);
  QueryService* service = service_;
  auto state = state_;
  return service->request_pool_.Submit(
      [service, state, sql] { return service->Run(sql, state.get()); });
}

void Session::SubmitAsync(std::string sql,
                          std::function<void(Result<Table>)> done) {
  SubmitAsync(std::move(sql), RequestContext(), std::move(done));
}

void Session::SubmitAsync(std::string sql, RequestContext ctx,
                          std::function<void(Result<Table>)> done) {
  state_->submitted.fetch_add(1, std::memory_order_relaxed);
  QueryService* service = service_;
  auto state = state_;
  service->request_pool_.Submit(
      [service, state, sql = std::move(sql), ctx,
       done = std::move(done)] {
        done(service->Run(sql, state.get(), ctx));
      });
}

std::vector<std::future<Result<Table>>> Session::SubmitBatch(
    const std::vector<std::string>& sqls) {
  std::vector<std::future<Result<Table>>> futures;
  futures.reserve(sqls.size());
  for (const auto& sql : sqls) futures.push_back(Submit(sql));
  return futures;
}

uint64_t Session::id() const { return state_->id; }

uint64_t Session::queries_submitted() const {
  return state_->submitted.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      request_pool_(options.num_request_threads),
      result_cache_("mosaic_result_cache", options.result_cache_capacity) {
  db_.set_model_cache_capacity(options.model_cache_capacity);
  // Intra-query morsels share the request pool (deadlock-free by the
  // morsel driver's claim-loop design). The engine may already have a
  // morsel size from MOSAIC_MORSELS; explicit options override it.
  if (options.morsel_size > 0) db_.set_morsel_options(options.morsel_size);
  db_.set_morsel_pool(&request_pool_);
  if (options.num_generation_threads > 0) {
    generation_pool_ =
        std::make_unique<ThreadPool>(options.num_generation_threads);
    db_.set_generation_pool(generation_pool_.get());
  }
  slow_query_us_ = options.slow_query_ms;
  if (slow_query_us_ < 0) {
    if (auto env = EnvSize("MOSAIC_SLOW_QUERY_MS")) {
      slow_query_us_ = static_cast<int64_t>(*env);
    }
  }
  if (slow_query_us_ >= 0) slow_query_us_ *= 1000;
  // The slow-query log needs a span tree to print, so it implies
  // tracing.
  trace_enabled_ =
      options.trace_queries || EnvFlag("MOSAIC_TRACE") || slow_query_us_ >= 0;
  auto& registry = metrics::Registry::Global();
  queries_total_ = registry.GetCounter(
      "mosaic_queries_total", "Statements run, failed ones included");
  queries_failed_ = registry.GetCounter("mosaic_queries_failed",
                                        "Statements that failed");
  reads_ = registry.GetCounter("mosaic_reads",
                               "Read-class statements run (SELECT, SHOW)");
  writes_ = registry.GetCounter("mosaic_writes",
                                "Write-class statements run (DDL, DML)");
  sessions_opened_ = registry.GetCounter("mosaic_sessions_opened",
                                         "Sessions opened");
  sessions_closed_ = registry.GetCounter("mosaic_sessions_closed",
                                         "Sessions closed");
  latency_all_ = registry.GetHistogram("mosaic_query_latency_us");
  latency_read_ = registry.GetHistogram("mosaic_read_latency_us");
  latency_write_ = registry.GetHistogram("mosaic_write_latency_us");

  // Durable mode: rebuild the catalog from the data dir before any
  // query can run, then let the engine WAL everything from here on.
  // Construction continues on failure (no exceptions); servers gate
  // on durability_status().
  if (!options.data_dir.empty()) {
    durable::StorageEngineOptions eng_options;
    eng_options.fsync_dml = options.durable_fsync_dml;
    auto engine = durable::StorageEngine::Open(options.data_dir, eng_options);
    if (!engine.ok()) {
      durability_status_ = engine.status();
    } else {
      storage_engine_ = std::move(*engine);
      durability_status_ = storage_engine_->Recover(&db_).status();
    }
  }

  RegisterSystemTables();
}

void QueryService::RegisterSystemTables() {
  // Overrides the Database's empty-stub providers with live ones. The
  // lambdas run on request-pool threads (inside a SELECT), so they
  // may only touch thread-safe state.
  db_.RegisterSystemTable("sessions",
                          [this]() { return SessionsTable(); });
  if (storage_engine_ != nullptr) {
    const std::string dir = storage_engine_->data_dir();
    db_.RegisterSystemTable("snapshots", [dir]() -> Result<Table> {
      MOSAIC_ASSIGN_OR_RETURN(Table out, core::EmptySnapshotsTable());
      DIR* d = opendir(dir.c_str());
      if (d == nullptr) return out;
      std::vector<std::string> names;
      while (struct dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        const std::string suffix = ".snap";
        if (name.rfind("snapshot-", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          names.push_back(name);
        }
      }
      closedir(d);
      std::sort(names.begin(), names.end());
      for (const std::string& name : names) {
        const uint64_t seq =
            std::strtoull(name.c_str() + sizeof("snapshot-") - 1, nullptr, 10);
        struct stat st;
        int64_t bytes = 0;
        if (::stat((dir + "/" + name).c_str(), &st) == 0) {
          bytes = static_cast<int64_t>(st.st_size);
        }
        MOSAIC_RETURN_IF_ERROR(
            out.AppendRow({Value(name), Value(static_cast<int64_t>(seq)),
                           Value(bytes)}));
      }
      return out;
    });
  }
}

Result<Table> QueryService::SessionsTable() {
  MOSAIC_ASSIGN_OR_RETURN(Table out, core::EmptySessionsTable());
  MutexLock lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (auto state = it->second.lock()) {
      MOSAIC_RETURN_IF_ERROR(out.AppendRow(
          {Value(static_cast<int64_t>(state->id)),
           Value(static_cast<int64_t>(
               state->submitted.load(std::memory_order_relaxed)))}));
      ++it;
    } else {
      // All handles gone without CloseSession: drop lazily.
      it = sessions_.erase(it);
    }
  }
  return out;
}

QueryService::~QueryService() { Shutdown(); }

Session QueryService::OpenSession() {
  auto state = std::make_shared<Session::State>();
  state->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  sessions_opened_->Inc();
  {
    MutexLock lock(sessions_mu_);
    sessions_[state->id] = state;
  }
  return Session(this, std::move(state));
}

void QueryService::CloseSession(const Session& session) {
  {
    MutexLock lock(sessions_mu_);
    sessions_.erase(session.state_->id);
  }
  sessions_closed_->Inc();
}

Result<Table> QueryService::Execute(const std::string& sql) {
  return Run(sql, nullptr);
}

std::future<Result<Table>> QueryService::Submit(const std::string& sql) {
  return request_pool_.Submit([this, sql] { return Run(sql, nullptr); });
}

std::vector<std::future<Result<Table>>> QueryService::SubmitBatch(
    const std::vector<std::string>& sqls) {
  std::vector<std::future<Result<Table>>> futures;
  futures.reserve(sqls.size());
  for (const auto& sql : sqls) futures.push_back(Submit(sql));
  return futures;
}

namespace {

/// Result-cache key: canonical SQL tagged with the engine stamp. The
/// unit separator only ever appears inside quoted string literals of
/// canonicalized SQL, so the trailing stamp parses unambiguously.
/// Entries are never flushed wholesale: a write bumps
/// the catalog version and a refit bumps the sample's weight epoch,
/// so stale entries simply stop matching and age out of the LRU while
/// every unaffected entry keeps serving hits.
std::string ComposeCacheKey(const std::string& canonical,
                            const core::Database::CacheStamp& stamp) {
  return canonical + '\x1f' + "v" + std::to_string(stamp.catalog_version) +
         "w" + std::to_string(stamp.weight_epoch);
}

/// Cheap pre-parse check for EXPLAIN as the first token, so the trace
/// (and its parse span) exists before parsing. A leading comment
/// defeats it; the parser still sets the flag and the trace is then
/// created after the fact (losing only the parse span).
bool LooksLikeExplain(const std::string& sql) {
  static const char kKeyword[] = "EXPLAIN";
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  for (size_t k = 0; k + 1 < sizeof(kKeyword); ++k) {
    if (i + k >= sql.size() ||
        std::toupper(static_cast<unsigned char>(sql[i + k])) !=
            kKeyword[k]) {
      return false;
    }
  }
  size_t end = i + sizeof(kKeyword) - 1;
  return end >= sql.size() ||
         !(std::isalnum(static_cast<unsigned char>(sql[end])) ||
           sql[end] == '_');
}

}  // namespace

Result<Table> QueryService::Run(const std::string& sql,
                                Session::State* session,
                                const RequestContext& ctx) {
  queries_total_->Inc();

  const auto wall_start = std::chrono::steady_clock::now();
  // EXPLAIN ANALYZE statements get a trace even when tracing is off —
  // the trace IS their result. A sampled request context forces
  // tracing the same way (remote EXPLAIN ANALYZE, client --trace).
  std::unique_ptr<trace::QueryTrace> trace;
  if (trace_enabled_ || ctx.sampled || LooksLikeExplain(sql)) {
    trace = std::make_unique<trace::QueryTrace>();
    trace->set_trace_id(ctx.trace_id);
  }

  bool is_read = false;
  bool explain = false;
  int cache_hit = -1;
  Result<Table> result =
      RunInternal(sql, trace.get(), ctx, &is_read, &explain, &cache_hit);

  const uint64_t elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  latency_all_->Record(elapsed_us);
  (is_read ? latency_read_ : latency_write_)->Record(elapsed_us);

  // The single failure-accounting point: every error path inside
  // RunInternal (parse, classification, execution) lands here exactly
  // once (tests/test_service.cc pins this down).
  if (!result.ok()) {
    queries_failed_->Inc();
  }

  // Every statement — traced or not, failed or not — leaves a record
  // in the bounded query log (`system.queries`). Untraced statements
  // record wall time and status only; traced ones add the span tree
  // and resource counters.
  {
    qlog::QueryRecord record;
    record.session_id = session != nullptr ? session->id : 0;
    record.trace_id = ctx.trace_id;
    record.sql = sql;
    record.status =
        result.ok() ? "OK" : StatusCodeName(result.status().code());
    record.cache_hit = cache_hit;
    record.wall_us = elapsed_us;
    record.simd_isa = exec::simd::ActiveIsaName();
    if (trace != nullptr) {
      const trace::ResourceCounters& c = trace->counters();
      record.rows_scanned = c.rows_scanned.load(std::memory_order_relaxed);
      record.rows_produced = c.rows_produced.load(std::memory_order_relaxed);
      record.morsels = c.morsels.load(std::memory_order_relaxed);
      record.epoch_pins = c.epoch_pins.load(std::memory_order_relaxed);
      std::vector<trace::Span> spans = trace->Spans();
      record.spans.reserve(spans.size());
      for (const trace::Span& s : spans) {
        record.spans.push_back({s.id, s.parent, s.name, s.start_us,
                                s.duration_us(), s.cpu_ns, s.note});
        // The root "statement" span's thread-CPU time is the
        // statement's own CPU cost (children nest inside it; morsel
        // work on other threads is not included).
        if (s.parent == trace::kNoParent && record.cpu_ns == 0) {
          record.cpu_ns = s.cpu_ns;
        }
      }
    }
    qlog::QueryLog::Global().Append(std::move(record));
  }

  if (trace != nullptr && slow_query_us_ >= 0 &&
      elapsed_us >= static_cast<uint64_t>(slow_query_us_)) {
    elog::EventLog& events = elog::EventLog::Global();
    if (events.enabled()) {
      events.Emit(LogLevel::kWarning, "slow_query",
                  {{"sql", sql},
                   {"elapsed_ms", std::to_string(elapsed_us / 1000)},
                   {"status", result.ok() ? "OK"
                                          : StatusCodeName(
                                                result.status().code())},
                   {"spans", trace->ToString()}},
                  ctx.trace_id);
    } else {
      MOSAIC_LOG(Warning) << "slow query (" << elapsed_us / 1000 << " ms): "
                          << sql << "\n"
                          << trace->ToString();
    }
  }

  if (result.ok() && explain && trace != nullptr) {
    // All spans are closed by now (RunInternal returned), so the
    // rendered tree accounts for the full pipeline.
    return exec::TraceToTable(*trace);
  }
  return result;
}

Result<Table> QueryService::RunInternal(const std::string& sql,
                                        trace::QueryTrace* trace,
                                        const RequestContext& ctx,
                                        bool* is_read, bool* explain,
                                        int* cache_hit) {
  trace::ScopedSpan stmt_span(trace, trace::kNoParent, "statement");
  // Surface the caller's trace context on the statement span so a
  // remote EXPLAIN ANALYZE (or span collector) can stitch the
  // cross-process edge: the client sees its own trace_id come back.
  if (trace != nullptr && ctx.trace_id != 0) {
    stmt_span.Note(StrFormat("trace_id=%016llx",
                             static_cast<unsigned long long>(ctx.trace_id)));
    if (ctx.parent_span_id != 0) {
      stmt_span.Note(StrFormat(
          "parent_span=%llu",
          static_cast<unsigned long long>(ctx.parent_span_id)));
    }
  }

  // Parse once: the AST classifies the statement and is then handed
  // to the engine for execution (ExecuteParsed).
  sql::Statement stmt;
  {
    trace::ScopedSpan span(trace, stmt_span.id(), "parse");
    auto parsed = sql::ParseStatement(sql);
    if (!parsed.ok()) return parsed.status();
    stmt = std::move(parsed).value();
  }
  *explain = stmt.Is<sql::SelectStmt>() &&
             stmt.As<sql::SelectStmt>().explain_analyze;

  // §7 "Multiple Samples" mode rebuilds the union scratch sample
  // lazily inside SELECT, so reads stop being read-only.
  bool treat_as_read = ClassifyStatement(stmt) == StatementClass::kRead &&
                       !db_.union_samples();

  if (treat_as_read) {
    *is_read = true;
    reads_->Inc();
    std::string canonical;
    {
      trace::ScopedSpan span(trace, stmt_span.id(), "canonicalize");
      if (auto canon = CanonicalizeSql(sql); canon.ok()) {
        canonical = std::move(*canon);
      }
    }
    ReaderLock read_lock(catalog_mu_, std::defer_lock);
    {
      trace::ScopedSpan span(trace, stmt_span.id(), "lock_wait");
      read_lock.Lock();
    }
    // Stamped lookup under the shared lock: the stamp pins which
    // catalog version and weight epoch the entry must have been
    // computed under. EXPLAIN ANALYZE never consults the cache — its
    // answer is this execution's timings (StampFor also reports it
    // uncacheable).
    core::Database::CacheStamp stamp;
    if (!canonical.empty() && !*explain) {
      trace::ScopedSpan span(trace, stmt_span.id(), "cache_lookup");
      stamp = db_.StampFor(stmt);
      if (stamp.cacheable) {
        if (auto cached = result_cache_.Get(ComposeCacheKey(canonical,
                                                            stamp))) {
          span.Note("hit");
          *cache_hit = 1;
          trace::NoteCacheHit(trace, true);
          return Table(**cached);
        }
        span.Note("miss");
        *cache_hit = 0;
        trace::NoteCacheHit(trace, false);
      }
    }
    Result<Table> result = [&]() -> Result<Table> {
      trace::ScopedSpan span(trace, stmt_span.id(), "execute");
      return db_.ExecuteParsed(&stmt, trace, span.id());
    }();
    if (!result.ok()) return result;
    if (stamp.cacheable) {
      trace::ScopedSpan span(trace, stmt_span.id(), "cache_store");
      // Keyed under the lookup stamp, never a re-read one: an entry
      // can only be hit by statements that stamped the same (catalog
      // version, epoch), i.e. that raced the same publications this
      // execution did, and for those the pinned answer is a
      // linearizable outcome. Re-stamping after execution could
      // attribute the answer to an epoch published concurrently by an
      // unrelated refit, serving it to strictly-later statements that
      // would compute something else. The one cost: a SEMI-OPEN
      // statement caches under its pre-refit epoch, so its first
      // re-run at the post-refit epoch misses — but that re-run's
      // refit no-op-skips (fit signatures, core/database.cc) and its
      // Put then lands on the settled epoch, where every further
      // repeat hits.
      result_cache_.Put(ComposeCacheKey(canonical, stamp),
                        std::make_shared<const Table>(result.value()));
    }
    return result;
  }

  writes_->Inc();
  WriterLock write_lock(catalog_mu_, std::defer_lock);
  {
    trace::ScopedSpan span(trace, stmt_span.id(), "lock_wait");
    write_lock.Lock();
  }
  Result<Table> result = [&]() -> Result<Table> {
    trace::ScopedSpan span(trace, stmt_span.id(), "execute");
    return db_.ExecuteParsed(&stmt, trace, span.id());
  }();
  // No cache flush: the write bumped the catalog version (or
  // published a weight epoch), so every entry it could have staled is
  // now unreachable by key. Unrelated entries keep their hits.
  return result;
}

void QueryService::InvalidateCaches() {
  result_cache_.Clear();
  db_.InvalidateModelCache();
}

Status QueryService::TriggerSnapshot() {
  if (storage_engine_ == nullptr) {
    return Status::InvalidArgument("service has no data dir");
  }
  if (!durability_status_.ok()) return durability_status_;
  durable::StorageEngine::PendingSnapshot pending;
  {
    // Writers excluded: the captured image is a statement boundary.
    WriterLock lock(catalog_mu_);
    auto begun = CaptureSnapshotLocked();
    if (!begun.ok()) return begun.status();
    pending = std::move(*begun);
  }
  return storage_engine_->CommitSnapshot(std::move(pending));
}

Result<durable::StorageEngine::PendingSnapshot>
QueryService::CaptureSnapshotLocked() {
  return storage_engine_->BeginSnapshot(&db_);
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.queries_total = queries_total_->Value();
  s.queries_failed = queries_failed_->Value();
  s.reads = reads_->Value();
  s.writes = writes_->Value();
  s.sessions_opened = sessions_opened_->Value();
  s.sessions_closed = sessions_closed_->Value();
  s.result_cache = result_cache_.Stats();
  s.model_cache = db_.ModelCacheStats();
  core::Database::WeightCounters w = db_.WeightCountersSnapshot();
  s.weight_epochs_published = w.epochs_published;
  s.weight_refits_total = w.refits_total;
  s.weight_refits_skipped = w.refits_skipped;
  s.weight_refits_incremental = w.refits_incremental;
  return s;
}

void QueryService::Shutdown() {
  // Request tasks may block on generation futures, so the request
  // pool drains first while generation is still serving it.
  request_pool_.Shutdown();
  if (generation_pool_ != nullptr) generation_pool_->Shutdown();
}

}  // namespace service
}  // namespace mosaic
