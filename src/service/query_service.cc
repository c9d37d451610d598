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
#include "sql/lexer.h"
#include "sql/parser.h"

namespace mosaic {
namespace service {

namespace {

/// The caller's own copy of an answer that may be shared with the
/// result cache.
[[nodiscard]] Result<Table> CopyOut(
    Result<std::shared_ptr<const Table>> shared) {
  if (!shared.ok()) return shared.status();
  return Table(**shared);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Result<Table> Session::Execute(const std::string& sql) {
  return Execute(sql, RequestContext());
}

Result<Table> Session::Execute(const std::string& sql,
                               const RequestContext& ctx) {
  PendingStatement st(sql, ctx);
  return CopyOut(service_->Run(&st, state_.get()));
}

std::future<Result<Table>> Session::Submit(const std::string& sql) {
  QueryService* service = service_;
  auto state = state_;
  return service->request_pool_.Submit(
      [service, state, st = PendingStatement(sql)]() mutable {
        return CopyOut(service->Run(&st, state.get()));
      });
}

std::shared_ptr<const Table> Session::TryServeCached(
    PendingStatement* statement) {
  return service_->TryServeCached(statement, state_.get());
}

void Session::SubmitAsync(
    PendingStatement statement,
    std::function<void(Result<std::shared_ptr<const Table>>)> done) {
  QueryService* service = service_;
  auto state = state_;
  service->request_pool_.Submit(
      [service, state, st = std::move(statement),
       done = std::move(done)]() mutable {
        done(service->Run(&st, state.get()));
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
      // Named locals, not casts inside the braced list: GCC 12 reports
      // that list's Value temporaries as maybe-uninitialized strings.
      const auto id = static_cast<int64_t>(state->id);
      const auto submitted = static_cast<int64_t>(
          state->submitted.load(std::memory_order_relaxed));
      MOSAIC_RETURN_IF_ERROR(out.AppendRow({Value(id), Value(submitted)}));
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
  PendingStatement st(sql);
  return CopyOut(Run(&st, nullptr));
}

std::future<Result<Table>> QueryService::Submit(const std::string& sql) {
  return request_pool_.Submit([this, st = PendingStatement(sql)]() mutable {
    return CopyOut(Run(&st, nullptr));
  });
}

std::vector<std::future<Result<Table>>> QueryService::SubmitBatch(
    const std::vector<std::string>& sqls) {
  std::vector<std::future<Result<Table>>> futures;
  futures.reserve(sqls.size());
  for (const auto& sql : sqls) futures.push_back(Submit(sql));
  return futures;
}

namespace {

/// Whether `keyword` (upper case) is the first token of `sql`: a
/// pre-parse check, so a leading comment defeats it.
bool StartsWithKeyword(const std::string& sql, const char* keyword) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  for (; *keyword != '\0'; ++keyword, ++i) {
    if (i >= sql.size() ||
        std::toupper(static_cast<unsigned char>(sql[i])) != *keyword) {
      return false;
    }
  }
  return i >= sql.size() ||
         !(std::isalnum(static_cast<unsigned char>(sql[i])) || sql[i] == '_');
}

/// EXPLAIN as the first token, so the trace (and its parse span)
/// exists before parsing. When a leading comment hides it, the parser
/// still sets the flag and the trace is created after the fact
/// (losing only the parse span).
bool LooksLikeExplain(const std::string& sql) {
  return StartsWithKeyword(sql, "EXPLAIN");
}

/// The only statements worth probing without blocking. Anything else
/// (a 100-row INSERT, say) is not even parsed before the pool.
bool LooksLikeRead(const std::string& sql) {
  return StartsWithKeyword(sql, "SELECT") || StartsWithKeyword(sql, "SHOW");
}

}  // namespace

Result<std::shared_ptr<const Table>> QueryService::Run(
    PendingStatement* st, Session::State* session) {
  // A statement prepared and probed off the pool carries that time in.
  const Clock::time_point start = Clock::now() - st->elapsed_;
  // EXPLAIN ANALYZE statements get a trace even when tracing is off —
  // the trace IS their result. A sampled request context forces
  // tracing the same way (remote EXPLAIN ANALYZE, client --trace).
  // TryServeCached leaves all of these unprepared, so their span trees
  // start here and stay whole.
  std::unique_ptr<trace::QueryTrace> trace;
  if (trace_enabled_ || st->ctx_.sampled || LooksLikeExplain(st->sql_)) {
    trace = std::make_unique<trace::QueryTrace>();
    trace->set_trace_id(st->ctx_.trace_id);
  }
  Result<std::shared_ptr<const Table>> result = RunInternal(st, trace.get());
  Record(*st, session, trace.get(), start, result.status());
  if (result.ok() && st->explain_ && trace != nullptr) {
    // All spans are closed by now (RunInternal returned), so the
    // rendered tree accounts for the full pipeline.
    return std::make_shared<const Table>(exec::TraceToTable(*trace));
  }
  return result;
}

std::shared_ptr<const Table> QueryService::TryServeCached(
    PendingStatement* st, Session::State* session) {
  if (trace_enabled_ || st->ctx_.sampled || !LooksLikeRead(st->sql_)) {
    return nullptr;
  }
  const Clock::time_point start = Clock::now();
  Lex(st, nullptr, trace::kNoParent);
  auto probe = [this, st]() -> std::shared_ptr<const Table> {
    if (st->cache_key_.empty()) return nullptr;
    // Never wait here: while a writer holds the lock the statement
    // goes to the pool, which waits there instead.
    ReaderLock lock(catalog_mu_, std::defer_lock);
    if (!lock.TryLock()) return nullptr;
    // A key's entry came from a statement that parses as this one
    // (sql_canonical.h). Without an entry or a cacheable stamp, the
    // pool parses, stamps and counts the lookup.
    auto entry = result_cache_.Peek(st->cache_key_);
    if (!entry) return nullptr;
    const core::Database::CacheStamp now = db_.StampFor(entry->subject);
    if (!now.cacheable) return nullptr;
    const bool fresh = now == entry->stamp;
    result_cache_.RecordLookup(fresh);
    st->cache_hit_ = fresh ? 1 : 0;
    st->is_read_ = fresh;
    return fresh ? std::move(entry->table) : nullptr;
  };
  std::shared_ptr<const Table> hit = probe();
  st->elapsed_ = Clock::now() - start;
  if (hit != nullptr) Record(*st, session, nullptr, start, Status::OK());
  return hit;
}

void QueryService::Record(const PendingStatement& st, Session::State* session,
                          trace::QueryTrace* trace, Clock::time_point start,
                          const Status& status) {
  const uint64_t elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
  latency_all_->Record(elapsed_us);
  (st.is_read_ ? latency_read_ : latency_write_)->Record(elapsed_us);
  queries_total_->Inc();
  // A statement that failed to parse is neither a read nor a write.
  if (st.status_.ok()) (st.is_read_ ? reads_ : writes_)->Inc();
  // Every error path (parse, classification, execution) lands here
  // exactly once (tests/test_service.cc pins this down).
  if (!status.ok()) queries_failed_->Inc();
  if (session != nullptr) {
    session->submitted.fetch_add(1, std::memory_order_relaxed);
  }

  // Every statement — traced or not, failed or not — leaves a record
  // in the bounded query log (`system.queries`). Untraced statements
  // record wall time and status only; traced ones add the span tree
  // and resource counters.
  const std::string status_name =
      status.ok() ? "OK" : StatusCodeName(status.code());
  {
    qlog::QueryRecord record;
    record.session_id = session != nullptr ? session->id : 0;
    record.trace_id = st.ctx_.trace_id;
    record.sql = st.sql_;
    record.status = status_name;
    record.cache_hit = st.cache_hit_;
    record.wall_us = elapsed_us;
    record.simd_isa = exec::simd::ActiveIsaName();
    if (trace != nullptr) {
      const trace::ResourceCounters& c = trace->counters();
      record.rows_scanned = c.rows_scanned.load(std::memory_order_relaxed);
      record.rows_produced = c.rows_produced.load(std::memory_order_relaxed);
      record.epoch_pins = c.epoch_pins.load(std::memory_order_relaxed);
      std::vector<trace::Span> spans = trace->Spans();
      record.spans.reserve(spans.size());
      for (const trace::Span& s : spans) {
        record.spans.push_back({s.id, s.parent, s.name, s.start_us,
                                s.duration_us(), s.cpu_ns, s.note});
        // The root "statement" span's thread-CPU time is the
        // statement's own CPU cost (children nest inside it; OPEN
        // generation work on other threads is not included).
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
                  {{"sql", st.sql_},
                   {"elapsed_ms", std::to_string(elapsed_us / 1000)},
                   {"status", status_name},
                   {"spans", trace->ToString()}},
                  st.ctx_.trace_id);
    } else {
      MOSAIC_LOG(Warning) << "slow query (" << elapsed_us / 1000 << " ms): "
                          << st.sql_ << "\n"
                          << trace->ToString();
    }
  }
}

void QueryService::Lex(PendingStatement* st, trace::QueryTrace* trace,
                       uint32_t parent) {
  st->stage_ = PendingStatement::Stage::kLexed;
  trace::ScopedSpan span(trace, parent, "lex");
  auto tokens = sql::Lex(st->sql_);
  if (!tokens.ok()) {
    st->status_ = tokens.status();
    return;
  }
  st->tokens_ = std::move(tokens).value();
  // The parser decides what is a read; this spares INSERTs the key.
  const sql::Token& first = st->tokens_.front();
  if (!first.IsKeyword("SELECT") && !first.IsKeyword("SHOW")) return;
  if (auto canon = CanonicalizeTokens(st->tokens_); canon.ok()) {
    st->cache_key_ = std::move(*canon);
  }
}

void QueryService::Prepare(PendingStatement* st, trace::QueryTrace* trace,
                           uint32_t parent) {
  st->stage_ = PendingStatement::Stage::kPrepared;
  // Parse once: the AST classifies the statement and is then handed
  // to the engine for execution (ExecuteParsed).
  {
    trace::ScopedSpan span(trace, parent, "parse");
    auto parsed = sql::ParseTokens(std::move(st->tokens_));
    if (!parsed.ok()) {
      st->status_ = parsed.status();
      return;
    }
    st->stmt_ = std::move(parsed).value();
  }
  st->explain_ = st->stmt_->Is<sql::SelectStmt>() &&
                 st->stmt_->As<sql::SelectStmt>().explain_analyze;
  // §7 "Multiple Samples" mode rebuilds the union scratch sample
  // lazily inside SELECT, so reads stop being read-only.
  st->is_read_ = ClassifyStatement(*st->stmt_) == StatementClass::kRead &&
                 !db_.union_samples();
}

std::shared_ptr<const Table> QueryService::Probe(PendingStatement* st,
                                                 trace::QueryTrace* trace,
                                                 uint32_t parent) {
  // EXPLAIN ANALYZE never consults the cache — its answer is this
  // execution's timings (StampFor also reports it uncacheable).
  if (st->cache_key_.empty() || st->explain_) return nullptr;
  // Stamped under the shared lock, for the lookup and the store; a
  // lookup TryServeCached already counted (a stale entry) is not redone.
  trace::ScopedSpan span(trace, parent, "cache_lookup");
  st->stamp_ = db_.StampFor(*st->stmt_);
  if (!st->stamp_.cacheable || st->cache_hit_ >= 0) return nullptr;
  auto entry = result_cache_.Peek(st->cache_key_);
  const bool hit = entry && entry->stamp == st->stamp_;
  result_cache_.RecordLookup(hit);
  st->cache_hit_ = hit ? 1 : 0;
  span.Note(hit ? "hit" : "miss");
  trace::NoteCacheHit(trace, hit);
  return hit ? std::move(entry->table) : nullptr;
}

Result<std::shared_ptr<const Table>> QueryService::RunInternal(
    PendingStatement* st, trace::QueryTrace* trace) {
  trace::ScopedSpan stmt_span(trace, trace::kNoParent, "statement");
  // Surface the caller's trace context on the statement span so a
  // remote EXPLAIN ANALYZE (or span collector) can stitch the
  // cross-process edge: the client sees its own trace_id come back.
  const RequestContext& ctx = st->ctx_;
  if (trace != nullptr && ctx.trace_id != 0) {
    stmt_span.Note(StrFormat("trace_id=%016llx",
                             static_cast<unsigned long long>(ctx.trace_id)));
    if (ctx.parent_span_id != 0) {
      stmt_span.Note(StrFormat(
          "parent_span=%llu",
          static_cast<unsigned long long>(ctx.parent_span_id)));
    }
  }
  if (st->stage_ == PendingStatement::Stage::kNew) {
    Lex(st, trace, stmt_span.id());
  }
  if (st->stage_ == PendingStatement::Stage::kLexed && st->status_.ok()) {
    Prepare(st, trace, stmt_span.id());
  }
  if (!st->status_.ok()) return st->status_;

  if (st->is_read_) {
    ReaderLock read_lock(catalog_mu_, std::defer_lock);
    {
      trace::ScopedSpan span(trace, stmt_span.id(), "lock_wait");
      read_lock.Lock();
    }
    if (auto hit = Probe(st, trace, stmt_span.id())) return hit;
    Result<Table> result = [&]() -> Result<Table> {
      trace::ScopedSpan span(trace, stmt_span.id(), "execute");
      return db_.ExecuteParsed(&*st->stmt_, trace, span.id());
    }();
    if (!result.ok()) return result.status();
    auto table = std::make_shared<const Table>(std::move(result).value());
    if (st->stamp_.cacheable) {
      trace::ScopedSpan span(trace, stmt_span.id(), "cache_store");
      // Stored under the probe's stamp, taken before execution in this
      // hold of the lock: it is only served to statements that stamp
      // the same (catalog version, epoch), i.e. that raced the same
      // publications this execution did, and for those the pinned
      // answer is linearizable. Re-stamping after execution could pin
      // it to an epoch an unrelated refit published meanwhile. The one
      // cost: a SEMI-OPEN statement caches under its pre-refit epoch,
      // so its first re-run misses; that re-run's refit no-op-skips
      // (fit signatures, core/semi_open.cc) and its answer replaces
      // the entry at the settled epoch, where every further repeat
      // hits.
      result_cache_.Put(st->cache_key_,
                        {st->stamp_, core::Database::SubjectOf(*st->stmt_),
                         table});
    }
    return table;
  }

  WriterLock write_lock(catalog_mu_, std::defer_lock);
  {
    trace::ScopedSpan span(trace, stmt_span.id(), "lock_wait");
    write_lock.Lock();
  }
  trace::ScopedSpan span(trace, stmt_span.id(), "execute");
  // No cache flush: the write bumped the catalog version (or
  // published a weight epoch), so every entry it could have staled is
  // now unreachable by key. Unrelated entries keep their hits.
  MOSAIC_ASSIGN_OR_RETURN(Table out,
                          db_.ExecuteParsed(&*st->stmt_, trace, span.id()));
  return std::make_shared<const Table>(std::move(out));
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
