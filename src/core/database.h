// The Mosaic database facade: parses and executes Mosaic SQL end to
// end. It owns the catalog, DDL/DML, the system tables, cache stamps
// and the durability hooks, and routes population queries by the
// visibility levels of §3.3/§4:
//
//   CLOSED    — answer directly over the sample (the LAV-view path);
//               no reweighting, no generated tuples. Answered here.
//   SEMI-OPEN — reweight the sample to the metadata and answer over
//               the weighted tuples (core/semi_open.h).
//   OPEN      — generate the missing tuples with the M-SWG (§5) and
//               answer over the weighted generated population
//               (core/open_world.h).
#ifndef MOSAIC_CORE_DATABASE_H_
#define MOSAIC_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/trace.h"
#include "core/catalog.h"
#include "core/open_world.h"
#include "core/semi_open.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace mosaic {
namespace core {

class DurabilitySink;  // core/durability.h

class Database {
 public:
  Database();

  /// Parse and execute one statement. SELECTs return their result
  /// table; DDL/DML return an empty table.
  [[nodiscard]] Result<Table> Execute(const std::string& sql);

  /// Execute an already-parsed statement (the service layer parses
  /// once for classification and reuses the AST here). May consume
  /// parts of `*stmt`; single use only.
  ///
  /// `trace` (optional) collects execution spans under `trace_parent`
  /// — the engine records weight-pin / reweight / train / generate
  /// phases and the executor its filter/aggregate/sort phases.
  /// Tracing never changes results. EXPLAIN ANALYZE statements
  /// executed with a null trace allocate their own and return the
  /// span table; with a caller trace they return the query's rows and
  /// leave rendering to the caller (the service, which owns the
  /// enclosing parse/cache spans).
  [[nodiscard]] Result<Table> ExecuteParsed(sql::Statement* stmt,
                              trace::QueryTrace* trace = nullptr,
                              uint32_t trace_parent = 0);

  /// Execute a ';'-separated script, discarding intermediate results;
  /// returns the result of the last statement.
  [[nodiscard]] Result<Table> ExecuteScript(const std::string& sql);

  // ---- Programmatic API (what the SQL surface is sugar for) -----------

  /// Register an auxiliary table.
  [[nodiscard]] Status CreateTable(const std::string& name, Table table);

  /// Append rows (matching the sample schema) to a sample relation;
  /// new tuples get weight 1.
  [[nodiscard]] Status IngestSample(const std::string& sample, const Table& rows);

  /// Attach a marginal to a population as named metadata.
  [[nodiscard]] Status RegisterMarginal(const std::string& population,
                          const std::string& metadata_name,
                          stats::Marginal marginal);

  /// Refit SEMI-OPEN weights for `population`'s chosen sample
  /// (SemiOpen::ReweightAndPin). Returns the IPF report, or a synthetic
  /// one for known mechanisms.
  [[nodiscard]] Result<stats::IpfReport> ReweightForPopulation(
      const std::string& population);

  /// Cache stamp for an already-parsed statement: the catalog
  /// version plus (for statements that read a sample's weights or
  /// data) the sample's current weight epoch. Two executions with
  /// equal canonical SQL and equal stamps return identical results,
  /// so a cached answer stays good exactly while its stamp does and
  /// the service never has to flush wholesale. `cacheable` is false
  /// when the answer cannot be attributed to a (catalog version,
  /// epoch) pair — e.g. §7 union-samples mode.
  struct CacheStamp {
    bool cacheable = false;
    uint64_t catalog_version = 0;
    uint64_t weight_epoch = 0;

    bool operator==(const CacheStamp& o) const {
      return cacheable == o.cacheable &&
             catalog_version == o.catalog_version &&
             weight_epoch == o.weight_epoch;
    }
  };
  /// What StampFor reads of a statement, kept so a cache hit re-stamps
  /// without a parse. kNone: not a read, EXPLAIN ANALYZE, SHOW METRICS.
  struct CacheSubject {
    enum class Kind { kNone, kShow, kSelect };
    Kind kind = Kind::kNone;
    std::string from;  ///< the SELECT's relation, case-folded
    sql::Visibility visibility = sql::Visibility::kDefault;
  };
  static CacheSubject SubjectOf(const sql::Statement& stmt);
  CacheStamp StampFor(const CacheSubject& subject);
  CacheStamp StampFor(const sql::Statement& stmt) {
    return StampFor(SubjectOf(stmt));
  }

  /// Monotonic version of catalog structure + relation data (DDL,
  /// ingest, metadata, aux-table DML). Weight publications do NOT
  /// bump it — they are tracked per sample by weight epochs.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_relaxed);
  }

  /// Monotonic version of the registered marginal metadata (part of
  /// fit signatures). Exposed so a durability layer can record it
  /// with every mutation and restore it exactly on recovery.
  uint64_t metadata_version() const {
    return metadata_version_.load(std::memory_order_relaxed);
  }

  // ---- Durability hooks (storage/durable) -----------------------------

  /// Attach a sink that is handed every committed mutation (DDL,
  /// ingest, weight publication) for write-ahead logging. Null
  /// detaches. Must be set before concurrent use begins.
  void set_durability_sink(DurabilitySink* sink) { durability_ = sink; }
  DurabilitySink* durability_sink() const { return durability_; }

  /// Recovery-only: force the version counters to exactly the values
  /// a replayed WAL record carried. Exact (not monotonic) so fit
  /// signatures computed after restart match their pre-crash
  /// counterparts and refits no-op.
  void RestoreVersions(uint64_t catalog_version, uint64_t metadata_version) {
    catalog_version_.store(catalog_version, std::memory_order_relaxed);
    metadata_version_.store(metadata_version, std::memory_order_relaxed);
  }

  /// Recovery-only: install a recovered weight epoch (id + fit
  /// provenance intact) on the named sample. Never runs a fit.
  [[nodiscard]] Status RestoreSampleEpoch(const std::string& sample, WeightEpoch epoch);

  using WeightCounters = SemiOpen::WeightCounters;
  WeightCounters WeightCountersSnapshot() const {
    return semi_open_.Counters();
  }

  /// One weighted open-world table of the population
  /// (OpenWorld::GenerateTable).
  [[nodiscard]] Result<Table> GenerateOpenWorldTable(const std::string& population,
                                       size_t rows, uint64_t seed);

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // ---- System tables (introspection) ----------------------------------

  /// Provider materializing one `system.<name>` introspection table
  /// as a point-in-time snapshot. Must be thread-safe: SELECTs over
  /// system tables run under the service's *shared* lock from many
  /// request threads at once.
  using SystemTableProvider = std::function<Result<Table>()>;

  /// Install (or replace) the provider behind `system.<name>`
  /// (lower-case name without the "system." prefix). The database
  /// pre-registers all five tables — queries/metrics backed by the
  /// live query log and metrics registry, sessions/connections/
  /// snapshots as empty schema stubs that the service and network
  /// layers override at startup. Not thread-safe against in-flight
  /// queries; call during setup.
  void RegisterSystemTable(const std::string& name,
                           SystemTableProvider provider);

  /// True for names in the reserved "system." schema (any case).
  /// These resolve before the catalog, are never cacheable, and are
  /// rejected as DDL/DML targets by nature of not being catalog
  /// relations.
  static bool IsSystemRelation(const std::string& name);

  // ---- OPEN serving: forwarded to core::OpenWorld (core/open_world.h) --

  OpenOptions* mutable_open_options() { return open_world_.mutable_options(); }
  void InvalidateModelCache() { open_world_.InvalidateModelCache(); }
  void set_model_cache_capacity(size_t capacity) {
    open_world_.set_model_cache_capacity(capacity);
  }
  CacheStats ModelCacheStats() const { return open_world_.ModelCacheStats(); }
  void set_generation_pool(ThreadPool* pool) {
    open_world_.set_generation_pool(pool);
  }

  /// §7 "Multiple Samples": when enabled, population queries run over
  /// the UNION of all same-schema samples of the GP instead of the
  /// single largest one ("One solution is to union together all
  /// related samples and let IPF or the neural network reweight the
  /// tuples accordingly"). The unioned relation has no single
  /// mechanism, so reweighting always goes through IPF.
  void set_union_samples(bool enabled) {
    union_samples_ = enabled;
    // Changes how population queries are answered; stamp-keyed cached
    // results must not survive the flip.
    BumpCatalogVersion();
  }
  bool union_samples() const { return union_samples_; }

 private:
  [[nodiscard]] Result<Table> ExecuteStatement(sql::Statement* stmt,
                                 trace::QueryTrace* trace = nullptr,
                                 uint32_t trace_parent = 0);
  [[nodiscard]] Result<Table> ExecuteSelect(const sql::SelectStmt& stmt,
                              trace::QueryTrace* trace = nullptr,
                              uint32_t trace_parent = 0);
  [[nodiscard]] Result<Table> ExecutePopulationQuery(const sql::SelectStmt& stmt,
                                       PopulationInfo* population,
                                       trace::QueryTrace* trace = nullptr,
                                       uint32_t trace_parent = 0);
  [[nodiscard]] Status ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  [[nodiscard]] Status ExecuteCreatePopulation(sql::CreatePopulationStmt* stmt);
  [[nodiscard]] Status ExecuteCreateSample(sql::CreateSampleStmt* stmt);
  [[nodiscard]] Status ExecuteCreateMetadata(sql::CreateMetadataStmt* stmt);
  [[nodiscard]] Status ExecuteInsert(const sql::InsertStmt& stmt);
  [[nodiscard]] Status ExecuteCopy(const sql::CopyStmt& stmt);
  [[nodiscard]] Status ExecuteDrop(const sql::DropStmt& stmt);
  [[nodiscard]] Status ExecuteUpdate(const sql::UpdateStmt& stmt);
  [[nodiscard]] Result<Table> ExecuteShow(const sql::ShowStmt& stmt);

  /// Snapshot the named system table (name already lower-cased,
  /// including the "system." prefix) and run `stmt` over it through
  /// the configured exec path.
  [[nodiscard]] Result<Table> ExecuteSystemSelect(const sql::SelectStmt& stmt,
                                    trace::QueryTrace* trace,
                                    uint32_t trace_parent);

  /// The "single, optimal sample" of §4's assumption 2: the sample of
  /// the population's GP with the most rows.
  [[nodiscard]] Result<SampleInfo*> ChooseSample(const PopulationInfo& population);

  /// Where a weight publication on `sample` is logged: the
  /// durability sink, except for the union-mode scratch relation,
  /// which is derived state rebuilt from the real samples on demand.
  DurabilitySink* WeightLog(const SampleInfo* sample) const {
    return sample == &union_scratch_ ? nullptr : durability_;
  }

  /// The tail every sample append shares (IngestSample, INSERT):
  /// after rows from `rows_before` on landed — all of them, or those
  /// before a failed one (`appended` not OK) — bump the catalog
  /// version, drop cached models, publish the extended weight epoch
  /// from `prev`, and log the landed rows with that epoch. Returns
  /// the first failure of append, extension and log, in that order.
  [[nodiscard]] Status FinishSampleAppend(SampleInfo* sample,
                                          const WeightEpochPtr& prev,
                                          size_t rows_before,
                                          Status appended);

  /// The same tail for an auxiliary table (INSERT, COPY): bump the
  /// catalog version and log the landed rows under `name`.
  [[nodiscard]] Status FinishTableAppend(const std::string& name,
                                         const Table& table,
                                         size_t rows_before,
                                         Status appended);

  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpMetadataVersion() {
    metadata_version_.fetch_add(1, std::memory_order_relaxed);
  }

  Catalog catalog_;
  /// Starts at 1 so a 0-valued stamp can never match a live catalog.
  std::atomic<uint64_t> catalog_version_{1};
  /// Bumped on metadata (marginal) registration/removal; part of fit
  /// signatures so a refit never reuses weights fitted to dropped or
  /// replaced marginals.
  std::atomic<uint64_t> metadata_version_{1};
  OpenWorld open_world_{&catalog_};
  SemiOpen semi_open_{&catalog_, &metadata_version_};
  bool union_samples_ = false;
  /// Write-ahead-logging hook; null when running without durability.
  DurabilitySink* durability_ = nullptr;
  /// Providers behind the `system.*` schema, keyed by bare table name
  /// ("queries"). The mutex only guards the map — providers run
  /// outside it.
  mutable Mutex system_mu_;
  std::map<std::string, SystemTableProvider> system_tables_
      GUARDED_BY(system_mu_);
  /// Scratch relation materializing the union of samples; rebuilt
  /// lazily when the underlying samples change size.
  SampleInfo union_scratch_;
  std::string union_scratch_key_;
};

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_DATABASE_H_
