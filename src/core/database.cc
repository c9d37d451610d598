#include "core/database.h"

#include <numeric>

#include "common/query_log.h"
#include "common/string_util.h"
#include "core/durability.h"
#include "core/system_tables.h"
#include "exec/batch_eval.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "exec/trace_table.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "storage/table_view.h"

namespace mosaic {
namespace core {

namespace {

/// Rows [begin, num_rows) of `table` as an owning table — the suffix
/// a durability sink logs after an append.
Table TailRows(const Table& table, size_t begin) {
  std::vector<size_t> rows(table.num_rows() - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return table.Filter(rows);
}

/// The schema of a column list (CREATE TABLE / GLOBAL POPULATION /
/// SAMPLE).
[[nodiscard]] Result<Schema> SchemaOf(const std::vector<ColumnDef>& columns) {
  Schema schema;
  for (const auto& def : columns) {
    MOSAIC_RETURN_IF_ERROR(schema.AddColumn(def));
  }
  return schema;
}

/// The schema a defining SELECT over `source` projects: all of it for
/// `*`, else the named columns in order. `kind` names the relation
/// being defined in the error for anything but a bare column.
[[nodiscard]] Result<Schema> ProjectedSchema(const sql::SelectStmt& sel,
                                             const Schema& source,
                                             const std::string& kind) {
  if (sel.select_star) return source;
  std::vector<size_t> indices;
  for (const auto& item : sel.items) {
    if (item.expr->kind != sql::Expr::Kind::kColumnRef) {
      return Status::InvalidArgument(
          kind + " definitions may only project columns");
    }
    MOSAIC_ASSIGN_OR_RETURN(size_t idx, source.ColumnIndex(item.expr->column));
    indices.push_back(idx);
  }
  return source.Project(indices);
}

}  // namespace

Database::Database() {
  // The six system tables always resolve: queries and metrics read
  // the live process-wide stores, weight_epochs this catalog's
  // samples; sessions/connections/snapshots are empty schema stubs
  // until the service/network layers override them with real
  // providers at startup.
  RegisterSystemTable(
      "queries", [] { return BuildQueriesTable(qlog::QueryLog::Global()); });
  RegisterSystemTable("metrics", [] { return BuildMetricsTable(); });
  // Runs inside a SELECT, under the service's shared catalog lock:
  // the sample set cannot change, and each epoch Pin() is thread-safe.
  RegisterSystemTable("weight_epochs",
                      [this] { return BuildWeightEpochsTable(&catalog_); });
  RegisterSystemTable("sessions", [] { return EmptySessionsTable(); });
  RegisterSystemTable("connections", [] { return EmptyConnectionsTable(); });
  RegisterSystemTable("snapshots", [] { return EmptySnapshotsTable(); });
}

void Database::RegisterSystemTable(const std::string& name,
                                   SystemTableProvider provider) {
  MutexLock lock(system_mu_);
  system_tables_[ToLower(name)] = std::move(provider);
}

bool Database::IsSystemRelation(const std::string& name) {
  static constexpr char kPrefix[] = "system.";
  return name.size() > sizeof(kPrefix) - 1 &&
         EqualsIgnoreCase(std::string_view(name).substr(0, sizeof(kPrefix) - 1),
                          kPrefix);
}

Result<Table> Database::ExecuteSystemSelect(const sql::SelectStmt& stmt,
                                            trace::QueryTrace* trace,
                                            uint32_t trace_parent) {
  if (stmt.visibility != sql::Visibility::kDefault) {
    return Status::InvalidArgument(
        "visibility levels apply to population queries; '" + stmt.from +
        "' is a system table");
  }
  const std::string bare =
      ToLower(stmt.from).substr(sizeof("system.") - 1);
  SystemTableProvider provider;
  {
    MutexLock lock(system_mu_);
    auto it = system_tables_.find(bare);
    if (it != system_tables_.end()) provider = it->second;
  }
  if (!provider) {
    std::string names;
    {
      MutexLock lock(system_mu_);
      for (const auto& [name, p] : system_tables_) {
        if (!names.empty()) names += ", ";
        names += "system." + name;
      }
    }
    return Status::NotFound("no system table named '" + stmt.from +
                            "' (available: " + names + ")");
  }
  // Materialize the snapshot once, then run the ordinary executor
  // over it — the same pipeline and parity guarantees as any
  // auxiliary table.
  Table snapshot;
  {
    trace::ScopedSpan span(trace, trace_parent, "system_snapshot");
    MOSAIC_ASSIGN_OR_RETURN(snapshot, provider());
    if (trace != nullptr) {
      span.Note("table=" + bare +
                " rows=" + std::to_string(snapshot.num_rows()));
    }
  }
  return SelectOver(TableView(snapshot),
                    SelectionVector::All(snapshot.num_rows()), stmt,
                    /*weighted=*/false, trace, trace_parent);
}

Result<Table> Database::Execute(const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  // Through ExecuteParsed so a standalone EXPLAIN ANALYZE (no service
  // in front, e.g. the shell) still answers with its span table.
  return ExecuteParsed(&stmt);
}

Result<Table> Database::ExecuteParsed(sql::Statement* stmt,
                                      trace::QueryTrace* trace,
                                      uint32_t trace_parent) {
  const bool explain = stmt->Is<sql::SelectStmt>() &&
                       stmt->As<sql::SelectStmt>().explain_analyze;
  if (explain && trace == nullptr) {
    // Standalone EXPLAIN ANALYZE (no service in front): trace this
    // execution and answer with the span table instead of the rows.
    trace::QueryTrace local;
    {
      trace::ScopedSpan root(&local, trace::kNoParent, "execute");
      MOSAIC_RETURN_IF_ERROR(
          ExecuteStatement(stmt, &local, root.id()).status());
    }
    return exec::TraceToTable(local);
  }
  return ExecuteStatement(stmt, trace, trace_parent);
}

Result<Table> Database::ExecuteScript(const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(auto stmts, sql::ParseScript(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("empty script");
  }
  Table last;
  for (auto& stmt : stmts) {
    MOSAIC_ASSIGN_OR_RETURN(last, ExecuteParsed(&stmt));
  }
  return last;
}

Result<Table> Database::ExecuteStatement(sql::Statement* stmt,
                                         trace::QueryTrace* trace,
                                         uint32_t trace_parent) {
  if (stmt->Is<sql::SelectStmt>()) {
    return ExecuteSelect(stmt->As<sql::SelectStmt>(), trace, trace_parent);
  }
  // DDL and DML answer with an empty table.
  auto done = [](Status status) -> Result<Table> {
    MOSAIC_RETURN_IF_ERROR(status);
    return Table();
  };
  if (stmt->Is<sql::CreateTableStmt>()) {
    return done(ExecuteCreateTable(stmt->As<sql::CreateTableStmt>()));
  }
  if (stmt->Is<sql::CreatePopulationStmt>()) {
    return done(
        ExecuteCreatePopulation(&stmt->As<sql::CreatePopulationStmt>()));
  }
  if (stmt->Is<sql::CreateSampleStmt>()) {
    return done(ExecuteCreateSample(&stmt->As<sql::CreateSampleStmt>()));
  }
  if (stmt->Is<sql::CreateMetadataStmt>()) {
    return done(ExecuteCreateMetadata(&stmt->As<sql::CreateMetadataStmt>()));
  }
  if (stmt->Is<sql::InsertStmt>()) {
    return done(ExecuteInsert(stmt->As<sql::InsertStmt>()));
  }
  if (stmt->Is<sql::CopyStmt>()) {
    return done(ExecuteCopy(stmt->As<sql::CopyStmt>()));
  }
  if (stmt->Is<sql::DropStmt>()) {
    return done(ExecuteDrop(stmt->As<sql::DropStmt>()));
  }
  if (stmt->Is<sql::UpdateStmt>()) {
    return done(ExecuteUpdate(stmt->As<sql::UpdateStmt>()));
  }
  if (stmt->Is<sql::ShowStmt>()) {
    return ExecuteShow(stmt->As<sql::ShowStmt>());
  }
  return Status::NotImplemented("unsupported statement kind");
}

// ---------------------------------------------------------------------------
// SELECT routing
// ---------------------------------------------------------------------------

Result<Table> Database::ExecuteSelect(const sql::SelectStmt& stmt,
                                      trace::QueryTrace* trace,
                                      uint32_t trace_parent) {
  if (IsSystemRelation(stmt.from)) {
    // The "system." schema is reserved: it wins over (and hides) any
    // catalog relation that happens to carry a dotted name.
    return ExecuteSystemSelect(stmt, trace, trace_parent);
  }
  if (catalog_.HasTable(stmt.from)) {
    if (stmt.visibility != sql::Visibility::kDefault) {
      return Status::InvalidArgument(
          "visibility levels apply to population queries; '" + stmt.from +
          "' is an auxiliary table");
    }
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.from));
    return SelectOver(TableView(*table), SelectionVector::All(table->num_rows()),
                      stmt, /*weighted=*/false, trace, trace_parent);
  }
  if (catalog_.HasSample(stmt.from)) {
    // Direct sample access: plain SQL over the sample tuples. The
    // managed weights are visible as a 'weight' column so users can
    // inspect them (§3.2 lets users read and update weights).
    if (stmt.visibility != sql::Visibility::kDefault &&
        stmt.visibility != sql::Visibility::kClosed) {
      return Status::InvalidArgument(
          "SEMI-OPEN/OPEN apply to population queries; query the "
          "population instead of sample '" +
          stmt.from + "'");
    }
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.from));
    // Pin one weight epoch for the whole query: concurrent refits
    // publish new epochs without perturbing this reader.
    WeightEpochPtr epoch;
    {
      trace::ScopedSpan pin_span(trace, trace_parent, "weight_pin");
      epoch = sample->weights.Pin();
      trace::CountEpochPin(trace);
      if (trace != nullptr) {
        pin_span.Note("epoch=" + std::to_string(epoch->id));
      }
    }
    MOSAIC_ASSIGN_OR_RETURN(TableView view,
                            MakeWeightedView(sample->data, epoch->weights));
    return SelectOver(view, SelectionVector::All(view.num_rows()), stmt,
                      /*weighted=*/false, trace, trace_parent);
  }
  if (catalog_.HasPopulation(stmt.from)) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                            catalog_.GetPopulation(stmt.from));
    return ExecutePopulationQuery(stmt, pop, trace, trace_parent);
  }
  return Status::NotFound("no relation named '" + stmt.from + "'");
}

Result<SampleInfo*> Database::ChooseSample(const PopulationInfo& population) {
  // Samples are registered against the GP; a derived population's
  // samples are its parent's.
  const std::string& gp_name =
      population.global ? population.name : population.parent;
  auto samples = catalog_.SamplesOf(gp_name);
  if (samples.empty()) {
    return Status::NotFound("no sample available for population '" +
                            population.name + "'");
  }
  if (union_samples_ && samples.size() > 1) {
    // §7 "Multiple Samples": union all same-schema samples and let
    // the debiasing reweight the combined tuples. Rebuild the scratch
    // union only when the constituent samples changed. The rebuild
    // mutates engine state, which is why the service runs *every*
    // statement — SELECTs included — under the exclusive lock in
    // union mode (QueryService::Run checks union_samples()).
    std::string key = ToLower(gp_name);
    for (SampleInfo* s : samples) {
      key += "|" + ToLower(s->name) + ":" +
             std::to_string(s->data.num_rows());
    }
    if (key != union_scratch_key_) {
      SampleInfo merged;
      merged.name = "__union_of_" + gp_name;
      merged.population = gp_name;
      merged.schema = samples[0]->schema;
      merged.data = Table(merged.schema);
      for (SampleInfo* s : samples) {
        if (!(s->schema == merged.schema)) {
          return Status::NotImplemented(
              "union of samples requires identical schemas ('" + s->name +
              "' differs); see §7 'Data Integration'");
        }
        MOSAIC_RETURN_IF_ERROR(merged.data.Concat(s->data));
      }
      merged.weights.Reset(merged.data.num_rows());
      union_scratch_ = std::move(merged);
      union_scratch_key_ = key;
    }
    if (union_scratch_.data.num_rows() == 0) {
      return Status::ExecutionError("no ingested tuples in any sample");
    }
    return &union_scratch_;
  }
  // Assumption 2 of §4: a single, optimal sample. We pick the one
  // with the most tuples.
  SampleInfo* best = samples[0];
  for (SampleInfo* s : samples) {
    if (s->data.num_rows() > best->data.num_rows()) best = s;
  }
  if (best->data.num_rows() == 0) {
    return Status::ExecutionError("sample '" + best->name +
                                  "' has no ingested tuples");
  }
  return best;
}

Result<Table> Database::ExecutePopulationQuery(const sql::SelectStmt& stmt,
                                               PopulationInfo* population,
                                               trace::QueryTrace* trace,
                                               uint32_t trace_parent) {
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
  switch (stmt.visibility) {
    case sql::Visibility::kSemiOpen:
      return semi_open_.Answer(stmt, *population, sample, WeightLog(sample),
                               trace, trace_parent);
    case sql::Visibility::kOpen:
      return open_world_.Answer(stmt, *population, *sample, trace,
                                trace_parent);
    default: {
      // CLOSED, the default: LAV-view answering over the sample tuples
      // that belong to the population, with no debiasing, through a
      // zero-copy view restricted by a selection vector.
      TableView view(sample->data);
      MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                              PopulationSelection(view, *population));
      return SelectOver(view, std::move(sel), stmt, /*weighted=*/false, trace,
                        trace_parent);
    }
  }
}

Result<stats::IpfReport> Database::ReweightForPopulation(
    const std::string& population_name) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* population,
                          catalog_.GetPopulation(population_name));
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
  stats::IpfReport report;
  MOSAIC_RETURN_IF_ERROR(
      semi_open_
          .ReweightAndPin(*population, sample, WeightLog(sample), &report)
          .status());
  return report;
}

Status Database::RestoreSampleEpoch(const std::string& sample_name,
                                    WeightEpoch epoch) {
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                          catalog_.GetSample(sample_name));
  sample->weights.Restore(std::move(epoch));
  return Status::OK();
}

Result<Table> Database::GenerateOpenWorldTable(
    const std::string& population_name, size_t rows, uint64_t seed) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* population,
                          catalog_.GetPopulation(population_name));
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, ChooseSample(*population));
  return open_world_.GenerateTable(*population, *sample, rows, seed);
}

// ---------------------------------------------------------------------------
// DDL / DML
// ---------------------------------------------------------------------------

Status Database::ExecuteCreateTable(const sql::CreateTableStmt& stmt) {
  if (stmt.columns.empty()) {
    return Status::InvalidArgument("CREATE TABLE needs a column list");
  }
  MOSAIC_ASSIGN_OR_RETURN(Schema schema, SchemaOf(stmt.columns));
  return CreateTable(stmt.name, Table(std::move(schema)));
}

Status Database::CreateTable(const std::string& name, Table table) {
  MOSAIC_RETURN_IF_ERROR(catalog_.AddTable(name, std::move(table)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(Table* created, catalog_.GetTable(name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreateTable(name, *created));
  }
  return Status::OK();
}

Status Database::ExecuteCreatePopulation(sql::CreatePopulationStmt* stmt) {
  PopulationInfo info;
  info.name = stmt->name;
  info.global = stmt->global;
  if (stmt->global) {
    if (stmt->columns.empty() && stmt->as_select == nullptr) {
      return Status::InvalidArgument(
          "a global population needs a column list");
    }
    MOSAIC_ASSIGN_OR_RETURN(info.schema, SchemaOf(stmt->columns));
  } else {
    // Derived population: defined by a SELECT over the GP (§3.1 "the
    // population must be defined with a SELECT statement over a global
    // population").
    if (stmt->as_select == nullptr) {
      return Status::InvalidArgument(
          "non-global populations must be defined AS (SELECT ... FROM "
          "<global population> ...)");
    }
    sql::SelectStmt* sel = stmt->as_select.get();
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* parent,
                            catalog_.GetPopulation(sel->from));
    if (!parent->global) {
      return Status::InvalidArgument(
          "populations must be defined over the global population, and '" +
          sel->from + "' is not global");
    }
    info.parent = parent->name;
    MOSAIC_ASSIGN_OR_RETURN(info.schema,
                            ProjectedSchema(*sel, parent->schema, "population"));
    if (sel->where != nullptr) {
      info.predicate = sel->where->Clone();
    }
  }
  MOSAIC_RETURN_IF_ERROR(catalog_.AddPopulation(std::move(info)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* created,
                            catalog_.GetPopulation(stmt->name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreatePopulation(*created));
  }
  return Status::OK();
}

Status Database::ExecuteCreateSample(sql::CreateSampleStmt* stmt) {
  if (stmt->as_select == nullptr) {
    return Status::InvalidArgument(
        "CREATE SAMPLE needs AS (SELECT ... FROM <global population>)");
  }
  sql::SelectStmt* sel = stmt->as_select.get();
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                          catalog_.GetPopulation(sel->from));
  if (!pop->global) {
    return Status::InvalidArgument(
        "samples are defined over the global population (§3.1); '" +
        sel->from + "' is not global");
  }
  SampleInfo info;
  info.name = stmt->name;
  info.population = pop->name;
  if (!stmt->columns.empty()) {
    MOSAIC_ASSIGN_OR_RETURN(info.schema, SchemaOf(stmt->columns));
  } else {
    MOSAIC_ASSIGN_OR_RETURN(info.schema,
                            ProjectedSchema(*sel, pop->schema, "sample"));
  }
  info.data = Table(info.schema);
  if (sel->where != nullptr) {
    info.predicate = sel->where->Clone();
  }
  info.mechanism = stmt->mechanism;
  MOSAIC_RETURN_IF_ERROR(catalog_.AddSample(std::move(info)));
  BumpCatalogVersion();
  if (durability_ != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* created,
                            catalog_.GetSample(stmt->name));
    MOSAIC_RETURN_IF_ERROR(durability_->LogCreateSample(*created));
  }
  return Status::OK();
}

Status Database::ExecuteCreateMetadata(sql::CreateMetadataStmt* stmt) {
  if (stmt->population.empty()) {
    return Status::InvalidArgument(
        "cannot infer the population for metadata '" + stmt->name +
        "'; name it '<Population>_M<k>' or use CREATE METADATA ... FOR "
        "<population>");
  }
  if (!catalog_.HasPopulation(stmt->population)) {
    return Status::NotFound("metadata '" + stmt->name +
                            "' refers to unknown population '" +
                            stmt->population + "'");
  }
  if (stmt->as_select == nullptr) {
    return Status::InvalidArgument("CREATE METADATA needs AS (SELECT ...)");
  }
  // Evaluate the defining query against its auxiliary relation now;
  // metadata is materialized at creation time.
  sql::SelectStmt* sel = stmt->as_select.get();
  MOSAIC_ASSIGN_OR_RETURN(Table* aux, catalog_.GetTable(sel->from));
  MOSAIC_ASSIGN_OR_RETURN(Table result, exec::ExecuteSelect(*aux, *sel));
  MOSAIC_ASSIGN_OR_RETURN(auto marginal,
                          stats::Marginal::FromMetadataTable(result));
  return RegisterMarginal(stmt->population, stmt->name, std::move(marginal));
}

Status Database::RegisterMarginal(const std::string& population,
                                  const std::string& metadata_name,
                                  stats::Marginal marginal) {
  MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* pop,
                          catalog_.GetPopulation(population));
  for (const auto& existing : pop->metadata_names) {
    if (EqualsIgnoreCase(existing, metadata_name)) {
      return Status::AlreadyExists("metadata '" + metadata_name +
                                   "' already exists");
    }
  }
  pop->metadata_names.push_back(metadata_name);
  pop->marginals.push_back(std::move(marginal));
  BumpCatalogVersion();
  // Fit signatures embed the metadata version: weights fitted to the
  // old marginal set can no longer satisfy a no-op refit check.
  BumpMetadataVersion();
  InvalidateModelCache();
  if (durability_ != nullptr) {
    MOSAIC_RETURN_IF_ERROR(durability_->LogRegisterMarginal(
        pop->name, metadata_name, pop->marginals.back()));
  }
  return Status::OK();
}

Status Database::IngestSample(const std::string& sample_name,
                              const Table& rows) {
  MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                          catalog_.GetSample(sample_name));
  WeightEpochPtr prev = sample->weights.Pin();
  const size_t rows_before = sample->data.num_rows();
  // Map by column name so ingests tolerate column order changes.
  std::vector<size_t> src_col_of_dst(sample->schema.num_columns());
  Status ingest = Status::OK();
  for (size_t c = 0; c < src_col_of_dst.size(); ++c) {
    Result<size_t> src =
        rows.schema().ColumnIndex(sample->schema.column(c).name);
    if (!src.ok()) {
      ingest = src.status();
      break;
    }
    src_col_of_dst[c] = *src;
  }
  if (ingest.ok()) ingest = sample->data.AppendColumns(rows, src_col_of_dst);
  return FinishSampleAppend(sample, prev, rows_before, ingest);
}

Status Database::FinishSampleAppend(SampleInfo* sample,
                                    const WeightEpochPtr& prev,
                                    size_t rows_before, Status appended) {
  // A failed row still leaves the earlier rows appended, so the
  // version bump and the weight-epoch extension must run regardless —
  // otherwise stale stamped cache entries keep matching and the
  // current epoch stays shorter than the data, breaking every
  // subsequent read of the sample.
  BumpCatalogVersion();
  InvalidateModelCache();
  Status extend = semi_open_.ExtendWeightsAfterIngest(sample, prev);
  // One combined rows+epoch record: replay can never materialize the
  // new rows without the weight epoch that covers them. Logged even
  // after a failed row — whatever landed is committed state.
  if (durability_ != nullptr && sample->data.num_rows() > rows_before) {
    Status log = durability_->LogSampleIngest(
        sample->name, TailRows(sample->data, rows_before),
        *sample->weights.Pin());
    if (appended.ok() && extend.ok() && !log.ok()) return log;
  }
  return appended.ok() ? extend : appended;
}

Status Database::FinishTableAppend(const std::string& name,
                                   const Table& table, size_t rows_before,
                                   Status appended) {
  // Bump even when a later row failed: the earlier rows landed, and
  // stamped cache entries for this table are stale either way.
  BumpCatalogVersion();
  if (durability_ != nullptr && table.num_rows() > rows_before) {
    Status log =
        durability_->LogTableAppend(name, TailRows(table, rows_before));
    if (appended.ok() && !log.ok()) return log;
  }
  return appended;
}

Status Database::ExecuteInsert(const sql::InsertStmt& stmt) {
  auto append_rows = [&](Table* table) {
    for (const auto& row : stmt.rows) {
      MOSAIC_RETURN_IF_ERROR(table->AppendRow(row));
    }
    return Status::OK();
  };
  if (catalog_.HasTable(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
    const size_t rows_before = table->num_rows();
    Status insert = append_rows(table);
    return FinishTableAppend(stmt.table, *table, rows_before, insert);
  }
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    WeightEpochPtr prev = sample->weights.Pin();
    const size_t rows_before = sample->data.num_rows();
    Status insert = append_rows(&sample->data);
    return FinishSampleAppend(sample, prev, rows_before, insert);
  }
  return Status::NotFound("no table or sample named '" + stmt.table + "'");
}

Status Database::ExecuteCopy(const sql::CopyStmt& stmt) {
  if (catalog_.HasTable(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
    MOSAIC_ASSIGN_OR_RETURN(Table loaded,
                            ReadCsvFile(stmt.path, &table->schema()));
    // A failed Concat may have partially applied.
    const size_t rows_before = table->num_rows();
    Status concat = table->Concat(loaded);
    return FinishTableAppend(stmt.table, *table, rows_before, concat);
  }
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    MOSAIC_ASSIGN_OR_RETURN(Table loaded,
                            ReadCsvFile(stmt.path, &sample->schema));
    return IngestSample(stmt.table, loaded);
  }
  return Status::NotFound("no table or sample named '" + stmt.table + "'");
}

Status Database::ExecuteDrop(const sql::DropStmt& stmt) {
  Status status;
  switch (stmt.target) {
    case sql::DropStmt::Target::kTable:
      status = catalog_.DropTable(stmt.name);
      break;
    case sql::DropStmt::Target::kPopulation:
      status = catalog_.DropPopulation(stmt.name);
      break;
    case sql::DropStmt::Target::kSample:
      status = catalog_.DropSample(stmt.name);
      InvalidateModelCache();
      break;
    case sql::DropStmt::Target::kMetadata:
      status = catalog_.DropMetadata(stmt.name);
      if (status.ok()) BumpMetadataVersion();
      InvalidateModelCache();
      break;
  }
  if (status.ok()) {
    BumpCatalogVersion();
    if (durability_ != nullptr) {
      MOSAIC_RETURN_IF_ERROR(durability_->LogDrop(stmt.target, stmt.name));
    }
  }
  if (!status.ok() && stmt.if_exists &&
      status.code() == StatusCode::kNotFound) {
    return Status::OK();
  }
  return status;
}

Result<Table> Database::ExecuteShow(const sql::ShowStmt& stmt) {
  // Fixed schemas: their column names are distinct by construction.
  Table out;
  switch (stmt.what) {
    case sql::ShowStmt::What::kTables: {
      out = Table(Schema({{"table_name", DataType::kString}}));
      for (const auto& name : catalog_.TableNames()) {
        MOSAIC_RETURN_IF_ERROR(out.AppendRow({Value(name)}));
      }
      return out;
    }
    case sql::ShowStmt::What::kPopulations: {
      out = Table(Schema({{"population_name", DataType::kString},
                          {"global", DataType::kBool},
                          {"num_metadata", DataType::kInt64}}));
      for (const auto& name : catalog_.PopulationNames()) {
        MOSAIC_ASSIGN_OR_RETURN(PopulationInfo * pop,
                                catalog_.GetPopulation(name));
        MOSAIC_RETURN_IF_ERROR(out.AppendRow(
            {Value(pop->name), Value(pop->global),
             Value(static_cast<int64_t>(pop->marginals.size()))}));
      }
      return out;
    }
    case sql::ShowStmt::What::kSamples: {
      out = Table(Schema({{"sample_name", DataType::kString},
                          {"population", DataType::kString},
                          {"num_tuples", DataType::kInt64},
                          {"mechanism", DataType::kString}}));
      for (const auto& name : catalog_.SampleNames()) {
        MOSAIC_ASSIGN_OR_RETURN(SampleInfo * sample,
                                catalog_.GetSample(name));
        std::string mech = "unknown";
        if (sample->mechanism.type == sql::MechanismSpec::Type::kUniform) {
          mech = StrFormat("uniform %.3g%%", sample->mechanism.percent);
        } else if (sample->mechanism.type ==
                   sql::MechanismSpec::Type::kStratified) {
          mech = StrFormat("stratified on %s %.3g%%",
                           sample->mechanism.stratify_attr.c_str(),
                           sample->mechanism.percent);
        }
        MOSAIC_RETURN_IF_ERROR(out.AppendRow(
            {Value(sample->name), Value(sample->population),
             Value(static_cast<int64_t>(sample->data.num_rows())),
             Value(mech)}));
      }
      return out;
    }
    case sql::ShowStmt::What::kMetadata: {
      out = Table(Schema({{"metadata_name", DataType::kString},
                          {"population", DataType::kString},
                          {"attributes", DataType::kString},
                          {"total_count", DataType::kDouble}}));
      for (const auto& pop_name : catalog_.PopulationNames()) {
        MOSAIC_ASSIGN_OR_RETURN(PopulationInfo * pop,
                                catalog_.GetPopulation(pop_name));
        for (size_t i = 0; i < pop->marginals.size(); ++i) {
          MOSAIC_RETURN_IF_ERROR(out.AppendRow(
              {Value(pop->metadata_names[i]), Value(pop->name),
               Value(Join(pop->marginals[i].attribute_names(), ", ")),
               Value(pop->marginals[i].total())}));
        }
      }
      return out;
    }
    case sql::ShowStmt::What::kMetrics: {
      // Sugar over `SELECT * FROM system.metrics` — one shared
      // builder so the two surfaces can never drift. Deliberately
      // never result-cached — see StampFor.
      return BuildMetricsTable();
    }
  }
  return Status::Internal("unknown SHOW target");
}

Status Database::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  // UPDATE over a sample may target the managed weight column (§3.2:
  // "The user can update the initial sample weights via a similar
  // command"); everything else rewrites stored cells.
  if (catalog_.HasSample(stmt.table)) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample,
                            catalog_.GetSample(stmt.table));
    // Copy-on-write: evaluate all assignments against the pinned
    // epoch, apply them to a copy, and publish the copy as the next
    // epoch. A failing expression publishes nothing, and concurrent
    // readers keep the epoch they pinned.
    WeightEpochPtr prev = sample->weights.Pin();
    // Weighted zero-copy view over the pinned epoch; assignments are
    // evaluated as whole batches against the pre-update weights, then
    // written into the copy in row order.
    MOSAIC_ASSIGN_OR_RETURN(TableView view,
                            MakeWeightedView(sample->data, prev->weights));
    MOSAIC_ASSIGN_OR_RETURN(SelectionVector rows,
                            SelectWhere(view, stmt.where.get()));
    exec::Binder binder(&view.schema());
    std::vector<std::vector<double>> new_weights;
    for (const auto& [col_name, expr] : stmt.assignments) {
      if (!EqualsIgnoreCase(col_name, kWeightColumn)) {
        return Status::NotImplemented(
            "UPDATE on samples currently only supports SET weight = ...");
      }
      MOSAIC_ASSIGN_OR_RETURN(auto bound, binder.Bind(*expr));
      MOSAIC_ASSIGN_OR_RETURN(std::vector<double> values,
                              exec::EvalDoubleBatch(*bound, view, rows.slice()));
      new_weights.push_back(std::move(values));
    }
    std::vector<double> next = prev->weights;
    for (const auto& values : new_weights) {
      for (size_t i = 0; i < rows.size(); ++i) {
        if (values[i] < 0.0) {
          return Status::InvalidArgument("weights must be non-negative");
        }
        next[rows[i]] = values[i];
      }
    }
    return semi_open_
        .PublishWeights(sample, std::move(next), WeightFitInfo(), durability_)
        .status();
  }
  if (!catalog_.HasTable(stmt.table)) {
    return Status::NotFound("no table or sample named '" + stmt.table + "'");
  }
  MOSAIC_ASSIGN_OR_RETURN(Table* table, catalog_.GetTable(stmt.table));
  // All assignments bind before any is evaluated, so bind errors take
  // precedence; each then evaluates as one batch over the selected
  // rows against the pre-update table, so a failing expression leaves
  // the table untouched.
  const TableView view(*table);
  MOSAIC_ASSIGN_OR_RETURN(SelectionVector rows,
                          SelectWhere(view, stmt.where.get()));
  exec::Binder binder(&table->schema());
  std::vector<std::pair<size_t, exec::BoundExprPtr>> bound_assignments;
  for (const auto& [col_name, expr] : stmt.assignments) {
    MOSAIC_ASSIGN_OR_RETURN(size_t idx,
                            table->schema().ColumnIndex(col_name));
    MOSAIC_ASSIGN_OR_RETURN(auto bound, binder.Bind(*expr));
    bound_assignments.emplace_back(idx, std::move(bound));
  }
  std::vector<std::pair<size_t, exec::BatchVec>> assigned;
  for (const auto& [idx, bound] : bound_assignments) {
    MOSAIC_ASSIGN_OR_RETURN(exec::BatchVec values,
                            exec::EvalBatch(*bound, view, rows.slice()));
    assigned.emplace_back(idx, std::move(values));
  }
  // Columns are append-only; rebuild the table with updated cells.
  // The selection is ascending, so one cursor walks it in step.
  Table updated(table->schema());
  updated.Reserve(table->num_rows());
  size_t next = 0;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    std::vector<Value> row = table->GetRow(r);
    if (next < rows.size() && rows[next] == r) {
      for (const auto& [idx, values] : assigned) {
        row[idx] = values.ValueAt(next);
      }
      ++next;
    }
    MOSAIC_RETURN_IF_ERROR(updated.AppendRow(row));
  }
  *table = std::move(updated);
  BumpCatalogVersion();
  // Cell rewrites have no suffix representation; log the whole
  // rebuilt table as a replacement.
  if (durability_ != nullptr) {
    MOSAIC_RETURN_IF_ERROR(durability_->LogTableReplace(stmt.table, *table));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cache stamps
// ---------------------------------------------------------------------------

Database::CacheSubject Database::SubjectOf(const sql::Statement& stmt) {
  CacheSubject subject;
  if (stmt.Is<sql::ShowStmt>()) {
    // SHOW METRICS reads the live metrics registry, which moves on
    // every query — a cached answer would freeze the counters.
    if (stmt.As<sql::ShowStmt>().what != sql::ShowStmt::What::kMetrics) {
      subject.kind = CacheSubject::Kind::kShow;
    }
    return subject;
  }
  if (!stmt.Is<sql::SelectStmt>()) return subject;
  const auto& sel = stmt.As<sql::SelectStmt>();
  // EXPLAIN ANALYZE answers with this execution's span timings;
  // serving a previous execution's timings would defeat it.
  if (sel.explain_analyze) return subject;
  subject.kind = CacheSubject::Kind::kSelect;
  subject.from = ToLower(sel.from);  // catalog lookups fold case
  subject.visibility = sel.visibility;
  return subject;
}

Database::CacheStamp Database::StampFor(const CacheSubject& subject) {
  CacheStamp stamp;
  stamp.catalog_version = catalog_version();
  // §7 union mode rebuilds scratch state inside SELECT; results are
  // not attributable to a stable (version, epoch) pair.
  if (union_samples_ || subject.kind != CacheSubject::Kind::kSelect) {
    stamp.cacheable =
        !union_samples_ && subject.kind == CacheSubject::Kind::kShow;
    return stamp;
  }
  // System tables snapshot live mutable state (query log, registry,
  // sessions) that moves independently of any version counter.
  if (IsSystemRelation(subject.from)) return stamp;
  if (catalog_.HasTable(subject.from)) {
    stamp.cacheable = true;
    return stamp;
  }
  if (catalog_.HasSample(subject.from)) {
    // Direct sample reads expose the managed weight column: the
    // answer belongs to the sample's current epoch.
    auto sample = catalog_.GetSample(subject.from);
    if (!sample.ok()) return stamp;
    stamp.weight_epoch = (*sample)->weights.epoch();
    stamp.cacheable = true;
    return stamp;
  }
  if (catalog_.HasPopulation(subject.from)) {
    auto population = catalog_.GetPopulation(subject.from);
    if (!population.ok()) return stamp;
    if (subject.visibility == sql::Visibility::kSemiOpen) {
      // SEMI-OPEN answers over the weights its refit publishes; the
      // epoch tags cached entries so they go stale the moment the
      // weights move on. CLOSED and OPEN population answers never
      // read the sample weights, so their entries deliberately carry
      // no epoch — a refit does not invalidate them (the
      // over-invalidation this stamp scheme exists to stop).
      auto sample = ChooseSample(**population);
      if (!sample.ok()) return stamp;
      stamp.weight_epoch = (*sample)->weights.epoch();
    }
    stamp.cacheable = true;
    return stamp;
  }
  // Unknown relation: the query will fail; nothing worth caching.
  return stamp;
}

}  // namespace core
}  // namespace mosaic
