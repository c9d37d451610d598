// Catalog objects for Mosaic's specialized relations (§3.1–3.2):
// populations (with their metadata marginals), samples (with their
// per-tuple weights and optional mechanism), and auxiliary tables.
#ifndef MOSAIC_CORE_CATALOG_H_
#define MOSAIC_CORE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/weights.h"
#include "sql/ast.h"
#include "stats/marginal.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace mosaic {

namespace trace {
class QueryTrace;  // common/trace.h
}  // namespace trace

namespace core {

/// A population relation: a set of tuples that *could* exist but are
/// not fully known to Mosaic (§3.1). The global population (GP)
/// contains all other populations; derived populations are defined by
/// a predicate over the GP.
struct PopulationInfo {
  std::string name;
  bool global = false;
  Schema schema;
  /// For derived populations: the GP they select from and the
  /// defining predicate (may be null for a full-copy definition).
  std::string parent;
  sql::ExprPtr predicate;
  /// Metadata: named marginals (§3.2).
  std::vector<std::string> metadata_names;
  std::vector<stats::Marginal> marginals;
};

/// A sample relation: tuples that do exist in the GP and that Mosaic
/// has access to (§3.1), plus the §3.2 metadata (per-tuple weights,
/// initialized to one).
struct SampleInfo {
  std::string name;
  /// The global population this sample was drawn from.
  std::string population;
  Schema schema;
  Table data;
  /// Versioned copy-on-write per-tuple weights (§3.2). Readers pin
  /// one immutable epoch per query; refits publish the next epoch
  /// without disturbing pinned readers (core/weights.h).
  WeightStore weights;
  sql::MechanismSpec mechanism;
  /// Defining predicate over the GP (e.g. email = 'Yahoo'), may be
  /// null.
  sql::ExprPtr predicate;
};

/// Name-keyed registry of all Mosaic relations. Names are
/// case-insensitive and shared across relation kinds (you cannot have
/// a table and a population with the same name).
class Catalog {
 public:
  [[nodiscard]] Status AddPopulation(PopulationInfo population);
  [[nodiscard]] Status AddSample(SampleInfo sample);
  [[nodiscard]] Status AddTable(const std::string& name, Table table);

  [[nodiscard]] Result<PopulationInfo*> GetPopulation(const std::string& name);
  [[nodiscard]] Result<SampleInfo*> GetSample(const std::string& name);
  [[nodiscard]] Result<Table*> GetTable(const std::string& name);

  bool HasPopulation(const std::string& name) const;
  bool HasSample(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  /// Any relation kind registered under this name?
  bool HasName(const std::string& name) const;

  [[nodiscard]] Status DropPopulation(const std::string& name);
  [[nodiscard]] Status DropSample(const std::string& name);
  [[nodiscard]] Status DropTable(const std::string& name);
  /// Remove one metadata entry (marginal) by name from its population.
  [[nodiscard]] Status DropMetadata(const std::string& metadata_name);

  /// The unique global population; errors when none or several exist
  /// (the paper assumes a single GP; multiple GPs are future work,
  /// §7).
  [[nodiscard]] Result<PopulationInfo*> GlobalPopulation();

  /// All samples drawn from the given population.
  std::vector<SampleInfo*> SamplesOf(const std::string& population);

  std::vector<std::string> PopulationNames() const;
  std::vector<std::string> SampleNames() const;
  std::vector<std::string> TableNames() const;

 private:
  static std::string Key(const std::string& name);

  std::map<std::string, PopulationInfo> populations_;
  std::map<std::string, SampleInfo> samples_;
  std::map<std::string, Table> tables_;
};

// ---- Reading relations -------------------------------------------------
//
// Every read ends the same way, whether of an auxiliary or system
// table, of a sample, or of a population at any visibility level: a
// view, a selection of its rows, and the batch executor.

/// Name of the engine-managed weight column of a weighted view.
inline constexpr char kWeightColumn[] = "weight";

/// A view over `data`'s columns plus a span over the external weight
/// vector, named kWeightColumn. `weights` must outlive the view.
[[nodiscard]] Result<TableView> MakeWeightedView(
    const Table& data, const std::vector<double>& weights);

/// Rows of `view` satisfying `predicate`; every row when it is null.
[[nodiscard]] Result<SelectionVector> SelectWhere(const TableView& view,
                                                  const sql::Expr* predicate);

/// Selection of `view`'s rows belonging to the population (all rows
/// for the GP or a predicate-less population).
[[nodiscard]] Result<SelectionVector> PopulationSelection(
    const TableView& view, const PopulationInfo& population);

/// Run `stmt` over the rows of `view` that `sel` selects, weighting
/// aggregates by the view's kWeightColumn when `weighted`; the
/// executor records its spans under `trace_parent`.
[[nodiscard]] Result<Table> SelectOver(const TableView& view,
                                       SelectionVector sel,
                                       const sql::SelectStmt& stmt,
                                       bool weighted, trace::QueryTrace* trace,
                                       uint32_t trace_parent);

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_CATALOG_H_
