#include "core/catalog.h"

#include "common/string_util.h"
#include "exec/batch_eval.h"
#include "exec/executor.h"

namespace mosaic {
namespace core {

std::string Catalog::Key(const std::string& name) { return ToLower(name); }

Status Catalog::AddPopulation(PopulationInfo population) {
  if (HasName(population.name)) {
    return Status::AlreadyExists("relation '" + population.name +
                                 "' already exists");
  }
  if (population.global) {
    for (const auto& [key, pop] : populations_) {
      (void)key;
      if (pop.global) {
        return Status::InvalidArgument(
            "a global population already exists ('" + pop.name +
            "'); multiple GPs are not supported");
      }
    }
  }
  std::string key = Key(population.name);
  populations_.emplace(std::move(key), std::move(population));
  return Status::OK();
}

Status Catalog::AddSample(SampleInfo sample) {
  if (HasName(sample.name)) {
    return Status::AlreadyExists("relation '" + sample.name +
                                 "' already exists");
  }
  std::string key = Key(sample.name);
  samples_.emplace(std::move(key), std::move(sample));
  return Status::OK();
}

Status Catalog::AddTable(const std::string& name, Table table) {
  if (HasName(name)) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  tables_.emplace(Key(name), std::move(table));
  return Status::OK();
}

Result<PopulationInfo*> Catalog::GetPopulation(const std::string& name) {
  auto it = populations_.find(Key(name));
  if (it == populations_.end()) {
    return Status::NotFound("no population named '" + name + "'");
  }
  return &it->second;
}

Result<SampleInfo*> Catalog::GetSample(const std::string& name) {
  auto it = samples_.find(Key(name));
  if (it == samples_.end()) {
    return Status::NotFound("no sample named '" + name + "'");
  }
  return &it->second;
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return &it->second;
}

bool Catalog::HasPopulation(const std::string& name) const {
  return populations_.count(Key(name)) > 0;
}
bool Catalog::HasSample(const std::string& name) const {
  return samples_.count(Key(name)) > 0;
}
bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}
bool Catalog::HasName(const std::string& name) const {
  return HasPopulation(name) || HasSample(name) || HasTable(name);
}

Status Catalog::DropPopulation(const std::string& name) {
  if (populations_.erase(Key(name)) == 0) {
    return Status::NotFound("no population named '" + name + "'");
  }
  return Status::OK();
}

Status Catalog::DropSample(const std::string& name) {
  if (samples_.erase(Key(name)) == 0) {
    return Status::NotFound("no sample named '" + name + "'");
  }
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(Key(name)) == 0) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return Status::OK();
}

Status Catalog::DropMetadata(const std::string& metadata_name) {
  for (auto& [key, pop] : populations_) {
    (void)key;
    for (size_t i = 0; i < pop.metadata_names.size(); ++i) {
      if (EqualsIgnoreCase(pop.metadata_names[i], metadata_name)) {
        pop.metadata_names.erase(pop.metadata_names.begin() +
                                 static_cast<long>(i));
        pop.marginals.erase(pop.marginals.begin() + static_cast<long>(i));
        return Status::OK();
      }
    }
  }
  return Status::NotFound("no metadata named '" + metadata_name + "'");
}

Result<PopulationInfo*> Catalog::GlobalPopulation() {
  PopulationInfo* found = nullptr;
  for (auto& [key, pop] : populations_) {
    (void)key;
    if (pop.global) {
      if (found != nullptr) {
        return Status::Internal("multiple global populations registered");
      }
      found = &pop;
    }
  }
  if (found == nullptr) {
    return Status::NotFound("no global population defined");
  }
  return found;
}

std::vector<SampleInfo*> Catalog::SamplesOf(const std::string& population) {
  std::vector<SampleInfo*> out;
  for (auto& [key, sample] : samples_) {
    (void)key;
    if (EqualsIgnoreCase(sample.population, population)) {
      out.push_back(&sample);
    }
  }
  return out;
}

std::vector<std::string> Catalog::PopulationNames() const {
  std::vector<std::string> out;
  for (const auto& [key, pop] : populations_) {
    (void)key;
    out.push_back(pop.name);
  }
  return out;
}

std::vector<std::string> Catalog::SampleNames() const {
  std::vector<std::string> out;
  for (const auto& [key, s] : samples_) {
    (void)key;
    out.push_back(s.name);
  }
  return out;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [key, t] : tables_) {
    (void)key;
    (void)t;
    out.push_back(key);
  }
  return out;
}

[[nodiscard]] Result<TableView> MakeWeightedView(
    const Table& data, const std::vector<double>& weights) {
  if (data.schema().FindColumn(kWeightColumn)) {
    return Status::InvalidArgument(
        "relation already has a 'weight' column; it clashes with Mosaic's "
        "managed weights");
  }
  TableView view(data);
  MOSAIC_RETURN_IF_ERROR(
      view.AddDoubleSpan(kWeightColumn, weights.data(), weights.size()));
  return view;
}

[[nodiscard]] Result<SelectionVector> SelectWhere(
    const TableView& view, const sql::Expr* predicate) {
  if (predicate == nullptr) return SelectionVector::All(view.num_rows());
  return exec::SelectRows(view, *predicate);
}

[[nodiscard]] Result<SelectionVector> PopulationSelection(
    const TableView& view, const PopulationInfo& population) {
  return SelectWhere(view,
                     population.global ? nullptr : population.predicate.get());
}

[[nodiscard]] Result<Table> SelectOver(const TableView& view,
                                       SelectionVector sel,
                                       const sql::SelectStmt& stmt,
                                       bool weighted, trace::QueryTrace* trace,
                                       uint32_t trace_parent) {
  exec::ExecOptions opts;
  if (weighted) opts.weight_column = kWeightColumn;
  opts.trace = trace;
  opts.trace_parent = trace_parent;
  return exec::ExecuteSelect(view, std::move(sel), stmt, opts);
}

}  // namespace core
}  // namespace mosaic
