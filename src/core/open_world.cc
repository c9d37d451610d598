#include "core/open_world.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/semi_open.h"
#include "storage/table_view.h"

namespace mosaic {
namespace core {

namespace {

/// Average numeric cells across several per-run result tables,
/// keeping only group keys "appearing in all answers" — the paper's
/// §5.3 variance-reduction rule for multi-sample OPEN answers.
[[nodiscard]] Result<Table> CombineOpenRuns(const std::vector<Table>& runs,
                              const sql::SelectStmt& stmt) {
  if (runs.size() == 1) return runs[0];
  const Schema& schema = runs[0].schema();
  // Group-key output columns = select items that are bare column refs.
  std::vector<size_t> key_cols;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (stmt.items[i].expr->kind == sql::Expr::Kind::kColumnRef) {
      key_cols.push_back(i);
    }
  }
  auto key_of = [&](const Table& t, size_t row) {
    std::vector<Value> key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(t.GetValue(row, c));
    return key;
  };
  // Count appearances and accumulate sums per key.
  struct KeyTotals {
    size_t seen = 0;
    std::vector<double> sums;
    bool emitted = false;
  };
  std::map<std::vector<Value>, KeyTotals> totals;
  for (const Table& run : runs) {
    for (size_t r = 0; r < run.num_rows(); ++r) {
      KeyTotals& t = totals[key_of(run, r)];
      t.seen += 1;
      t.sums.resize(schema.num_columns(), 0.0);
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        auto d = run.GetValue(r, c).ToDouble();
        if (d.ok()) t.sums[c] += *d;
      }
    }
  }
  Table out(schema);
  // Emit in first-run order, keys present in every run only.
  for (size_t r = 0; r < runs[0].num_rows(); ++r) {
    KeyTotals& t = totals[key_of(runs[0], r)];
    if (t.seen < runs.size() || t.emitted) continue;
    t.emitted = true;
    std::vector<Value> row(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      bool is_key = std::find(key_cols.begin(), key_cols.end(), c) !=
                    key_cols.end();
      if (is_key) {
        row[c] = runs[0].GetValue(r, c);
      } else {
        double avg = t.sums[c] / static_cast<double>(runs.size());
        if (schema.column(c).type == DataType::kInt64) {
          row[c] = Value(static_cast<int64_t>(std::llround(avg)));
        } else {
          row[c] = Value(avg);
        }
      }
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace

OpenWorld::OpenWorld(Catalog* catalog)
    : catalog_(catalog),
      model_cache_("mosaic_model_cache", kDefaultModelCacheCapacity) {
  // Ad-hoc OPEN queries get a lighter training budget than the
  // benches (which configure their own MswgOptions).
  options_.mswg.epochs = 15;
  options_.mswg.steps_per_epoch = 30;
  options_.mswg.batch_size = 256;
  options_.mswg.projections_per_step = 16;
}

Result<Table> OpenWorld::Answer(const sql::SelectStmt& stmt,
                                const PopulationInfo& population,
                                const SampleInfo& sample,
                                trace::QueryTrace* trace,
                                uint32_t trace_parent) {
  size_t runs = std::max<size_t>(1, options_.num_generated_samples);
  // Train (or fetch) the generator once, then produce the independent
  // generated samples — on the generation pool when one is attached,
  // sequentially otherwise. Each run k owns seed generation_seed + k,
  // so both paths are bit-identical.
  Model model;
  {
    trace::ScopedSpan span(trace, trace_parent, "train_or_fetch_model");
    MOSAIC_ASSIGN_OR_RETURN(model, PrepareModel(population, sample));
  }
  auto run_one = [&, this](size_t k) -> Result<Table> {
    // Exceptions must not escape: pool tasks reference this stack
    // frame, and an unwinding submitter would leave them dangling.
    try {
      // Generation-pool threads record under the query's parent span
      // by explicit id — there is no per-thread span stack to inherit
      // (common/trace.h).
      trace::ScopedSpan gen_span(
          trace, trace_parent, ("generate " + std::to_string(k)).c_str());
      return Generate(model, options_.generated_rows,
                      options_.generation_seed + k,
                      [&](const TableView& view, SelectionVector sel) {
                        return SelectOver(view, std::move(sel), stmt,
                                          /*weighted=*/true, trace,
                                          gen_span.id());
                      });
    } catch (const std::exception& e) {
      return Status::Internal(std::string("open-sample generation "
                                          "threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("open-sample generation threw");
    }
  };
  std::vector<Table> results;
  results.reserve(runs);
  if (gen_pool_ != nullptr && runs > 1) {
    // The tasks capture this stack frame, so it must not unwind while
    // they are in flight: all vector capacity is allocated up front
    // (run_one itself never throws), and the one remaining throw
    // source — Submit's own allocations — is guarded by a
    // drain-then-rethrow.
    std::vector<std::future<Result<Table>>> futures;
    futures.reserve(runs - 1);
    std::vector<Result<Table>> rest;
    rest.reserve(runs - 1);
    Result<Table> first = Status::Internal("open sample 0 not run");
    try {
      for (size_t k = 1; k < runs; ++k) {
        futures.push_back(gen_pool_->Submit([&run_one, k] {
          return run_one(k);
        }));
      }
      // Run sample 0 on the submitting thread.
      first = run_one(0);
    } catch (...) {
      for (auto& f : futures) f.wait();
      throw;
    }
    for (auto& f : futures) rest.push_back(f.get());
    MOSAIC_ASSIGN_OR_RETURN(Table first_table, std::move(first));
    results.push_back(std::move(first_table));
    for (auto& r : rest) {
      MOSAIC_ASSIGN_OR_RETURN(Table t, std::move(r));
      results.push_back(std::move(t));
    }
  } else {
    for (size_t k = 0; k < runs; ++k) {
      MOSAIC_ASSIGN_OR_RETURN(Table t, run_one(k));
      results.push_back(std::move(t));
    }
  }
  trace::ScopedSpan combine_span(trace, trace_parent, "combine_runs");
  return CombineOpenRuns(results, stmt);
}

Result<Table> OpenWorld::GenerateTable(const PopulationInfo& population,
                                       const SampleInfo& sample, size_t rows,
                                       uint64_t seed) {
  MOSAIC_ASSIGN_OR_RETURN(Model model, PrepareModel(population, sample));
  return Generate(model, rows, seed,
                  [](const TableView& view, const SelectionVector& sel) {
                    return view.Materialize(sel);
                  });
}

Result<OpenWorld::Model> OpenWorld::PrepareModel(
    const PopulationInfo& population, const SampleInfo& sample) {
  MOSAIC_ASSIGN_OR_RETURN(DebiasPlan plan, PlanDebias(catalog_, population));

  // Training rows: the population's tuples when it carries its own
  // metadata, the full sample when debiasing to the GP. They are
  // copied out only when a model has to be trained.
  const TableView view(sample.data);
  SelectionVector rows = SelectionVector::All(view.num_rows());
  if (!plan.reweight_to_global) {
    MOSAIC_ASSIGN_OR_RETURN(rows, PopulationSelection(view, population));
  }
  if (rows.empty()) {
    return Status::ExecutionError("no sample tuples to train the M-SWG on");
  }

  Model out;
  out.population_size = plan.population_size;
  out.default_rows = rows.size();
  if (plan.reweight_to_global && population.predicate != nullptr) {
    out.restrict_predicate = population.predicate.get();
  }

  std::string cache_key =
      ToLower(population.name) + "|" + ToLower(sample.name) + "|" +
      std::to_string(rows.size()) + "|" +
      std::to_string(plan.marginals->size());
  if (auto cached = model_cache_.Get(cache_key)) {
    out.model = std::move(*cached);
    return out;
  }
  // Serialize training per key: concurrent OPEN queries against the
  // same key wait here and find the model cached instead of training
  // twice; different keys train concurrently.
  std::shared_ptr<std::mutex> key_mu;
  {
    MutexLock map_lock(train_mu_);
    auto& slot = train_mutexes_[cache_key];
    if (slot == nullptr) slot = std::make_shared<std::mutex>();
    key_mu = slot;
  }
  // Plain std::mutex on purpose: these locks are per-key and dynamic,
  // guarding a *protocol* (one trainer per key) rather than any named
  // field, so capability annotations have nothing to attach to.
  std::lock_guard<std::mutex> train_lock(*key_mu);
  // Peek, not Get: the pre-lock Get already counted this lookup.
  if (auto cached = model_cache_.Peek(cache_key)) {
    out.model = std::move(*cached);
    return out;
  }
  const Table restricted = rows.all() ? Table() : view.Materialize(rows);
  MOSAIC_ASSIGN_OR_RETURN(
      auto trained, Mswg::Train(rows.all() ? sample.data : restricted,
                                *plan.marginals, options_.mswg));
  out.model = std::shared_ptr<const Mswg>(std::move(trained));
  model_cache_.Put(cache_key, out.model);
  return out;
}

template <typename Consume>
Result<Table> OpenWorld::Generate(const Model& model, size_t rows,
                                  uint64_t seed,
                                  const Consume& consume) const {
  if (rows == 0) rows = model.default_rows;
  Rng gen_rng(seed);
  MOSAIC_ASSIGN_OR_RETURN(Table data, model.model->Generate(rows, &gen_rng));
  // Uniform reweighting of the generated sample to the population
  // size (§5.3), attached as an external span.
  const std::vector<double> weights(
      data.num_rows(),
      model.population_size / static_cast<double>(data.num_rows()));
  MOSAIC_ASSIGN_OR_RETURN(TableView view, MakeWeightedView(data, weights));
  // Generated tuples represent the GP; a derived query population
  // keeps only the rows its predicate selects.
  MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                          SelectWhere(view, model.restrict_predicate));
  return consume(view, std::move(sel));
}

}  // namespace core
}  // namespace mosaic
