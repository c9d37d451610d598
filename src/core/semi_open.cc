#include "core/semi_open.h"

#include "common/string_util.h"
#include "core/durability.h"
#include "stats/reweight.h"
#include "storage/table_view.h"

namespace mosaic {
namespace core {

namespace {

/// The kind of a GP-level IPF fit (FitKind), the one ingest warm-starts.
constexpr char kIpfGpKind[] = "ipf-gp";

}  // namespace

[[nodiscard]] Result<DebiasPlan> PlanDebias(
    Catalog* catalog, const PopulationInfo& population) {
  DebiasPlan plan;
  if (!population.marginals.empty()) {
    plan.marginals = &population.marginals;
    plan.reweight_to_global = false;
  } else if (!population.global) {
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* gp, catalog->GlobalPopulation());
    if (gp->marginals.empty()) {
      return Status::ExecutionError(
          "population '" + population.name +
          "' has no metadata and neither does the global population; "
          "SEMI-OPEN/OPEN queries need marginals (§4 assumption 3)");
    }
    plan.marginals = &gp->marginals;
    plan.reweight_to_global = true;
  } else {
    return Status::ExecutionError(
        "global population '" + population.name +
        "' has no metadata; SEMI-OPEN/OPEN queries need marginals "
        "(§4 assumption 3)");
  }
  double total = 0.0;
  for (const auto& m : *plan.marginals) total += m.total();
  plan.population_size = total / static_cast<double>(plan.marginals->size());
  return plan;
}

std::string FitKind(const std::string& signature) {
  return signature.substr(0, signature.find('|'));
}

SemiOpen::SemiOpen(Catalog* catalog,
                   const std::atomic<uint64_t>* metadata_version)
    : catalog_(catalog), metadata_version_(metadata_version) {
  auto& registry = metrics::Registry::Global();
  ipf_cycles_ = registry.GetCounter("mosaic_ipf_cycles_total",
                                    "IPF raking cycles run by weight refits");
  ipf_plateaued_ = registry.GetCounter(
      "mosaic_ipf_plateaued_fits_total",
      "IPF weight refits that ran out of cycles without converging");
  weight_epochs_published_ = registry.GetCounter(
      "mosaic_weight_epochs_published", "Sample weight epochs swapped in");
  weight_refits_ = registry.GetCounter("mosaic_weight_refits_total",
                                       "Sample weight computations run");
  weight_refits_skipped_ = registry.GetCounter(
      "mosaic_weight_refits_skipped",
      "Refits skipped because the current epoch already matched");
  weight_refits_incremental_ = registry.GetCounter(
      "mosaic_weight_refits_incremental",
      "Ingest refits warm-started from the previous weights");
}

Result<Table> SemiOpen::Answer(const sql::SelectStmt& stmt,
                               const PopulationInfo& population,
                               SampleInfo* sample, DurabilitySink* log,
                               trace::QueryTrace* trace,
                               uint32_t trace_parent) {
  // The refit publishes (or no-op reuses) a weight epoch and pins it;
  // the query answers over exactly that epoch, so a racing refit for
  // another population over the same sample cannot inject its weights
  // mid-query. The pinned weights are attached to the sample as an
  // external span: the sample tuples are never copied.
  stats::IpfReport report;
  WeightEpochPtr epoch;
  {
    trace::ScopedSpan span(trace, trace_parent, "reweight");
    MOSAIC_ASSIGN_OR_RETURN(epoch,
                            ReweightAndPin(population, sample, log, &report));
    trace::CountEpochPin(trace);
    if (trace != nullptr) {
      span.Note("epoch=" + std::to_string(epoch->id));
    }
  }
  MOSAIC_ASSIGN_OR_RETURN(TableView view,
                          MakeWeightedView(sample->data, epoch->weights));
  MOSAIC_ASSIGN_OR_RETURN(SelectionVector sel,
                          PopulationSelection(view, population));
  return SelectOver(view, std::move(sel), stmt, /*weighted=*/true, trace,
                    trace_parent);
}

std::string SemiOpen::IpfFitSignature(const PopulationInfo* population,
                                      size_t rows) const {
  const stats::IpfOptions ipf;
  return (population == nullptr ? std::string(kIpfGpKind)
                                : "ipf-pop|" + ToLower(population->name)) +
         "|n=" + std::to_string(rows) +
         "|mv=" + std::to_string(metadata_version_->load()) +
         "|it=" + std::to_string(ipf.max_iterations) +
         "|tol=" + FormatDouble(ipf.tolerance, 17) +
         "|scale=" + (ipf.scale_to_population ? "1" : "0");
}

Result<WeightEpochPtr> SemiOpen::PublishFit(SampleInfo* sample,
                                            std::vector<double> weights,
                                            std::string signature,
                                            const stats::IpfReport& report,
                                            DurabilitySink* log) {
  weight_refits_->Inc();
  ipf_cycles_->Inc(report.iterations);
  // A fit that did not converge ran its whole cycle budget.
  if (!report.converged) ipf_plateaued_->Inc();
  return PublishWeights(
      sample, std::move(weights),
      WeightFitInfo{std::move(signature), report.max_l1_error,
                    report.uncovered_target_mass, report.converged},
      log);
}

Result<WeightEpochPtr> SemiOpen::PublishWeights(SampleInfo* sample,
                                                std::vector<double> weights,
                                                WeightFitInfo fit,
                                                DurabilitySink* log) {
  bool published = false;
  WeightEpochPtr epoch =
      sample->weights.Publish(std::move(weights), std::move(fit), &published);
  if (published) {
    weight_epochs_published_->Inc();
    if (log != nullptr) {
      MOSAIC_RETURN_IF_ERROR(log->LogPublishEpoch(sample->name, *epoch));
    }
  }
  return epoch;
}

Result<WeightEpochPtr> SemiOpen::ReweightAndPin(
    const PopulationInfo& population, SampleInfo* sample, DurabilitySink* log,
    stats::IpfReport* report) {
  const size_t rows = sample->data.num_rows();

  // Each debias path names its computation by a fit signature and
  // hands it here. No-op refit detection: when the current epoch
  // already holds that computation's output (same data size, marginal
  // set, and IPF options), reuse it — no IPF cycles, no epoch swap, no
  // cache invalidation. Convergence is not required: a cold refit is
  // deterministic, so a matching signature implies it would reproduce
  // these weights, converged or plateaued alike.
  auto refit = [&](std::string sig,
                   const auto& compute) -> Result<WeightEpochPtr> {
    WeightEpochPtr cur = sample->weights.Pin();
    if (cur->weights.size() == rows && cur->fit_signature == sig) {
      weight_refits_skipped_->Inc();
      report->converged = cur->fit_converged;
      report->max_l1_error = cur->fit_error;
      report->uncovered_target_mass = cur->fit_uncovered;
      return cur;
    }
    *report = stats::IpfReport();
    MOSAIC_ASSIGN_OR_RETURN(std::vector<double> weights, compute());
    return PublishFit(sample, std::move(weights), std::move(sig), *report,
                      log);
  };

  // Known mechanism: Horvitz–Thompson, no marginals needed for the
  // uniform case (§4.1 "when the sampling mechanism is known ... we
  // use the known mechanism to reweight the sample by the inverse of
  // its inclusion probability").
  if (sample->mechanism.type == sql::MechanismSpec::Type::kUniform) {
    return refit("mech-uniform|p=" +
                     FormatDouble(sample->mechanism.percent, 17) +
                     "|n=" + std::to_string(rows),
                 [&]() -> Result<std::vector<double>> {
                   report->converged = true;
                   return stats::UniformMechanismWeights(
                       rows, sample->mechanism.percent);
                 });
  }
  if (sample->mechanism.type == sql::MechanismSpec::Type::kStratified) {
    // Inclusion probability per stratum needs the stratum sizes in
    // the GP, which come from a 1-D marginal over the stratification
    // attribute.
    MOSAIC_ASSIGN_OR_RETURN(PopulationInfo* gp, catalog_->GlobalPopulation());
    const stats::Marginal* strat_marginal = nullptr;
    for (const auto& m : gp->marginals) {
      if (m.arity() == 1 &&
          EqualsIgnoreCase(m.binning(0).attr(),
                           sample->mechanism.stratify_attr)) {
        strat_marginal = &m;
      }
    }
    if (strat_marginal == nullptr) {
      return Status::ExecutionError(
          "stratified mechanism on '" + sample->mechanism.stratify_attr +
          "' needs a 1-D GP marginal over that attribute");
    }
    return refit("mech-strat|" + ToLower(sample->mechanism.stratify_attr) +
                     "|n=" + std::to_string(rows) +
                     "|mv=" + std::to_string(metadata_version_->load()),
                 [&]() -> Result<std::vector<double>> {
                   report->converged = true;
                   return stats::StratifiedMechanismWeights(
                       sample->data, sample->mechanism.stratify_attr,
                       *strat_marginal);
                 });
  }

  // Unknown mechanism: IPF against the marginals (Fig. 3).
  MOSAIC_ASSIGN_OR_RETURN(DebiasPlan plan, PlanDebias(catalog_, population));
  if (plan.reweight_to_global || population.global) {
    // Reweight the full sample to the GP; derived populations are
    // views over the reweighted sample.
    return refit(IpfFitSignature(nullptr, rows),
                 [&]() -> Result<std::vector<double>> {
                   std::vector<double> weights(rows, 1.0);
                   MOSAIC_ASSIGN_OR_RETURN(
                       *report, stats::IterativeProportionalFit(
                                    sample->data, *plan.marginals, &weights));
                   return weights;
                 });
  }
  // Metadata on the query population itself: reweight the restricted
  // sample directly (bottom dashed line of Fig. 3). The population's
  // rows are selected once; they are the fit's input and the slots
  // its weights map back to. Weights of tuples outside the population
  // are zeroed — they do not represent any population tuple.
  return refit(
      IpfFitSignature(&population, rows),
      [&]() -> Result<std::vector<double>> {
        const TableView view(sample->data);
        MOSAIC_ASSIGN_OR_RETURN(SelectionVector keep,
                                PopulationSelection(view, population));
        if (keep.empty()) {
          return Status::ExecutionError(
              "no sample tuples fall inside population '" + population.name +
              "'");
        }
        std::vector<double> restricted(keep.size(), 1.0);
        MOSAIC_ASSIGN_OR_RETURN(
            *report, stats::IterativeProportionalFit(
                         keep.all() ? sample->data : view.Materialize(keep),
                         *plan.marginals, &restricted));
        std::vector<double> full(rows, 0.0);
        for (size_t i = 0; i < keep.size(); ++i) full[keep[i]] = restricted[i];
        return full;
      });
}

Status SemiOpen::ExtendWeightsAfterIngest(SampleInfo* sample,
                                          const WeightEpochPtr& prev) {
  // Incremental IPF (ROADMAP: "incremental IPF on sample ingest"):
  // when the outgoing epoch was a converged GP-level fit, warm-start
  // the refit from it instead of leaving the sample unfitted for the
  // next SEMI-OPEN query to cold-refit. The published epoch carries
  // the fresh GP fit signature, so that query then skips its refit
  // entirely. Falls back to a cold full fit inside
  // IncrementalProportionalFit when the warm fit regresses.
  if (FitKind(prev->fit_signature) == kIpfGpKind) {
    auto gp = catalog_->GlobalPopulation();
    if (gp.ok() && !(*gp)->marginals.empty()) {
      // Acceptance: the warm fit may plateau no worse than twice the
      // outgoing epoch's error (plus tolerance) — where the marginals
      // conflict on the sample's covered cells, cold fits cannot
      // converge either, so requiring convergence would reject warm
      // fits exactly where a cold refit is no better.
      const stats::IpfOptions ipf;
      std::vector<double> fitted;
      auto fit = stats::IncrementalProportionalFit(
          sample->data, (*gp)->marginals, prev->weights,
          2.0 * prev->fit_error + ipf.tolerance, &fitted, ipf);
      if (fit.ok()) {
        if (!fit->fell_back_to_cold) {
          weight_refits_incremental_->Inc();
        }
        return PublishFit(sample, std::move(fitted),
                          IpfFitSignature(nullptr, sample->data.num_rows()),
                          *fit, /*log=*/nullptr)
            .status();
      }
      // A failed fit (e.g. the new rows broke marginal overlap) falls
      // through to the unfitted extension; the next SEMI-OPEN query
      // surfaces the error.
    }
  }
  std::vector<double> extended = prev->weights;
  extended.resize(sample->data.num_rows(), 1.0);
  return PublishWeights(sample, std::move(extended), WeightFitInfo(),
                        /*log=*/nullptr)
      .status();
}

SemiOpen::WeightCounters SemiOpen::Counters() const {
  WeightCounters c;
  c.epochs_published = weight_epochs_published_->Value();
  c.refits_total = weight_refits_->Value();
  c.refits_skipped = weight_refits_skipped_->Value();
  c.refits_incremental = weight_refits_incremental_->Value();
  return c;
}

}  // namespace core
}  // namespace mosaic
