// SEMI-OPEN answering (§4): reweight the chosen sample to the
// population, then answer over the sample tuples with those weights.
//
// Known mechanisms reweight by Horvitz–Thompson (§4.1); otherwise IPF
// fits the weights to the metadata marginals along one of Fig. 3's two
// paths. With metadata on the query population itself, the restricted
// sample is reweighted directly and tuples outside the population get
// weight zero; with only GP metadata, the whole sample is reweighted
// to the GP and the query population is a view over it.
//
// Fitted weights are published as the sample's next immutable weight
// epoch (§3.2 weight metadata; core/weights.h), so concurrent readers
// keep the epoch they pinned. Each epoch carries the fit signature of
// the computation that produced it; a refit whose signature matches
// the current epoch's is a no-op.
#ifndef MOSAIC_CORE_SEMI_OPEN_H_
#define MOSAIC_CORE_SEMI_OPEN_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/catalog.h"
#include "sql/ast.h"
#include "stats/ipf.h"
#include "storage/table.h"

namespace mosaic {
namespace core {

class DurabilitySink;  // core/durability.h

/// Marginals + population size to debias against, following Fig. 3:
/// the population's own metadata when present, else the GP's
/// (reweight_to_global is set in the latter case).
struct DebiasPlan {
  const std::vector<stats::Marginal>* marginals = nullptr;
  bool reweight_to_global = false;
  double population_size = 0.0;
};
[[nodiscard]] Result<DebiasPlan> PlanDebias(Catalog* catalog,
                                            const PopulationInfo& population);

/// A fit signature's kind: the text before its first '|' ("ipf-gp",
/// "ipf-pop", "mech-uniform" or "mech-strat"; empty for an epoch no
/// fit produced).
std::string FitKind(const std::string& signature);

/// Reweights samples for SEMI-OPEN answers and publishes the weights
/// as epochs, counting both in the metrics registry.
class SemiOpen {
 public:
  /// Aggregate counters over the versioned weight stores, per process
  /// (the registry's `mosaic_weight_*` counters).
  struct WeightCounters {
    uint64_t epochs_published = 0;   ///< new epochs swapped in
    uint64_t refits_total = 0;       ///< reweight computations run
    uint64_t refits_skipped = 0;     ///< no-op refits (signature hit)
    uint64_t refits_incremental = 0; ///< warm-started ingest refits
  };

  /// `metadata_version` is the owner's count of metadata changes; it
  /// is part of every metadata fit's signature.
  SemiOpen(Catalog* catalog, const std::atomic<uint64_t>* metadata_version);

  /// Answer `stmt` over `sample` reweighted for `population`: refit
  /// (or reuse) and pin an epoch, then run the query over the
  /// population's tuples with the pinned weights. `log` (nullable)
  /// records a published epoch.
  [[nodiscard]] Result<Table> Answer(const sql::SelectStmt& stmt,
                                     const PopulationInfo& population,
                                     SampleInfo* sample, DurabilitySink* log,
                                     trace::QueryTrace* trace,
                                     uint32_t trace_parent);

  /// Refit `sample`'s weights for `population` and return the epoch
  /// holding them, pinned: the SEMI-OPEN answer reads exactly this
  /// epoch even if a concurrent refit for another population publishes
  /// over it. A refit whose signature matches the current epoch (same
  /// debias path, data size, metadata version and IPF options,
  /// converged or plateaued alike, since the rerun would reproduce the
  /// same fit) reuses it: nothing is recomputed or republished, so
  /// concurrent identical refits collapse to one epoch. Readers keep
  /// the epoch they pinned.
  [[nodiscard]] Result<WeightEpochPtr> ReweightAndPin(
      const PopulationInfo& population, SampleInfo* sample,
      DurabilitySink* log, stats::IpfReport* report);

  /// Publish `weights` as `sample`'s next epoch, counting an actual
  /// swap (a value-identical publication is a no-op and counts
  /// nothing). An actual swap is logged to `log` when it is not null;
  /// a logging failure surfaces as the error of the Result, with the
  /// epoch already published in memory.
  [[nodiscard]] Result<WeightEpochPtr> PublishWeights(
      SampleInfo* sample, std::vector<double> weights, WeightFitInfo fit,
      DurabilitySink* log);

  /// After rows were appended to `sample`, publish the follow-up
  /// weight epoch, unlogged (the ingest caller logs one combined
  /// rows+epoch record): a warm-started incremental IPF when the
  /// previous epoch `prev` came from a GP-level fit, otherwise
  /// `prev`'s weights extended with unit weights.
  [[nodiscard]] Status ExtendWeightsAfterIngest(SampleInfo* sample,
                                                const WeightEpochPtr& prev);

  WeightCounters Counters() const;

 private:
  /// The signature of an IPF fit over `rows` sample rows to the
  /// metadata of `population`, or to the GP's when it is null. A
  /// matching signature licenses the no-op refit: the current epoch
  /// is already a fit of this exact (data size, marginal set, IPF
  /// options), bit-equal to what a cold refit would produce when it
  /// came from one (cold IPF is deterministic), or an accepted
  /// warm-started fit of the same constraints when it came from
  /// ingest-time incremental IPF (which shares the GP-level signature
  /// by design: reusing the incremental fit is the point).
  std::string IpfFitSignature(const PopulationInfo* population,
                              size_t rows) const;

  /// Publish the weights a refit computed, under its signature and
  /// with the provenance in `report`, after counting the refit, its
  /// IPF cycles, and whether it plateaued (ran out of cycles
  /// unconverged).
  [[nodiscard]] Result<WeightEpochPtr> PublishFit(
      SampleInfo* sample, std::vector<double> weights, std::string signature,
      const stats::IpfReport& report, DurabilitySink* log);

  Catalog* catalog_;
  const std::atomic<uint64_t>* metadata_version_;
  metrics::Counter* weight_epochs_published_;
  metrics::Counter* weight_refits_;
  metrics::Counter* weight_refits_skipped_;
  metrics::Counter* weight_refits_incremental_;
  /// mosaic_ipf_cycles_total: raking cycles run by IPF refits (warm
  /// and cold-fallback attempts both count).
  metrics::Counter* ipf_cycles_;
  /// mosaic_ipf_plateaued_fits_total: IPF refits that exited at the
  /// cycle budget without converging.
  metrics::Counter* ipf_plateaued_;
};

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_SEMI_OPEN_H_
