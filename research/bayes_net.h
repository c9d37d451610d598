// Chow–Liu tree Bayesian network over discretized attributes.
//
// The paper's §4.1 notes that Themis [42] (Mosaic's predecessor)
// answers count queries either by IPF reweighting or by building a
// Bayesian network over the population distribution. We implement the
// BN path as an extension: a Chow–Liu tree (the maximum-likelihood
// tree-structured BN) fitted to the weighted sample, usable both for
// direct COUNT inference and as an *explicit* generative model to
// contrast with the implicit M-SWG in the ablation benches.
#ifndef MOSAIC_RESEARCH_BAYES_NET_H_
#define MOSAIC_RESEARCH_BAYES_NET_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "stats/marginal.h"
#include "storage/table.h"

namespace mosaic {
namespace stats {

struct BayesNetOptions {
  /// Equi-width bins used for real-valued attributes.
  size_t continuous_bins = 16;
  /// Laplace smoothing added to every CPT cell.
  double smoothing = 0.1;
};

/// Tree-structured discrete Bayesian network.
class ChowLiuTree {
 public:
  /// Learn structure (maximum spanning tree on pairwise mutual
  /// information) and CPTs from `data`, optionally weighted by
  /// `weight_column`. All table columns become nodes.
  [[nodiscard]] static Result<ChowLiuTree> Fit(const Table& data,
                                 const std::string& weight_column = "",
                                 const BayesNetOptions& options = {});

  size_t num_nodes() const { return nodes_.size(); }
  const std::string& attribute(size_t node) const;
  /// Parent node index, or -1 for the root.
  int parent(size_t node) const { return nodes_[node].parent; }

  /// Joint probability of a full assignment of bin indices.
  double Probability(const std::vector<size_t>& bins) const;

  /// Probability that each attribute falls in its allowed bin set
  /// (empty set = unconstrained). Exact tree inference by upward
  /// message passing.
  [[nodiscard]] Result<double> MarginalProbability(
      const std::vector<std::vector<size_t>>& allowed_bins) const;

  /// Estimated COUNT(*) for the constraint, given the population
  /// size.
  [[nodiscard]] Result<double> EstimateCount(
      const std::vector<std::vector<size_t>>& allowed_bins,
      double population_size) const;

  /// Ancestral sampling: generate n rows with the original schema.
  /// Continuous attributes are jittered uniformly within the bin.
  [[nodiscard]] Result<Table> SampleRows(size_t n, Rng* rng) const;

  /// Binning of a node (to map predicate values to bin sets).
  const AttributeBinning& binning(size_t node) const;

  /// Node index by attribute name.
  [[nodiscard]] Result<size_t> NodeIndex(const std::string& attr) const;

 private:
  struct Node {
    AttributeBinning binning{AttributeBinning::Categorical("", {})};
    int parent = -1;
    /// CPT: p(bin | parent_bin), row-major [parent_bin][bin]; for the
    /// root, a single row of priors.
    std::vector<double> cpt;
    size_t parent_bins = 1;
    DataType original_type = DataType::kDouble;
  };

  double CptEntry(const Node& node, size_t parent_bin, size_t bin) const {
    return node.cpt[parent_bin * node.binning.num_bins() + bin];
  }

  std::vector<Node> nodes_;
  std::vector<size_t> topo_order_;  ///< parents before children
};

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_RESEARCH_BAYES_NET_H_
