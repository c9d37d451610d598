// Pluggable open-world generators.
//
// §4.2: "any generative model can be plugged in and used to answer
// open queries as long as it can be trained on sample data and
// marginals." This interface is that plug point. Three engines ship:
//
//   kMswg     — the paper's proposed implicit model (§5), a
//               marginal-constrained sliced-Wasserstein generator.
//   kBayesNet — the explicit, Themis-style model ([42], §4.1): IPF
//               debiases the sample against the marginals, then a
//               Chow-Liu tree fitted to the weighted sample is
//               sampled ancestrally.
//   kKde      — the §7 nonparametric alternative: IPF debiasing, then
//               a weighted mixed-data kernel density estimator.
//
// The Database answers OPEN queries with M-SWG alone; this research
// library (linked by tests and benches only) keeps all three behind
// one interface so bench_ablation can compare them head to head.
#ifndef MOSAIC_RESEARCH_GENERATOR_H_
#define MOSAIC_RESEARCH_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/mswg.h"
#include "research/bayes_net.h"
#include "research/kde.h"
#include "stats/ipf.h"
#include "storage/table.h"

namespace mosaic {
namespace core {

/// A trained generative model of the population: produces synthetic
/// tuples with the sample's schema.
class PopulationGenerator {
 public:
  virtual ~PopulationGenerator() = default;

  /// Generate n synthetic population tuples. Const — a trained model
  /// is immutable, so concurrent Generate calls (each with their own
  /// Rng) are safe; parallel OPEN answering relies on this.
  [[nodiscard]] virtual Result<Table> Generate(size_t n, Rng* rng) const = 0;

  /// Engine name for logs and reports ("m-swg", "bayes-net", "kde").
  virtual std::string name() const = 0;
};

enum class OpenEngine { kMswg, kBayesNet, kKde };

const char* OpenEngineName(OpenEngine engine);

struct GeneratorOptions {
  /// M-SWG training configuration (kMswg only).
  MswgOptions mswg;
  /// IPF configuration for the debias-first engines (kBayesNet, kKde).
  stats::IpfOptions ipf;
  /// Bayesian-network configuration (kBayesNet only).
  stats::BayesNetOptions bayes_net;
  /// KDE configuration (kKde only).
  stats::KdeOptions kde;
};

/// Train a generator of the selected kind on a biased sample plus
/// population marginals.
[[nodiscard]] Result<std::unique_ptr<PopulationGenerator>> TrainPopulationGenerator(
    OpenEngine engine, const Table& sample,
    const std::vector<stats::Marginal>& marginals,
    const GeneratorOptions& options);

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_RESEARCH_GENERATOR_H_
