#include "research/generator.h"

#include "research/bayes_net.h"

namespace mosaic {
namespace core {

const char* OpenEngineName(OpenEngine engine) {
  switch (engine) {
    case OpenEngine::kMswg:
      return "m-swg";
    case OpenEngine::kBayesNet:
      return "bayes-net";
    case OpenEngine::kKde:
      return "kde";
  }
  return "?";
}

namespace {

class MswgGenerator : public PopulationGenerator {
 public:
  explicit MswgGenerator(std::unique_ptr<Mswg> model)
      : model_(std::move(model)) {}

  [[nodiscard]] Result<Table> Generate(size_t n, Rng* rng) const override {
    return model_->Generate(n, rng);
  }
  std::string name() const override { return "m-swg"; }

 private:
  std::unique_ptr<Mswg> model_;
};

class BayesNetGenerator : public PopulationGenerator {
 public:
  explicit BayesNetGenerator(stats::ChowLiuTree tree)
      : tree_(std::move(tree)) {}

  [[nodiscard]] Result<Table> Generate(size_t n, Rng* rng) const override {
    return tree_.SampleRows(n, rng);
  }
  std::string name() const override { return "bayes-net"; }

 private:
  stats::ChowLiuTree tree_;
};

class KdeGenerator : public PopulationGenerator {
 public:
  explicit KdeGenerator(stats::MixedKde kde) : kde_(std::move(kde)) {}

  [[nodiscard]] Result<Table> Generate(size_t n, Rng* rng) const override {
    return kde_.Sample(n, rng);
  }
  std::string name() const override { return "kde"; }

 private:
  stats::MixedKde kde_;
};

/// The explicit engines debias first: IPF-reweight the sample against
/// the marginals, then model the weighted sample.
[[nodiscard]] Result<std::vector<double>> DebiasWeights(
    const Table& sample, const std::vector<stats::Marginal>& marginals,
    const stats::IpfOptions& ipf) {
  std::vector<double> weights(sample.num_rows(), 1.0);
  if (!marginals.empty()) {
    MOSAIC_RETURN_IF_ERROR(
        stats::IterativeProportionalFit(sample, marginals, &weights, ipf)
            .status());
  }
  return weights;
}

}  // namespace

[[nodiscard]] Result<std::unique_ptr<PopulationGenerator>> TrainPopulationGenerator(
    OpenEngine engine, const Table& sample,
    const std::vector<stats::Marginal>& marginals,
    const GeneratorOptions& options) {
  switch (engine) {
    case OpenEngine::kMswg: {
      MOSAIC_ASSIGN_OR_RETURN(auto model,
                              Mswg::Train(sample, marginals, options.mswg));
      return std::unique_ptr<PopulationGenerator>(
          new MswgGenerator(std::move(model)));
    }
    case OpenEngine::kBayesNet: {
      MOSAIC_ASSIGN_OR_RETURN(
          auto weights, DebiasWeights(sample, marginals, options.ipf));
      Table weighted = sample;
      MOSAIC_RETURN_IF_ERROR(
          weighted.AddDoubleColumn("__gen_weight", weights));
      MOSAIC_ASSIGN_OR_RETURN(
          auto tree, stats::ChowLiuTree::Fit(weighted, "__gen_weight",
                                             options.bayes_net));
      return std::unique_ptr<PopulationGenerator>(
          new BayesNetGenerator(std::move(tree)));
    }
    case OpenEngine::kKde: {
      MOSAIC_ASSIGN_OR_RETURN(
          auto weights, DebiasWeights(sample, marginals, options.ipf));
      MOSAIC_ASSIGN_OR_RETURN(
          auto kde, stats::MixedKde::Fit(sample, weights, options.kde));
      return std::unique_ptr<PopulationGenerator>(
          new KdeGenerator(std::move(kde)));
    }
  }
  return Status::Internal("unknown open engine");
}

}  // namespace core
}  // namespace mosaic
