// The §4.2 plug-in generator contract: every OpenEngine must train on
// (sample, marginals) and generate schema-correct tuples whose
// distribution respects the marginals better than the raw biased
// sample.
#include "research/generator.h"

#include <gtest/gtest.h>

namespace mosaic {
namespace core {
namespace {

/// Biased two-attribute sample: the sample over-represents "hot"
/// tuples 4:1 while the marginal says 50/50.
struct World {
  Table sample;
  std::vector<stats::Marginal> marginals;
};

World MakeWorld() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"temp", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table sample(s);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    bool hot = rng.Bernoulli(0.8);
    EXPECT_TRUE(sample
                    .AppendRow({Value(hot ? "hot" : "cold"),
                                Value(rng.Gaussian(hot ? 1.0 : -1.0, 0.3))})
                    .ok());
  }
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical("temp",
                                            {Value("cold"), Value("hot")})},
      {500, 500});
  EXPECT_TRUE(m.ok());
  World w{std::move(sample), {*m}};
  return w;
}

GeneratorOptions FastOptions() {
  GeneratorOptions opts;
  opts.mswg.hidden_layers = 2;
  opts.mswg.hidden_nodes = 24;
  opts.mswg.batch_size = 128;
  opts.mswg.epochs = 10;
  opts.mswg.steps_per_epoch = 20;
  opts.mswg.lambda = 1e-4;
  opts.bayes_net.continuous_bins = 12;
  return opts;
}

class EngineContract
    : public ::testing::TestWithParam<OpenEngine> {};

TEST_P(EngineContract, GeneratesSchemaCorrectTuples) {
  World world = MakeWorld();
  auto gen = TrainPopulationGenerator(GetParam(), world.sample,
                                      world.marginals, FastOptions());
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  Rng rng(5);
  auto out = (*gen)->Generate(400, &rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 400u);
  ASSERT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().column(0).name, "temp");
  for (size_t r = 0; r < out->num_rows(); ++r) {
    std::string v = out->GetValue(r, 0).AsString();
    EXPECT_TRUE(v == "hot" || v == "cold") << v;
  }
}

TEST_P(EngineContract, ImprovesMarginalFitOverBiasedSample) {
  World world = MakeWorld();
  std::vector<double> unit(world.sample.num_rows(), 1.0);
  double sample_err = *world.marginals[0].L1Error(world.sample, unit);
  auto gen = TrainPopulationGenerator(GetParam(), world.sample,
                                      world.marginals, FastOptions());
  ASSERT_TRUE(gen.ok());
  Rng rng(6);
  auto out = (*gen)->Generate(2000, &rng);
  ASSERT_TRUE(out.ok());
  std::vector<double> gen_unit(out->num_rows(), 1.0);
  double gen_err = *world.marginals[0].L1Error(*out, gen_unit);
  EXPECT_LT(gen_err, sample_err)
      << OpenEngineName(GetParam()) << ": " << gen_err << " vs sample "
      << sample_err;
}

TEST_P(EngineContract, NameIsStable) {
  World world = MakeWorld();
  auto gen = TrainPopulationGenerator(GetParam(), world.sample,
                                      world.marginals, FastOptions());
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ((*gen)->name(), OpenEngineName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineContract,
                         ::testing::Values(OpenEngine::kMswg,
                                           OpenEngine::kBayesNet,
                                           OpenEngine::kKde),
                         [](const auto& info) {
                           // gtest parameter names must be alnum.
                           std::string name = OpenEngineName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (c != '-') out += c;
                           }
                           return out;
                         });

TEST(BinaryEncoding, MswgTrainsAndDecodesWithBinaryCategoricals) {
  World world = MakeWorld();
  MswgOptions opts;
  opts.hidden_layers = 2;
  opts.hidden_nodes = 24;
  opts.batch_size = 128;
  opts.epochs = 8;
  opts.steps_per_epoch = 20;
  opts.lambda = 1e-4;
  opts.categorical_encoding = CategoricalEncoding::kBinary;
  auto model = Mswg::Train(world.sample, world.marginals, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Binary needs ceil(log2(2)) = 1 column for temp + 1 for x.
  EXPECT_EQ((*model)->encoder().encoded_dim(), 2u);
  Rng rng(9);
  auto out = (*model)->Generate(200, &rng);
  ASSERT_TRUE(out.ok());
  for (size_t r = 0; r < out->num_rows(); ++r) {
    std::string v = out->GetValue(r, 0).AsString();
    EXPECT_TRUE(v == "hot" || v == "cold");
  }
}

}  // namespace
}  // namespace core
}  // namespace mosaic
