// Ablations for the design decisions DESIGN.md calls out:
//
//   A1. IPF iteration count vs marginal error (convergence behaviour).
//   A2. M-SWG λ sweep on the spiral: the sample-coverage term trades
//       marginal fit against staying on the manifold (Eq. 1).
//   A3. Projections-per-step sweep for 2-D marginals (the sliced-
//       Wasserstein estimator's cost/variance knob).
//   A4. Batch-norm on/off for the generator.
//   A5. Explicit (Chow-Liu Bayesian network, the Themis approach) vs
//       implicit (M-SWG) generative model as the OPEN engine.
//   A6. One-hot vs binary categorical encoding (§7 "Data Encoding"):
//       binary shrinks the embedding but "introduces various
//       relationships between attribute values that may not exist".
//   A7. OPEN engine comparison on mixed categorical/numeric data:
//       M-SWG vs Bayesian network vs KDE (§4.2's plug-in point).
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "core/mswg.h"
#include "data/flights.h"
#include "data/spiral.h"
#include "research/bayes_net.h"
#include "research/generator.h"
#include "stats/ipf.h"

using namespace mosaic;
using bench::Check;
using bench::Unwrap;

namespace {

double MarginalError(const stats::Marginal& m, const Table& t) {
  std::vector<double> unit(t.num_rows(), 1.0);
  return Unwrap(m.L1Error(t, unit), "l1");
}

double RangeQueryError(const Table& population, const Table& generated,
                       size_t num_queries, double coverage, Rng* rng) {
  double pop_n = static_cast<double>(population.num_rows());
  std::vector<double> w(generated.num_rows(),
                        pop_n / static_cast<double>(generated.num_rows()));
  std::vector<double> errs;
  for (size_t q = 0; q < num_queries; ++q) {
    auto box = data::MakeRandomRangeQuery(population, coverage, rng);
    double truth = data::CountInBox(population, box);
    double est = data::CountInBox(generated, box, &w);
    errs.push_back(PercentDiff(est, truth));
  }
  return Mean(errs);
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  const bool full = bench::FullScale();
  std::printf("=== bench_ablation (%s budget) ===\n\n",
              full ? "paper" : "reduced");

  Rng rng(2020);
  data::SpiralOptions pop_opts;
  pop_opts.population_size = full ? 100000 : 40000;
  Table population = data::GenerateSpiralPopulation(pop_opts, &rng);
  data::SpiralBiasOptions bias;
  bias.sample_size = 6000;
  Table sample = Unwrap(data::DrawBiasedSpiralSample(population, bias, &rng),
                        "sample");
  auto mx = Unwrap(stats::Marginal::FromData(population, {"x"}, 50), "mx");
  auto my = Unwrap(stats::Marginal::FromData(population, {"y"}, 50), "my");
  auto mxy =
      Unwrap(stats::Marginal::FromData(population, {"x", "y"}, 20), "mxy");

  // ---- A1: IPF iterations vs error --------------------------------------
  std::printf("--- A1: IPF iterations vs max marginal L1 error ---\n");
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t iters : {1u, 2u, 5u, 10u, 25u, 100u}) {
      std::vector<double> w(sample.num_rows(), 1.0);
      stats::IpfOptions opts;
      opts.max_iterations = iters;
      opts.tolerance = 0.0;  // always run the full budget
      auto report = Unwrap(
          stats::IterativeProportionalFit(sample, {mx, my}, &w, opts),
          "ipf");
      rows.push_back({std::to_string(iters),
                      FormatDouble(report.max_l1_error, 6)});
    }
    std::printf("%s\n",
                RenderTable({"iterations", "max L1 error"}, rows).c_str());
    std::printf("(expected: monotone decrease, most of it in the first few "
                "cycles)\n\n");
  }

  auto train = [&](core::MswgOptions opts,
                   std::vector<stats::Marginal> margs) {
    opts.batch_size = 500;
    opts.hidden_layers = 3;
    opts.hidden_nodes = full ? 100 : 64;
    opts.latent_dim = 2;
    opts.epochs = full ? 40 : 12;
    opts.steps_per_epoch = 40;
    opts.seed = 33;
    return Unwrap(core::Mswg::Train(sample, std::move(margs), opts),
                  "train");
  };

  // ---- A2: λ sweep -------------------------------------------------------
  std::printf("--- A2: M-SWG lambda sweep (marginal fit vs manifold) ---\n");
  {
    std::vector<std::vector<std::string>> rows;
    for (double lambda : {0.0, 0.004, 0.04, 0.4, 4.0}) {
      core::MswgOptions opts;
      opts.lambda = lambda;
      auto model = train(opts, {mx, my});
      Rng grng(50);
      Table gen = Unwrap(model->Generate(5000, &grng), "gen");
      Rng qrng(51);
      rows.push_back(
          {FormatDouble(lambda, 4),
           FormatDouble(MarginalError(mx, gen), 4),
           FormatDouble(MarginalError(my, gen), 4),
           FormatDouble(RangeQueryError(population, gen, 40, 0.4, &qrng),
                        2)});
    }
    std::printf(
        "%s\n",
        RenderTable({"lambda", "x-marg L1", "y-marg L1", "range err %"},
                    rows)
            .c_str());
    std::printf("(expected: larger lambda pins the generator to the biased "
                "sample, degrading marginal fit; tiny lambda risks leaving "
                "the manifold)\n\n");
  }

  // ---- A3: projections-per-step sweep ------------------------------------
  std::printf("--- A3: projections per step for the 2-D (x,y) marginal "
              "---\n");
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t p : {1u, 4u, 16u, 64u}) {
      core::MswgOptions opts;
      opts.lambda = 0.04;
      opts.projections_per_step = p;
      auto model = train(opts, {mxy});
      Rng grng(60);
      Table gen = Unwrap(model->Generate(5000, &grng), "gen");
      Rng qrng(61);
      rows.push_back(
          {std::to_string(p), FormatDouble(MarginalError(mxy, gen), 4),
           FormatDouble(RangeQueryError(population, gen, 40, 0.4, &qrng),
                        2)});
    }
    std::printf("%s\n",
                RenderTable({"proj/step", "xy-marg L1", "range err %"}, rows)
                    .c_str());
    std::printf("(expected: more projections per step reduce estimator "
                "variance; returns diminish quickly)\n\n");
  }

  // ---- A4: batch-norm ablation -------------------------------------------
  std::printf("--- A4: batch normalization on/off ---\n");
  {
    std::vector<std::vector<std::string>> rows;
    for (bool bn : {true, false}) {
      core::MswgOptions opts;
      opts.lambda = 0.04;
      opts.batch_norm = bn;
      auto model = train(opts, {mx, my});
      Rng grng(70);
      Table gen = Unwrap(model->Generate(5000, &grng), "gen");
      rows.push_back({bn ? "on" : "off",
                      FormatDouble(model->final_loss(), 5),
                      FormatDouble(MarginalError(mx, gen), 4),
                      FormatDouble(MarginalError(my, gen), 4)});
    }
    std::printf("%s\n",
                RenderTable({"batch norm", "final loss", "x-marg L1",
                             "y-marg L1"},
                            rows)
                    .c_str());
  }

  // ---- A5: explicit BN vs implicit M-SWG generator ------------------------
  std::printf("--- A5: Chow-Liu Bayesian network (explicit, Themis-style) "
              "vs M-SWG (implicit) ---\n");
  {
    // The BN is fit on the IPF-reweighted sample (the Themis recipe:
    // reweight first, then model), the M-SWG directly on sample +
    // marginals.
    std::vector<double> w(sample.num_rows(), 1.0);
    Check(stats::IterativeProportionalFit(sample, {mx, my}, &w).status(),
          "ipf for bn");
    Table weighted = sample;
    Check(weighted.AddDoubleColumn("w", w), "weights");
    stats::BayesNetOptions bn_opts;
    bn_opts.continuous_bins = 24;
    auto bn = Unwrap(stats::ChowLiuTree::Fit(weighted, "w", bn_opts), "bn");
    Rng brng(80);
    Table bn_gen = Unwrap(bn.SampleRows(5000, &brng), "bn gen");

    core::MswgOptions opts;
    opts.lambda = 0.04;
    auto model = train(opts, {mx, my});
    Rng grng(81);
    Table mswg_gen = Unwrap(model->Generate(5000, &grng), "mswg gen");

    Rng qrng(82);
    Rng qrng2(82);
    std::printf(
        "%s\n",
        RenderTable(
            {"generator", "x-marg L1", "y-marg L1", "range err %"},
            {{"Chow-Liu BN", FormatDouble(MarginalError(mx, bn_gen), 4),
              FormatDouble(MarginalError(my, bn_gen), 4),
              FormatDouble(RangeQueryError(population, bn_gen, 40, 0.4,
                                           &qrng),
                           2)},
             {"M-SWG", FormatDouble(MarginalError(mx, mswg_gen), 4),
              FormatDouble(MarginalError(my, mswg_gen), 4),
              FormatDouble(RangeQueryError(population, mswg_gen, 40, 0.4,
                                           &qrng2),
                           2)}})
            .c_str());
    std::printf("(on this low-dimensional continuous task a discretized "
                "explicit model is competitive — the paper's case for the "
                "implicit M-SWG is high-dimensional mixed data, where "
                "explicit models must enumerate the attribute domain, "
                "§4.2/§7 'Data Encoding')\n\n");
  }

  // ---- A6 + A7: mixed-data ablations on a flights-like world -------------
  Rng frng(7);
  data::FlightsOptions fopts;
  fopts.num_rows = full ? 120000 : 40000;
  Table fpop = data::GenerateFlights(fopts, &frng);
  data::FlightsBiasOptions fbias;
  Table fsample =
      Unwrap(data::DrawBiasedFlightsSample(fpop, fbias, &frng), "fsample");
  std::vector<stats::Marginal> fmargs;
  for (const char* attr : {"carrier", "distance"}) {
    fmargs.push_back(Unwrap(
        stats::Marginal::FromData(fpop, {attr, "elapsed_time"}),
        "fmarg"));
  }
  auto carrier_marg =
      Unwrap(stats::Marginal::FromData(fpop, {"carrier"}), "carrier marg");

  // Avg percent diff of the per-carrier count distribution.
  auto carrier_error = [&](const Table& gen) {
    std::vector<double> unit(gen.num_rows(), 1.0);
    return Unwrap(carrier_marg.L1Error(gen, unit), "carrier err");
  };

  std::printf("--- A6: one-hot vs binary categorical encoding (M-SWG) "
              "---\n");
  {
    std::vector<std::vector<std::string>> rows;
    for (auto enc : {core::CategoricalEncoding::kOneHot,
                     core::CategoricalEncoding::kBinary}) {
      core::MswgOptions opts;
      opts.latent_dim = 0;
      opts.hidden_layers = 5;
      opts.hidden_nodes = 50;
      opts.lambda = 1e-7;
      opts.batch_size = 500;
      opts.projections_per_step = 16;
      opts.epochs = full ? 40 : 10;
      opts.steps_per_epoch = 40;
      opts.seed = 5;
      opts.categorical_encoding = enc;
      auto model = Unwrap(core::Mswg::Train(fsample, fmargs, opts),
                          "train enc");
      Rng grng(90);
      Table gen = Unwrap(model->Generate(5000, &grng), "gen enc");
      rows.push_back(
          {enc == core::CategoricalEncoding::kOneHot ? "one-hot" : "binary",
           std::to_string(model->encoder().encoded_dim()),
           FormatDouble(carrier_error(gen), 4)});
    }
    std::printf("%s\n",
                RenderTable({"encoding", "encoded dims",
                             "carrier-marginal L1"},
                            rows)
                    .c_str());
    std::printf("(binary packs 14 carriers into 4 bits; §7 warns it "
                "introduces spurious value adjacencies — in exchange the "
                "smaller embedding can be easier to optimize, so which "
                "side wins is budget-dependent)\n\n");
  }

  std::printf("--- A7: OPEN engine comparison on mixed data ---\n");
  {
    core::GeneratorOptions gopts;
    gopts.mswg.latent_dim = 0;
    gopts.mswg.hidden_layers = 5;
    gopts.mswg.hidden_nodes = 50;
    gopts.mswg.lambda = 1e-7;
    gopts.mswg.batch_size = 500;
    gopts.mswg.projections_per_step = 16;
    gopts.mswg.epochs = full ? 40 : 10;
    gopts.mswg.steps_per_epoch = 40;
    gopts.bayes_net.continuous_bins = 32;
    std::vector<std::vector<std::string>> rows;
    for (auto engine : {core::OpenEngine::kMswg, core::OpenEngine::kBayesNet,
                        core::OpenEngine::kKde}) {
      auto gen_model = Unwrap(
          core::TrainPopulationGenerator(engine, fsample, fmargs, gopts),
          "train engine");
      Rng grng(91);
      Table gen = Unwrap(gen_model->Generate(5000, &grng), "gen engine");
      // Error on AVG(elapsed_time) for long-distance flights (query-3
      // shape) plus carrier distribution fit.
      double truth = bench::Scalar(bench::RunQuery(
          fpop, "SELECT AVG(elapsed_time) FROM f WHERE distance > 1000"));
      auto est_t = bench::TryRunQuery(
          gen, "SELECT AVG(elapsed_time) FROM f WHERE distance > 1000");
      std::string q3 = "n/a";
      if (est_t.ok() && est_t->num_rows() == 1) {
        q3 = FormatDouble(
            PercentDiff(*est_t->GetValue(0, 0).ToDouble(), truth), 2);
      }
      rows.push_back({core::OpenEngineName(engine),
                      FormatDouble(carrier_error(gen), 4), q3});
    }
    std::printf("%s\n",
                RenderTable({"engine", "carrier-marginal L1",
                             "q3 avg % err"},
                            rows)
                    .c_str());
    std::printf("(no engine dominates: §4.2's point is exactly that the "
                "generator is a plug-in choice — explicit models carry "
                "their distributional assumptions, the implicit M-SWG "
                "carries optimization difficulty on skewed categoricals)\n");
  }
  return 0;
}
