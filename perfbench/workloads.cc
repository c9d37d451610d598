#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace mosaic {
namespace perfbench {

namespace {

/// Reduced world (bench_flights' default scale): 120k flights, 6k-row
/// sample.
WorldSpec ReducedWorld() {
  WorldSpec spec;
  spec.population_rows = 120000;
  return spec;
}

/// A sample row to anchor literals on: its values satisfy the
/// predicate built around them, so the selection is never empty.
struct Anchor {
  std::string carrier;
  int64_t taxi_out, taxi_in, elapsed, distance;
};

Anchor PickAnchor(const Table& rows, Rng* rng) {
  size_t r = rng->UniformInt(static_cast<uint64_t>(rows.num_rows()));
  auto i64 = [&](size_t col) {
    return static_cast<int64_t>(rows.GetValue(r, col).ToDouble().value());
  };
  return {rows.GetValue(r, 0).AsString(), i64(1), i64(2), i64(3), i64(4)};
}

/// One ad-hoc statement with fresh literals: filter + AVG, GROUP BY,
/// `carrier =` + range, BETWEEN + GROUP BY.
std::string AdhocStatement(const Table& rows, const char* visibility,
                           Rng* rng) {
  Anchor a = PickAnchor(rows, rng);
  auto lo = [&](int64_t v, int64_t spread) {
    return v - rng->UniformInt(int64_t{0}, spread);
  };
  auto hi = [&](int64_t v, int64_t spread) {
    return v + rng->UniformInt(int64_t{0}, spread);
  };
  switch (rng->UniformInt(uint64_t{4})) {
    case 0:
      return StrFormat(
          "SELECT %s AVG(distance) FROM Flights WHERE elapsed_time BETWEEN "
          "%lld AND %lld",
          visibility, (long long)lo(a.elapsed, 60), (long long)hi(a.elapsed, 60));
    case 1:
      return StrFormat(
          "SELECT %s carrier, COUNT(*) FROM Flights WHERE distance >= %lld "
          "GROUP BY carrier",
          visibility, (long long)lo(a.distance, 400));
    case 2:
      return StrFormat(
          "SELECT %s AVG(taxi_out) FROM Flights WHERE carrier = '%s' AND "
          "distance BETWEEN %lld AND %lld",
          visibility, a.carrier.c_str(), (long long)lo(a.distance, 500),
          (long long)hi(a.distance, 500));
    default:
      return StrFormat(
          "SELECT %s carrier, AVG(elapsed_time) FROM Flights WHERE taxi_in "
          "BETWEEN %lld AND %lld GROUP BY carrier",
          visibility, (long long)lo(a.taxi_in, 3), (long long)hi(a.taxi_in, 3));
  }
}

const char* HalfAndHalf(Rng* rng) {
  return rng->Bernoulli(0.5) ? "CLOSED" : "SEMI-OPEN";
}

/// Zipf-distributed picks over a fixed set of 64 statements, all of
/// which fit the service's 256-entry result cache.
class DashboardStream : public Stream {
 public:
  DashboardStream(const World& world, uint64_t seed) : rng_(seed) {
    // The dashboard and the popularity of each statement are fixed, so
    // every seed sends the same mix; the seed drives the draws.
    Rng fixed(64);
    for (int i = 0; i < 64; ++i) {
      statements_.push_back(
          AdhocStatement(world.initial, HalfAndHalf(&fixed), &fixed));
    }
    double acc = 0;
    for (size_t k = 1; k <= statements_.size(); ++k) {
      acc += 1.0 / static_cast<double>(k);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  std::string Next() override {
    size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.Uniform()) -
               cdf_.begin();
    return statements_[std::min(k, statements_.size() - 1)];
  }

 private:
  Rng rng_;
  std::vector<std::string> statements_;
  std::vector<double> cdf_;
};

class AdhocStream : public Stream {
 public:
  AdhocStream(const World& world, uint64_t seed, bool semi_open_only)
      : rows_(world.initial), rng_(seed), semi_open_only_(semi_open_only) {}

  std::string Next() override {
    return AdhocStatement(
        rows_, semi_open_only_ ? "SEMI-OPEN" : HalfAndHalf(&rng_), &rng_);
  }

 private:
  const Table& rows_;
  Rng rng_;
  bool semi_open_only_;
};

/// OPEN statements whose predicates never repeat (so the result cache
/// never answers) and stay wide enough that every generated sample
/// has rows in the selection.
class OpenStream : public Stream {
 public:
  explicit OpenStream(uint64_t seed) : rng_(seed) {}

  std::string Next() override {
    for (;;) {
      std::string sql = Candidate();
      if (seen_.insert(sql).second) return sql;
    }
  }

 private:
  std::string Candidate() {
    switch (rng_.UniformInt(uint64_t{3})) {
      case 0:
        return StrFormat(
            "SELECT OPEN AVG(distance) FROM Flights WHERE elapsed_time > "
            "%lld AND taxi_out < %lld",
            (long long)rng_.UniformInt(int64_t{100}, int64_t{220}),
            (long long)rng_.UniformInt(int64_t{16}, int64_t{60}));
      case 1:
        return StrFormat(
            "SELECT OPEN COUNT(*) FROM Flights WHERE distance < %lld AND "
            "taxi_in > %lld",
            (long long)rng_.UniformInt(int64_t{400}, int64_t{4000}),
            (long long)rng_.UniformInt(int64_t{0}, int64_t{4}));
      default:
        return StrFormat(
            "SELECT OPEN carrier, AVG(taxi_out) FROM Flights WHERE distance "
            "BETWEEN %lld AND %lld GROUP BY carrier",
            (long long)rng_.UniformInt(int64_t{31}, int64_t{500}),
            (long long)rng_.UniformInt(int64_t{1500}, int64_t{4983}));
    }
  }

  Rng rng_;
  std::set<std::string> seen_;
};

}  // namespace

std::unique_ptr<Workload> FindWorkload(const std::string& name,
                                       double seconds) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  if (name == "dashboard_hot" || name == "adhoc_scan") {
    w->kind = name == "dashboard_hot" ? Kind::kDashboardHot : Kind::kAdhocScan;
    w->world.held_back_rows = w->burst_batches * kBatchRows;
  } else if (name == "open_world") {
    w->kind = Kind::kOpenWorld;
    w->world = ReducedWorld();
    w->world.generated_rows = 1000;
    w->world.held_back_rows = w->burst_batches * kBatchRows;
    w->train_in_setup = true;
    w->probe_visibility = "OPEN";
    w->verify_statements = 8;
  } else if (name == "ingest_mixed") {
    w->kind = Kind::kIngestMixed;
    w->world = ReducedWorld();
    w->writes_during_reads = true;
    // Starts from half of the sample; the rest is held back for INSERTs.
    w->world.held_back_rows = 3000;
    if (ScheduledBatches(*w, seconds) == 0) return nullptr;
  } else {
    return nullptr;
  }
  return w;
}

size_t ScheduledBatches(const Workload& w, double seconds) {
  if (!w.writes_during_reads) return 0;
  // The traced run appends burst_batches more after the mixed phase.
  const size_t available = w.world.held_back_rows / kBatchRows - w.burst_batches;
  const auto wanted = static_cast<size_t>(std::llround(w.write_rate * seconds));
  return std::min(wanted, available);
}

std::unique_ptr<Stream> MakeStream(const Workload& w, const World& world,
                                   uint64_t seed) {
  switch (w.kind) {
    case Kind::kDashboardHot:
      return std::make_unique<DashboardStream>(world, seed);
    case Kind::kAdhocScan:
      return std::make_unique<AdhocStream>(world, seed, false);
    case Kind::kOpenWorld:
      return std::make_unique<OpenStream>(seed);
    case Kind::kIngestMixed:
      return std::make_unique<AdhocStream>(world, seed, true);
  }
  return nullptr;
}

}  // namespace perfbench
}  // namespace mosaic
