#include "world.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/flights.h"
#include "exec/executor.h"
#include "sql/parser.h"

namespace mosaic {
namespace perfbench {

namespace {

/// Fixed: the world is the same in every run (see world.h).
constexpr uint64_t kWorldSeed = 2020;

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string SqlLiteral(const Value& v) {
  if (v.type() == DataType::kString) return "'" + v.AsString() + "'";
  return v.ToString();
}

/// `CREATE TABLE <name> (<col> <type>, cnt INT)` plus one INSERT of the
/// population's value counts on `col` — a published report.
void AddReport(const Table& population, const std::string& name,
               const std::string& col, std::vector<std::string>* sql) {
  auto stmt = sql::ParseStatement("SELECT " + col + ", COUNT(*) FROM F GROUP BY " +
                                  col + " ORDER BY " + col);
  Table counts =
      exec::ExecuteSelect(population, stmt->As<sql::SelectStmt>()).value();
  const bool is_string =
      counts.schema().column(0).type == DataType::kString;
  sql->push_back("CREATE TABLE " + name + " (" + col +
                 (is_string ? " VARCHAR" : " INT") + ", cnt INT)");
  std::string insert = "INSERT INTO " + name + " VALUES ";
  for (size_t r = 0; r < counts.num_rows(); ++r) {
    if (r > 0) insert += ", ";
    insert += "(" + SqlLiteral(counts.GetValue(r, 0)) + ", " +
              counts.GetValue(r, 1).ToString() + ")";
  }
  sql->push_back(insert);
}

}  // namespace

World MakeWorld(const WorldSpec& spec) {
  World world;
  world.spec = spec;
  Rng rng(kWorldSeed);
  data::FlightsOptions fopts;
  fopts.num_rows = spec.population_rows;
  world.population = data::GenerateFlights(fopts, &rng);
  data::FlightsBiasOptions bias;  // 95% of the sample has elapsed_time > 200
  bias.sample_fraction = spec.sample_fraction;
  Table sample =
      data::DrawBiasedFlightsSample(world.population, bias, &rng).value();
  // The generator returns the sample in population order; shuffle once
  // (fixed seed) so the held-back rows are a random part of it.
  std::vector<size_t> order = rng.Permutation(sample.num_rows());
  const size_t keep = sample.num_rows() - spec.held_back_rows;
  world.initial = sample.Filter(std::vector<size_t>(order.begin(),
                                                    order.begin() + keep));
  world.held_back = sample.Filter(
      std::vector<size_t>(order.begin() + keep, order.end()));
  AddReport(world.population, "CarrierReport", "carrier", &world.report_sql);
  AddReport(world.population, "ElapsedReport", "elapsed_time",
            &world.report_sql);
  return world;
}

std::map<std::string, double> AnswerMap(const Table& result, bool group_by) {
  std::map<std::string, double> out;
  for (size_t row = 0; row < result.num_rows(); ++row) {
    if (group_by) {
      out[result.GetValue(row, 0).AsString()] =
          result.GetValue(row, 1).ToDouble().value();
    } else {
      out[""] = result.GetValue(row, 0).ToDouble().value();
    }
  }
  return out;
}

std::vector<Probe> Table2Probes(const World& world) {
  std::vector<Probe> probes = {
      {1, "SELECT %s AVG(distance) FROM Flights WHERE elapsed_time > 200",
       false, {}},
      {2, "SELECT %s AVG(taxi_in) FROM Flights WHERE elapsed_time < 200",
       false, {}},
      {3, "SELECT %s AVG(elapsed_time) FROM Flights WHERE distance > 1000",
       false, {}},
      {4, "SELECT %s AVG(taxi_out) FROM Flights WHERE distance < 1000",
       false, {}},
      {5, "SELECT %s carrier, AVG(distance) FROM Flights WHERE "
          "elapsed_time > 200 AND carrier IN ('WN','AA') GROUP BY carrier",
       true, {}},
      {6, "SELECT %s carrier, AVG(taxi_in) FROM Flights WHERE "
          "elapsed_time < 200 AND carrier IN ('WN','AA') GROUP BY carrier",
       true, {}},
      {7, "SELECT %s carrier, AVG(elapsed_time) FROM Flights WHERE "
          "distance > 1000 AND carrier IN ('WN','AA') GROUP BY carrier",
       true, {}},
      {8, "SELECT %s carrier, AVG(taxi_out) FROM Flights WHERE "
          "distance < 1000 AND carrier IN ('US','F9') GROUP BY carrier",
       true, {}},
  };
  for (Probe& p : probes) {
    auto stmt = sql::ParseStatement(StrFormat(p.sql.c_str(), ""));
    p.truth = AnswerMap(
        exec::ExecuteSelect(world.population, stmt->As<sql::SelectStmt>())
            .value(),
        p.group_by);
  }
  return probes;
}

double AvgPercentDiff(const std::map<std::string, double>& estimate,
                      const std::map<std::string, double>& truth) {
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [key, true_v] : truth) {
    auto it = estimate.find(key);
    acc += it == estimate.end() ? 100.0 : PercentDiff(it->second, true_v);
  }
  return acc / static_cast<double>(truth.size());
}

std::string InsertSql(const Table& rows, size_t begin, size_t end) {
  std::string sql = "INSERT INTO GateLogs VALUES ";
  for (size_t r = begin; r < end; ++r) {
    if (r > begin) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      if (c > 0) sql += ", ";
      sql += SqlLiteral(rows.GetValue(r, c));
    }
    sql += ")";
  }
  return sql;
}

service::ServiceOptions ServiceOptionsFor(const std::string& data_dir,
                                          size_t cpus) {
  service::ServiceOptions opts;
  opts.num_request_threads = cpus;
  opts.num_generation_threads = cpus;
  opts.data_dir = data_dir;
  opts.durable_fsync_dml = true;
  return opts;
}

void ConfigureOpen(const WorldSpec& spec, core::Database* db) {
  core::OpenOptions* open = db->mutable_open_options();
  open->generated_rows = spec.generated_rows;
  open->num_generated_samples = spec.generated_samples;
  core::MswgOptions& m = open->mswg;
  // The paper's flights architecture (§5.3) at a reduced budget.
  m.latent_dim = 0;
  m.hidden_layers = 5;
  m.hidden_nodes = 50;
  m.lambda = 1e-7;
  m.num_projections = 1000;
  m.projections_per_step = 24;
  m.batch_size = 500;
  m.softmax_categorical = true;
  m.epochs = spec.mswg_epochs;
  m.steps_per_epoch = spec.mswg_steps_per_epoch;
  m.seed = 11;
}

Status Setup(const World& world, bool train, service::QueryService* service,
             SetupTiming* timing) {
  core::Database* db = service->database();
  ConfigureOpen(world.spec, db);
  service::Session session = service->OpenSession();
  std::vector<std::string> ddl = {
      "CREATE GLOBAL POPULATION Flights (carrier VARCHAR, taxi_out INT, "
      "taxi_in INT, elapsed_time INT, distance INT)"};
  ddl.insert(ddl.end(), world.report_sql.begin(), world.report_sql.end());
  ddl.push_back(
      "CREATE METADATA Flights_M1 FOR Flights AS "
      "(SELECT carrier, cnt FROM CarrierReport)");
  ddl.push_back(
      "CREATE METADATA Flights_M2 FOR Flights AS "
      "(SELECT elapsed_time, cnt FROM ElapsedReport)");
  ddl.push_back("CREATE SAMPLE GateLogs AS (SELECT * FROM Flights)");
  for (const std::string& sql : ddl) {
    MOSAIC_RETURN_IF_ERROR(session.Execute(sql).status());
  }
  MOSAIC_RETURN_IF_ERROR(db->IngestSample("GateLogs", world.initial));

  const auto fit_start = std::chrono::steady_clock::now();
  MOSAIC_ASSIGN_OR_RETURN(stats::IpfReport report,
                          db->ReweightForPopulation("Flights"));
  timing->ipf_cold_ms = Since(fit_start) * 1e3;
  timing->ipf_iterations = report.iterations;
  timing->ipf_l1_err = report.max_l1_error;

  if (train) {
    const auto train_start = std::chrono::steady_clock::now();
    MOSAIC_RETURN_IF_ERROR(
        db->GenerateOpenWorldTable("Flights", world.spec.generated_rows, 1)
            .status());
    timing->train_ms = Since(train_start) * 1e3;
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace mosaic
