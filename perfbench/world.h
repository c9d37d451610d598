// The benchmark's synthetic flights world (src/data/flights.h) and the
// setup that takes an empty durable service to "ready to answer".
//
// The world is generated from a fixed seed, so answers, answer error
// and the recovered row counts are the same whatever --seed a run gets;
// the run seed drives the statement streams only.
#ifndef MOSAIC_PERFBENCH_WORLD_H_
#define MOSAIC_PERFBENCH_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "service/query_service.h"
#include "storage/table.h"

namespace mosaic {
namespace perfbench {

struct WorldSpec {
  size_t population_rows = 426411;  ///< paper: 426,411 flights
  double sample_fraction = 0.05;    ///< paper: 5 percent sample
  /// Sample rows kept out of setup and appended later as 100-row
  /// INSERT batches.
  size_t held_back_rows = 0;
  /// OPEN queries: rows per generated sample and samples averaged.
  size_t generated_rows = 1500;
  size_t generated_samples = 10;  ///< paper: 10 generated samples
  /// M-SWG training budget (the paper's 5x50 flights architecture).
  size_t mswg_epochs = 6;
  size_t mswg_steps_per_epoch = 20;
};

/// Everything the benchmark generates before a service exists. None of
/// it is part of the measured setup.
struct World {
  WorldSpec spec;
  Table population;  ///< hidden truth; never handed to the service
  Table initial;     ///< sample rows ingested during setup
  Table held_back;   ///< sample rows appended by INSERT batches
  /// Published marginals as SQL: report DDL + INSERTs.
  std::vector<std::string> report_sql;
};

World MakeWorld(const WorldSpec& spec);

/// One Table 2 query (paper §5.3) and its true answer over the hidden
/// population: group key -> value ("" for scalar queries).
struct Probe {
  int id = 0;
  std::string sql;  ///< with a %s placeholder for the visibility keyword
  bool group_by = false;
  std::map<std::string, double> truth;
};

std::vector<Probe> Table2Probes(const World& world);

/// Paper metric: mean percent difference over the truth's groups; a
/// group missing from the estimate counts 100 percent.
double AvgPercentDiff(const std::map<std::string, double>& estimate,
                      const std::map<std::string, double>& truth);

/// Answer of a Table 2 query as group -> value.
std::map<std::string, double> AnswerMap(const Table& result, bool group_by);

/// `INSERT INTO GateLogs VALUES ...` for rows [begin, end) of `rows`.
std::string InsertSql(const Table& rows, size_t begin, size_t end);

/// Options of every service the benchmark builds: durable in
/// `data_dir` with the WAL fsync'd on every logged mutation, pools sized
/// to the pinned CPU set.
service::ServiceOptions ServiceOptionsFor(const std::string& data_dir,
                                          size_t cpus);

/// Apply the world's OPEN-query settings (model budget, generated
/// sample count and size) to a database. Options are not durable, so a
/// recovered service needs this again.
void ConfigureOpen(const WorldSpec& spec, core::Database* db);

/// What one setup measured, split by layer.
struct SetupTiming {
  double ipf_cold_ms = 0;  ///< first ReweightForPopulation
  size_t ipf_iterations = 0;
  double ipf_l1_err = 0;
  double train_ms = 0;  ///< first GenerateOpenWorldTable (0 unless trained)
};

/// Empty service -> ready: population DDL, published reports, CREATE
/// METADATA, sample DDL + ingest of `world.initial`, the first
/// SEMI-OPEN fit (cold IPF) and, when `train` is set, M-SWG training.
Status Setup(const World& world, bool train, service::QueryService* service,
             SetupTiming* timing);

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_WORLD_H_
