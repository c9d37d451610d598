// OPEN answering (§5): train an M-SWG on the chosen sample and its
// metadata, generate tuples from it, and answer over the generated
// population, each tuple weighted uniformly to the population size
// (§5.3). An aggregate answer averages several generated samples,
// keeping only the groups that appear in all of them.
//
// Trained models live in a bounded LRU cache; training of one cache
// key happens at most once even under concurrent OPEN queries. The
// generated samples of one query can run on a dedicated thread pool;
// sample k always uses seed generation_seed + k, so parallel answers
// are bit-identical to sequential ones.
#ifndef MOSAIC_CORE_OPEN_WORLD_H_
#define MOSAIC_CORE_OPEN_WORLD_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/lru_cache.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/catalog.h"
#include "core/mswg.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace mosaic {
namespace core {

struct OpenOptions {
  /// The M-SWG (§5) that OPEN queries train and generate from.
  MswgOptions mswg;
  /// Rows to generate; 0 = same as the sample size (the paper's
  /// setting: "we generate 10 samples with the same number of rows as
  /// the original sample").
  size_t generated_rows = 0;
  /// Independent generated samples to average over for aggregate
  /// queries (the paper uses 10; the default keeps ad-hoc SQL cheap).
  size_t num_generated_samples = 1;
  uint64_t generation_seed = 7;
};

/// Trains, caches and generates from the M-SWGs behind OPEN answers.
class OpenWorld {
 public:
  /// Default bound on the trained-generator LRU cache (entries).
  static constexpr size_t kDefaultModelCacheCapacity = 16;

  explicit OpenWorld(Catalog* catalog);

  /// Answer `stmt` over generated samples of `population`, trained on
  /// `sample`.
  [[nodiscard]] Result<Table> Answer(const sql::SelectStmt& stmt,
                                     const PopulationInfo& population,
                                     const SampleInfo& sample,
                                     trace::QueryTrace* trace,
                                     uint32_t trace_parent);

  /// One weighted generated table: `rows` generated tuples (0 = the
  /// training size), each carrying weight population_size / rows in
  /// column "weight", keeping only the rows a derived population's
  /// predicate selects.
  [[nodiscard]] Result<Table> GenerateTable(const PopulationInfo& population,
                                            const SampleInfo& sample,
                                            size_t rows, uint64_t seed);

  OpenOptions* mutable_options() { return &options_; }

  /// Drop all cached trained generators. Thread-safe: OPEN queries in
  /// flight keep their shared_ptr to the model they already fetched.
  void InvalidateModelCache() {
    model_cache_.Clear();
    MutexLock lock(train_mu_);
    train_mutexes_.clear();
  }

  /// Re-bound the trained-generator LRU cache, evicting as needed.
  void set_model_cache_capacity(size_t capacity) {
    model_cache_.set_capacity(capacity);
  }

  /// Hit/miss/eviction counters of the trained-generator cache (the
  /// per-process `mosaic_model_cache_*` metrics) and its capacity.
  CacheStats ModelCacheStats() const { return model_cache_.Stats(); }

  /// When set, an OPEN query's generated samples run on this pool
  /// instead of sequentially. The pool must not be one whose tasks
  /// block on this module's owner (the query service dedicates a
  /// generation pool).
  void set_generation_pool(ThreadPool* pool) { gen_pool_ = pool; }

 private:
  /// A trained (or cache-fetched) generator plus everything needed to
  /// turn it into weighted open-world tables without touching the
  /// catalog again — the unit of work handed to generation threads.
  struct Model {
    std::shared_ptr<const Mswg> model;
    double population_size = 0.0;
    /// Row count used when the caller passes rows == 0 (the paper's
    /// "same number of rows as the original sample").
    size_t default_rows = 0;
    /// Non-null when generated tuples represent the GP and the query
    /// population is a view: filter after generation.
    const sql::Expr* restrict_predicate = nullptr;
  };

  /// Fetch the population's generator from the LRU cache or train it.
  [[nodiscard]] Result<Model> PrepareModel(const PopulationInfo& population,
                                           const SampleInfo& sample);

  /// Generate `rows` tuples with `seed`, weight them (§5.3), restrict
  /// them to the query population, and return `consume(view, sel)` of
  /// the weighted view and the restriction. Const and thread-safe:
  /// generation threads share the model and differ only in the seed.
  template <typename Consume>
  [[nodiscard]] Result<Table> Generate(const Model& model, size_t rows,
                                       uint64_t seed,
                                       const Consume& consume) const;

  Catalog* catalog_;
  OpenOptions options_;
  LruCache<std::string, std::shared_ptr<const Mswg>> model_cache_;
  /// Per-cache-key training locks: concurrent OPEN queries on the
  /// same key train once instead of racing, while different keys
  /// train independently. train_mu_ only guards the lock map itself
  /// (cleared together with the model cache, so it cannot grow
  /// without bound as ingest changes keys).
  Mutex train_mu_;
  std::unordered_map<std::string, std::shared_ptr<std::mutex>>
      train_mutexes_ GUARDED_BY(train_mu_);
  ThreadPool* gen_pool_ = nullptr;
};

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_OPEN_WORLD_H_
