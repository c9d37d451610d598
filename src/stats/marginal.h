// Marginals: the population metadata Mosaic debiases against (§3.2).
//
// A Marginal is a 1- or 2-dimensional histogram of ground-truth
// population counts — "commonly released by corporations or
// governments ... e.g., Data.Gov yearly reports". Attributes are
// binned either *categorically* (one bin per distinct value — used for
// string attributes and for integer attributes, matching the paper's
// flights setup where "the marginals are just projections of the
// population data") or *continuously* (equi-width bins — used for
// real-valued attributes like the synthetic spiral).
#ifndef MOSAIC_STATS_MARGINAL_H_
#define MOSAIC_STATS_MARGINAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/table.h"

namespace mosaic {
namespace stats {

/// How one attribute of a marginal is discretized.
class AttributeBinning {
 public:
  /// One bin per category value (string or integer attributes).
  static AttributeBinning Categorical(std::string attr,
                                      std::vector<Value> categories);

  /// Equi-width bins over [lo, hi] (real-valued attributes).
  static AttributeBinning Continuous(std::string attr, double lo, double hi,
                                     size_t num_bins);

  const std::string& attr() const { return attr_; }
  bool is_categorical() const { return categorical_; }
  size_t num_bins() const;

  /// Bin index of a value. Continuous values clamp into the edge
  /// bins; unseen categorical values return NotFound (they are
  /// outside the marginal's support).
  [[nodiscard]] Result<size_t> BinOf(const Value& v) const;

  /// BinOf's continuous arithmetic on a plain double (requires
  /// !is_categorical()): clamps into the edge bins.
  size_t ContinuousBinOf(double x) const;

  /// Representative value of a bin: the category, or the bin center.
  Value BinRepresentative(size_t bin) const;

  /// Continuous bin bounds (requires !is_categorical()).
  double BinLo(size_t bin) const;
  double BinHi(size_t bin) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  const std::vector<Value>& categories() const { return categories_; }

 private:
  std::string attr_;
  bool categorical_ = true;
  std::vector<Value> categories_;
  std::map<Value, size_t> category_index_;
  double lo_ = 0.0, hi_ = 1.0, width_ = 1.0;
  size_t num_continuous_bins_ = 0;
};

/// A 1- or 2-dimensional marginal: attribute binnings plus a
/// flattened, row-major count tensor.
class Marginal {
 public:
  /// From explicit binnings and counts (counts.size() must equal the
  /// product of bin counts; all counts must be >= 0).
  [[nodiscard]] static Result<Marginal> FromCounts(std::vector<AttributeBinning> attrs,
                                     std::vector<double> counts);

  /// From a metadata relation shaped like the paper's
  /// `CREATE METADATA ... AS (SELECT A[, B], COUNT(*) ... GROUP BY ...)`
  /// output: 1 or 2 attribute columns followed by one numeric count
  /// column. String/int attribute columns get categorical bins over
  /// their distinct values.
  [[nodiscard]] static Result<Marginal> FromMetadataTable(const Table& table);

  /// Ground-truth construction from raw data (used by benches for the
  /// true population and for adding sample marginals over uncovered
  /// attributes, §5.2). String columns -> categorical bins; double
  /// columns -> `continuous_bins` equi-width bins over the data range;
  /// integer columns -> value-level categorical bins (the paper's
  /// flights setting: "the marginals are just projections"), unless
  /// they have more than `max_int_categories` distinct values, in
  /// which case they fall back to equi-width bins. `weight_column`
  /// optionally weights rows.
  [[nodiscard]] static Result<Marginal> FromData(
      const Table& data, const std::vector<std::string>& attrs,
      size_t continuous_bins = 50, const std::string& weight_column = "",
      size_t max_int_categories = static_cast<size_t>(-1));

  size_t arity() const { return attrs_.size(); }
  const AttributeBinning& binning(size_t i) const { return attrs_[i]; }
  const std::vector<std::string> attribute_names() const;

  size_t NumCells() const;
  double count(size_t cell) const { return counts_[cell]; }
  const std::vector<double>& counts() const { return counts_; }
  double total() const { return total_; }

  /// Flattened cell index from per-attribute bin indices.
  size_t CellIndex(const std::vector<size_t>& bins) const;
  /// Per-attribute bin indices from a flattened cell index.
  std::vector<size_t> CellCoords(size_t cell) const;

  /// Flattened cell of one table row (resolves attribute columns by
  /// name). NotFound when a categorical value is outside the
  /// marginal's support.
  [[nodiscard]] Result<size_t> CellOfRow(const Table& table, size_t row) const;

  /// Cell ids for every row of `table`; -1 marks rows outside the
  /// marginal's support (exactly where CellOfRow fails). Bins straight
  /// from column storage: dictionary codes and numeric categories go
  /// through BinOf once per distinct value, continuous bins are
  /// computed in place.
  [[nodiscard]] Result<std::vector<int64_t>> CellIds(const Table& table) const;

  /// Draw n cells with probability proportional to their counts.
  std::vector<size_t> SampleCells(size_t n, Rng* rng) const;

  /// L1 distance between this marginal's *normalized* distribution
  /// and the weighted empirical distribution of `table` (rows outside
  /// the support contribute their mass to the error). This is the
  /// convergence diagnostic for IPF and the marginal-fit metric in
  /// the benches.
  [[nodiscard]] Result<double> L1Error(const Table& table,
                         const std::vector<double>& weights) const;

  /// L1Error over cell ids already computed by CellIds (one weight per
  /// cell id). IPF's convergence check calls this on the ids it
  /// computes once per fit; L1Error is CellIds plus this.
  double L1ErrorOfCells(const std::vector<int64_t>& cells,
                        const std::vector<double>& weights) const;

  /// The L1 arithmetic itself, over weight masses already summed in
  /// row order: `observed` per cell, `observed_total` over all rows,
  /// `out_of_support` over rows outside the support. L1ErrorOfCells
  /// sums them and calls this; IPF sums them inside its raking pass.
  double L1ErrorOfMasses(const std::vector<double>& observed,
                         double observed_total, double out_of_support) const;

  /// Pretty rendering for debugging.
  std::string ToString(size_t max_cells = 10) const;

 private:
  std::vector<AttributeBinning> attrs_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_STATS_MARGINAL_H_
