#include "stats/marginal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/string_util.h"

namespace mosaic {
namespace stats {

// ---------------------------------------------------------------------------
// AttributeBinning
// ---------------------------------------------------------------------------

AttributeBinning AttributeBinning::Categorical(std::string attr,
                                               std::vector<Value> categories) {
  AttributeBinning b;
  b.attr_ = std::move(attr);
  b.categorical_ = true;
  b.categories_ = std::move(categories);
  for (size_t i = 0; i < b.categories_.size(); ++i) {
    b.category_index_.emplace(b.categories_[i], i);
  }
  return b;
}

AttributeBinning AttributeBinning::Continuous(std::string attr, double lo,
                                              double hi, size_t num_bins) {
  assert(hi > lo && num_bins >= 1);
  AttributeBinning b;
  b.attr_ = std::move(attr);
  b.categorical_ = false;
  b.lo_ = lo;
  b.hi_ = hi;
  b.num_continuous_bins_ = num_bins;
  b.width_ = (hi - lo) / static_cast<double>(num_bins);
  return b;
}

size_t AttributeBinning::num_bins() const {
  return categorical_ ? categories_.size() : num_continuous_bins_;
}

Result<size_t> AttributeBinning::BinOf(const Value& v) const {
  if (categorical_) {
    auto it = category_index_.find(v);
    if (it == category_index_.end()) {
      // Numeric categories may arrive as a different numeric type
      // (int64 vs double); Value::operator< treats numerics
      // uniformly, so the map lookup above already handles that.
      return Status::NotFound("value " + v.ToString() +
                              " not in marginal support of '" + attr_ + "'");
    }
    return it->second;
  }
  MOSAIC_ASSIGN_OR_RETURN(double x, v.ToDouble());
  return ContinuousBinOf(x);
}

size_t AttributeBinning::ContinuousBinOf(double x) const {
  assert(!categorical_);
  if (x <= lo_) return 0;
  if (x >= hi_) return num_continuous_bins_ - 1;
  size_t bin = static_cast<size_t>((x - lo_) / width_);
  return std::min(bin, num_continuous_bins_ - 1);
}

Value AttributeBinning::BinRepresentative(size_t bin) const {
  if (categorical_) return categories_[bin];
  return Value(lo_ + (static_cast<double>(bin) + 0.5) * width_);
}

double AttributeBinning::BinLo(size_t bin) const {
  assert(!categorical_);
  return lo_ + static_cast<double>(bin) * width_;
}

double AttributeBinning::BinHi(size_t bin) const {
  assert(!categorical_);
  return lo_ + static_cast<double>(bin + 1) * width_;
}

// ---------------------------------------------------------------------------
// Marginal
// ---------------------------------------------------------------------------

Result<Marginal> Marginal::FromCounts(std::vector<AttributeBinning> attrs,
                                      std::vector<double> counts) {
  if (attrs.empty() || attrs.size() > 2) {
    return Status::InvalidArgument(
        "marginals must have 1 or 2 attributes (got " +
        std::to_string(attrs.size()) + ")");
  }
  size_t cells = 1;
  for (const auto& a : attrs) {
    if (a.num_bins() == 0) {
      return Status::InvalidArgument("attribute '" + a.attr() +
                                     "' has zero bins");
    }
    cells *= a.num_bins();
  }
  if (counts.size() != cells) {
    return Status::InvalidArgument(
        StrFormat("marginal needs %zu counts, got %zu", cells,
                  counts.size()));
  }
  double total = 0.0;
  for (double c : counts) {
    if (c < 0.0 || !std::isfinite(c)) {
      return Status::InvalidArgument("marginal counts must be >= 0");
    }
    total += c;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("marginal has zero total mass");
  }
  Marginal m;
  m.attrs_ = std::move(attrs);
  m.counts_ = std::move(counts);
  m.total_ = total;
  return m;
}

Result<Marginal> Marginal::FromMetadataTable(const Table& table) {
  size_t ncols = table.num_columns();
  if (ncols != 2 && ncols != 3) {
    return Status::InvalidArgument(
        "metadata relation must be (attr, count) or (attr, attr, count); "
        "got " +
        std::to_string(ncols) + " columns");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("metadata relation is empty");
  }
  size_t count_col = ncols - 1;
  DataType ct = table.schema().column(count_col).type;
  if (ct != DataType::kInt64 && ct != DataType::kDouble) {
    return Status::TypeError("metadata count column '" +
                             table.schema().column(count_col).name +
                             "' must be numeric");
  }
  // Distinct values per attribute column, in sorted order for
  // determinism.
  std::vector<AttributeBinning> attrs;
  std::vector<std::map<Value, size_t>> value_bins(count_col);
  for (size_t c = 0; c < count_col; ++c) {
    std::set<Value> distinct;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      distinct.insert(table.GetValue(r, c));
    }
    std::vector<Value> cats(distinct.begin(), distinct.end());
    attrs.push_back(AttributeBinning::Categorical(
        table.schema().column(c).name, std::move(cats)));
  }
  size_t cells = 1;
  for (const auto& a : attrs) cells *= a.num_bins();
  std::vector<double> counts(cells, 0.0);
  Marginal probe;
  probe.attrs_ = attrs;  // for CellIndex arithmetic
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<size_t> bins(count_col);
    for (size_t c = 0; c < count_col; ++c) {
      MOSAIC_ASSIGN_OR_RETURN(bins[c], attrs[c].BinOf(table.GetValue(r, c)));
    }
    MOSAIC_ASSIGN_OR_RETURN(double cnt,
                            table.GetValue(r, count_col).ToDouble());
    counts[probe.CellIndex(bins)] += cnt;
  }
  return FromCounts(std::move(attrs), std::move(counts));
}

Result<Marginal> Marginal::FromData(const Table& data,
                                    const std::vector<std::string>& attr_names,
                                    size_t continuous_bins,
                                    const std::string& weight_column,
                                    size_t max_int_categories) {
  if (attr_names.empty() || attr_names.size() > 2) {
    return Status::InvalidArgument("marginals must have 1 or 2 attributes");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot build marginal from empty data");
  }
  std::vector<AttributeBinning> attrs;
  std::vector<size_t> col_idx;
  for (const auto& name : attr_names) {
    MOSAIC_ASSIGN_OR_RETURN(size_t idx, data.schema().ColumnIndex(name));
    col_idx.push_back(idx);
    const Column& col = data.column(idx);
    bool continuous = col.type() == DataType::kDouble;
    std::set<Value> distinct;
    if (!continuous) {
      for (size_t r = 0; r < col.size(); ++r) {
        distinct.insert(col.GetValue(r));
      }
      if (col.type() == DataType::kInt64 &&
          distinct.size() > max_int_categories) {
        continuous = true;
      }
    }
    if (continuous) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < col.size(); ++r) {
        double x = *col.GetDouble(r);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      if (hi <= lo) hi = lo + 1.0;  // degenerate constant column
      attrs.push_back(AttributeBinning::Continuous(name, lo, hi,
                                                   continuous_bins));
    } else {
      attrs.push_back(AttributeBinning::Categorical(
          name, std::vector<Value>(distinct.begin(), distinct.end())));
    }
  }
  const Column* wcol = nullptr;
  if (!weight_column.empty()) {
    MOSAIC_ASSIGN_OR_RETURN(wcol, data.ColumnByName(weight_column));
  }
  size_t cells = 1;
  for (const auto& a : attrs) cells *= a.num_bins();
  std::vector<double> counts(cells, 0.0);
  Marginal probe;
  probe.attrs_ = attrs;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::vector<size_t> bins(attrs.size());
    for (size_t a = 0; a < attrs.size(); ++a) {
      MOSAIC_ASSIGN_OR_RETURN(
          bins[a], attrs[a].BinOf(data.GetValue(r, col_idx[a])));
    }
    double w = 1.0;
    if (wcol != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(w, wcol->GetDouble(r));
    }
    counts[probe.CellIndex(bins)] += w;
  }
  return FromCounts(std::move(attrs), std::move(counts));
}

const std::vector<std::string> Marginal::attribute_names() const {
  std::vector<std::string> out;
  out.reserve(attrs_.size());
  for (const auto& a : attrs_) out.push_back(a.attr());
  return out;
}

size_t Marginal::NumCells() const { return counts_.size(); }

size_t Marginal::CellIndex(const std::vector<size_t>& bins) const {
  assert(bins.size() == attrs_.size());
  size_t cell = 0;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    cell = cell * attrs_[i].num_bins() + bins[i];
  }
  return cell;
}

std::vector<size_t> Marginal::CellCoords(size_t cell) const {
  std::vector<size_t> bins(attrs_.size());
  for (size_t i = attrs_.size(); i-- > 0;) {
    bins[i] = cell % attrs_[i].num_bins();
    cell /= attrs_[i].num_bins();
  }
  return bins;
}

Result<size_t> Marginal::CellOfRow(const Table& table, size_t row) const {
  std::vector<size_t> bins(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    MOSAIC_ASSIGN_OR_RETURN(size_t col,
                            table.schema().ColumnIndex(attrs_[a].attr()));
    MOSAIC_ASSIGN_OR_RETURN(bins[a],
                            attrs_[a].BinOf(table.GetValue(row, col)));
  }
  return CellIndex(bins);
}

namespace {

// BinOf as a cell-id component: -1 outside the support.
int64_t BinOrMinusOne(const AttributeBinning& binning, const Value& v) {
  auto bin = binning.BinOf(v);
  return bin.ok() ? static_cast<int64_t>(*bin) : -1;
}

// Bins of n numeric values: categories through BinOf once per
// distinct value, continuous bins by BinOf's arithmetic in place.
template <typename T>
void BinNumeric(const AttributeBinning& binning, const T* values, size_t n,
                int64_t* bins) {
  if (!binning.is_categorical()) {
    for (size_t r = 0; r < n; ++r) {
      bins[r] = static_cast<int64_t>(
          binning.ContinuousBinOf(static_cast<double>(values[r])));
    }
    return;
  }
  std::unordered_map<T, int64_t> memo;
  for (size_t r = 0; r < n; ++r) {
    auto [it, inserted] = memo.try_emplace(values[r], -1);
    if (inserted) it->second = BinOrMinusOne(binning, Value(values[r]));
    bins[r] = it->second;
  }
}

// Bin of every row of `col` under `binning`; -1 outside the support.
std::vector<int64_t> BinColumn(const AttributeBinning& binning,
                               const Column& col) {
  const size_t n = col.size();
  std::vector<int64_t> bins(n, -1);
  switch (col.type()) {
    case DataType::kString: {
      // Codes index a per-dictionary table, filled on a code's first
      // row (the dictionary may hold strings this column never uses).
      constexpr int64_t kUnbinned = -2;
      const Dictionary& dict = col.dictionary();
      std::vector<int64_t> by_code(dict.size(), kUnbinned);
      const int32_t* codes = col.raw_codes();
      for (size_t r = 0; r < n; ++r) {
        int64_t& bin = by_code[static_cast<size_t>(codes[r])];
        if (bin == kUnbinned) {
          bin = BinOrMinusOne(binning, Value(dict.Decode(codes[r])));
        }
        bins[r] = bin;
      }
      break;
    }
    case DataType::kInt64:
      BinNumeric(binning, col.raw_int64(), n, bins.data());
      break;
    case DataType::kDouble:
      BinNumeric(binning, col.raw_double(), n, bins.data());
      break;
    case DataType::kBool: {
      const int64_t by_bool[2] = {BinOrMinusOne(binning, Value(false)),
                                  BinOrMinusOne(binning, Value(true))};
      const uint8_t* values = col.raw_bool();
      for (size_t r = 0; r < n; ++r) bins[r] = by_bool[values[r] != 0];
      break;
    }
    case DataType::kNull:  // columns are never NULL-typed
      break;
  }
  return bins;
}

}  // namespace

Result<std::vector<int64_t>> Marginal::CellIds(const Table& table) const {
  std::vector<const Column*> cols(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    MOSAIC_ASSIGN_OR_RETURN(cols[a], table.ColumnByName(attrs_[a].attr()));
  }
  // Row-major flattening, as CellIndex: cell = cell * num_bins + bin.
  std::vector<int64_t> cells = BinColumn(attrs_[0], *cols[0]);
  for (size_t a = 1; a < attrs_.size(); ++a) {
    const std::vector<int64_t> bins = BinColumn(attrs_[a], *cols[a]);
    const auto num_bins = static_cast<int64_t>(attrs_[a].num_bins());
    for (size_t r = 0; r < cells.size(); ++r) {
      cells[r] = cells[r] < 0 || bins[r] < 0 ? -1
                                             : cells[r] * num_bins + bins[r];
    }
  }
  return cells;
}

std::vector<size_t> Marginal::SampleCells(size_t n, Rng* rng) const {
  // Inverse-CDF sampling over the flattened counts.
  std::vector<double> cdf(counts_.size());
  double acc = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    cdf[i] = acc;
  }
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double target = rng->Uniform() * acc;
    size_t cell = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
    out.push_back(std::min(cell, counts_.size() - 1));
  }
  return out;
}

Result<double> Marginal::L1Error(const Table& table,
                                 const std::vector<double>& weights) const {
  if (weights.size() != table.num_rows()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  MOSAIC_ASSIGN_OR_RETURN(auto cells, CellIds(table));
  return L1ErrorOfCells(cells, weights);
}

double Marginal::L1ErrorOfCells(const std::vector<int64_t>& cells,
                                const std::vector<double>& weights) const {
  assert(cells.size() == weights.size());
  std::vector<double> observed(NumCells(), 0.0);
  double observed_total = 0.0;
  double out_of_support = 0.0;
  for (size_t r = 0; r < cells.size(); ++r) {
    if (cells[r] >= 0) {
      observed[static_cast<size_t>(cells[r])] += weights[r];
    } else {
      out_of_support += weights[r];
    }
    observed_total += weights[r];
  }
  return L1ErrorOfMasses(observed, observed_total, out_of_support);
}

double Marginal::L1ErrorOfMasses(const std::vector<double>& observed,
                                 double observed_total,
                                 double out_of_support) const {
  assert(observed.size() == NumCells());
  if (observed_total <= 0.0) return 1.0;
  double err = 0.0;
  for (size_t c = 0; c < NumCells(); ++c) {
    err += std::fabs(counts_[c] / total_ - observed[c] / observed_total);
  }
  err += out_of_support / observed_total;
  return err;
}

std::string Marginal::ToString(size_t max_cells) const {
  std::string out = "Marginal(";
  out += Join(attribute_names(), ", ");
  out += StrFormat("; %zu cells, total=%s)", NumCells(),
                   FormatDouble(total_).c_str());
  size_t n = std::min(max_cells, NumCells());
  for (size_t c = 0; c < n; ++c) {
    auto coords = CellCoords(c);
    out += "\n  ";
    for (size_t a = 0; a < attrs_.size(); ++a) {
      if (a > 0) out += " x ";
      out += attrs_[a].BinRepresentative(coords[a]).ToString();
    }
    out += " -> " + FormatDouble(counts_[c]);
  }
  if (NumCells() > n) out += "\n  ...";
  return out;
}

}  // namespace stats
}  // namespace mosaic
