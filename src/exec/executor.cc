#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>

#include "common/aligned.h"
#include "common/string_util.h"
#include "exec/batch_eval.h"
#include "exec/expr_eval.h"
#include "exec/simd.h"

namespace mosaic {
namespace exec {

namespace {

/// Binder callback state for BindAggregate: each new aggregate call
/// binds its argument against the source schema and becomes the next
/// column of the plan's group schema.
struct AggCollection {
  AggregatePlan* plan;
  Binder* arg_binder;
  bool weighted;

  [[nodiscard]] Result<size_t> MapAggregate(const sql::Expr& expr) {
    const size_t base = plan->key_cols.size();
    std::string key = expr.ToString();
    for (size_t i = 0; i < plan->specs.size(); ++i) {
      if (plan->specs[i].rendering == key) return base + i;
    }
    AggSpec spec;
    spec.func = expr.agg_func;
    spec.is_star = expr.agg_is_star;
    spec.rendering = key;
    if (!spec.is_star) {
      if (expr.child == nullptr) {
        return Status::BindError("aggregate missing argument: " + key);
      }
      if (expr.child->ContainsAggregate()) {
        return Status::BindError("nested aggregates are not allowed: " + key);
      }
      MOSAIC_ASSIGN_OR_RETURN(spec.arg, arg_binder->Bind(*expr.child));
    }
    // "$" never starts an identifier, so no column ref can hit this.
    MOSAIC_RETURN_IF_ERROR(plan->group_schema.AddColumn(
        ColumnDef{"$agg" + std::to_string(plan->specs.size()),
                  AggOutputType(spec, weighted)}));
    plan->specs.push_back(std::move(spec));
    return base + plan->specs.size() - 1;
  }

  [[nodiscard]] static Result<size_t> MapAggregateThunk(const sql::Expr& expr, void* ctx) {
    return static_cast<AggCollection*>(ctx)->MapAggregate(expr);
  }
};

/// Column name for an output select item.
std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == sql::Expr::Kind::kColumnRef) {
    return item.expr->column;
  }
  return item.expr->ToString();
}

/// In an aggregate query, any column reference outside an aggregate
/// must be a GROUP BY key (non-key columns have no single value per
/// group).
[[nodiscard]] Status ValidateGroupColumnRefs(const sql::Expr& expr,
                               const std::vector<std::string>& group_by) {
  if (expr.kind == sql::Expr::Kind::kAggregate) return Status::OK();
  if (expr.kind == sql::Expr::Kind::kColumnRef) {
    for (const auto& g : group_by) {
      if (EqualsIgnoreCase(g, expr.column)) return Status::OK();
    }
    return Status::BindError("column '" + expr.column +
                             "' must appear in GROUP BY or inside an "
                             "aggregate");
  }
  for (const sql::Expr* child :
       {expr.child.get(), expr.left.get(), expr.right.get(),
        expr.between_lo.get(), expr.between_hi.get()}) {
    if (child != nullptr) {
      MOSAIC_RETURN_IF_ERROR(ValidateGroupColumnRefs(*child, group_by));
    }
  }
  return Status::OK();
}

/// Add an output column, suffixing "_2", "_3", ... on name collisions
/// (SQL permits duplicate select-item names; our schemas do not).
[[nodiscard]] Status AddOutputColumn(Schema* schema, std::string name, DataType type) {
  if (!schema->FindColumn(name)) {
    return schema->AddColumn(ColumnDef{std::move(name), type});
  }
  for (int suffix = 2;; ++suffix) {
    std::string candidate = name + "_" + std::to_string(suffix);
    if (!schema->FindColumn(candidate)) {
      return schema->AddColumn(ColumnDef{std::move(candidate), type});
    }
  }
}

// ---------------------------------------------------------------------------
// Batch path (vectorized columnar pipeline)
// ---------------------------------------------------------------------------

/// Typed sort key for one ORDER BY column, precomputed once per row
/// position: numeric columns compare through double (exactly like
/// Value::operator<), string columns through the code's lexicographic
/// rank in its dictionary.
struct SortKeyCol {
  bool is_string = false;
  bool desc = false;
  std::vector<double> num;
  std::vector<int32_t> rank;
};

/// rank[code] = lexicographic position of the code's string.
std::vector<int32_t> DictionaryRanks(const Dictionary& dict) {
  std::vector<int32_t> order(dict.size());
  std::iota(order.begin(), order.end(), 0);
  const std::vector<std::string>& values = dict.values();
  std::sort(order.begin(), order.end(),
            [&](int32_t a, int32_t b) { return values[a] < values[b]; });
  std::vector<int32_t> rank(dict.size());
  for (size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  return rank;
}

/// Numeric sort-key gather through the active kernel table.
void GatherNumKey(const ColumnSpan& span, const uint32_t* rows, size_t n,
                  double* out) {
  const simd::KernelTable& k = simd::ActiveKernels();
  switch (span.type) {
    case DataType::kInt64:
      k.gather_i64_f64(span.i64, rows, n, out);
      break;
    case DataType::kDouble:
      k.gather_f64(span.f64, rows, n, out);
      break;
    default:
      k.gather_b8_f64(span.b8, rows, n, out);
      break;
  }
}

/// Sort key over `rows`: string columns map each code to its
/// dictionary rank, numeric columns gather as doubles.
SortKeyCol MakeSortKey(const ColumnSpan& span, SelectionSlice rows,
                       bool desc) {
  const size_t n = rows.size();
  SortKeyCol key;
  key.desc = desc;
  key.is_string = span.type == DataType::kString;
  if (key.is_string) {
    const std::vector<int32_t> ranks = DictionaryRanks(*span.dict);
    key.rank.resize(n);
    for (size_t i = 0; i < n; ++i) key.rank[i] = ranks[span.codes[rows[i]]];
  } else {
    key.num.resize(n);
    GatherNumKey(span, rows.data(), n, key.num.data());
  }
  return key;
}

/// Positions 0..n-1 ordered by the keys; index tiebreak makes the
/// order total, so the result equals a stable sort and partial_sort
/// under LIMIT yields exactly the stable-sorted prefix.
///
/// Single numeric key with a small LIMIT takes a top-N fast path: a
/// k-element heap holds the current best, and the SIMD compare kernel
/// scans the remaining keys in blocks against the heap's worst value,
/// compacting only the (rare) candidates that beat it. Ties with the
/// threshold are skipped soundly because heap indices are always
/// smaller than scanned indices, so an equal-valued candidate loses
/// the index tiebreak anyway. NaN keys disable the path (the
/// threshold compare would mis-prune); `*used_topn` reports the
/// choice for trace annotation.
std::vector<uint32_t> SortPermutation(const std::vector<SortKeyCol>& keys,
                                      size_t n, std::optional<size_t> limit,
                                      bool* used_topn = nullptr) {
  if (used_topn != nullptr) *used_topn = false;
  auto cmp = [&](uint32_t a, uint32_t b) {
    for (const SortKeyCol& k : keys) {
      if (k.is_string) {
        if (k.rank[a] < k.rank[b]) return !k.desc;
        if (k.rank[b] < k.rank[a]) return k.desc;
      } else {
        if (k.num[a] < k.num[b]) return !k.desc;
        if (k.num[b] < k.num[a]) return k.desc;
      }
    }
    return a < b;
  };
  if (limit && *limit > 0 && *limit < n && *limit * 8 <= n &&
      keys.size() == 1 && !keys[0].is_string) {
    const std::vector<double>& num = keys[0].num;
    bool has_nan = false;
    for (size_t i = 0; i < n && !has_nan; ++i) has_nan = std::isnan(num[i]);
    if (!has_nan) {
      const size_t k = *limit;
      // Max-heap under cmp: the front is the worst of the current
      // best-k, and num[front] is the pruning threshold.
      std::vector<uint32_t> heap(k);
      std::iota(heap.begin(), heap.end(), uint32_t{0});
      std::make_heap(heap.begin(), heap.end(), cmp);
      double tau = num[heap.front()];
      const simd::KernelTable& kt = simd::ActiveKernels();
      const simd::CmpOp op =
          keys[0].desc ? simd::CmpOp::kGt : simd::CmpOp::kLt;
      constexpr size_t kBlock = 4096;
      AlignedVector<uint8_t> mask(kBlock);
      AlignedVector<uint32_t> cand(kBlock);
      for (size_t base = k; base < n; base += kBlock) {
        const size_t bn = std::min(kBlock, n - base);
        kt.mask_cmp_f64(num.data() + base, nullptr, bn, op, tau,
                        mask.data());
        const size_t c =
            kt.compact_rows(nullptr, mask.data(), 1, bn, cand.data());
        for (size_t j = 0; j < c; ++j) {
          const uint32_t idx = static_cast<uint32_t>(base + cand[j]);
          // Re-check with the full comparator: tau only tightens
          // within a block, so the mask can be stale-loose but never
          // drops a true member.
          if (cmp(idx, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), cmp);
            heap.back() = idx;
            std::push_heap(heap.begin(), heap.end(), cmp);
            tau = num[heap.front()];
          }
        }
      }
      std::sort(heap.begin(), heap.end(), cmp);
      if (used_topn != nullptr) *used_topn = true;
      return heap;
    }
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), uint32_t{0});
  if (limit && *limit < n) {
    std::partial_sort(perm.begin(), perm.begin() + *limit, perm.end(), cmp);
    perm.resize(*limit);
  } else {
    std::sort(perm.begin(), perm.end(), cmp);
  }
  return perm;
}

std::optional<size_t> LimitOf(const sql::SelectStmt& stmt) {
  if (!stmt.limit) return std::nullopt;
  // A negative LIMIT never truncates (as in the row oracle).
  if (*stmt.limit < 0) return std::nullopt;
  return static_cast<size_t>(*stmt.limit);
}

/// ORDER BY + LIMIT over a materialized result table using typed sort
/// keys (and top-N selection instead of full sort when LIMIT is
/// present).
[[nodiscard]] Status SortLimitTable(const sql::SelectStmt& stmt, Table* out,
                      bool* used_topn = nullptr) {
  std::optional<size_t> limit = LimitOf(stmt);
  if (!stmt.order_by.empty()) {
    std::vector<SortKeyCol> keys;
    for (const auto& o : stmt.order_by) {
      auto idx = out->schema().FindColumn(o.column);
      if (!idx) {
        return Status::BindError("ORDER BY column '" + o.column +
                                 "' not in result set");
      }
      keys.push_back(MakeSortKey(ColumnSpan::FromColumn(out->column(*idx)),
                                 SelectionSlice(nullptr, out->num_rows()),
                                 o.descending));
    }
    std::vector<uint32_t> perm =
        SortPermutation(keys, out->num_rows(), limit, used_topn);
    std::vector<size_t> order(perm.begin(), perm.end());
    *out = out->Filter(order);
    return Status::OK();
  }
  if (limit && *limit < out->num_rows()) {
    std::vector<size_t> head(*limit);
    std::iota(head.begin(), head.end(), size_t{0});
    *out = out->Filter(head);
  }
  return Status::OK();
}

[[nodiscard]] Result<Column> ColumnFromBatch(BatchVec batch) {
  switch (batch.type) {
    case DataType::kInt64:
      return Column::FromInt64(std::move(batch.i64));
    case DataType::kDouble:
      return Column::FromDouble(std::move(batch.f64));
    case DataType::kBool:
      return Column::FromBool(std::move(batch.b8));
    case DataType::kString: {
      if (batch.dict != nullptr) {
        // Result columns must own a private dictionary: the source
        // dictionary belongs to a live relation and a later ingest
        // would grow it under readers holding this result outside the
        // service lock. Small dictionaries are cloned wholesale (the
        // codes stay valid, no decoding); dictionaries much larger
        // than the result are compacted through decode instead.
        if (batch.dict->size() <= batch.codes.size() + 64) {
          return Column::FromCodes(std::make_shared<Dictionary>(*batch.dict),
                                   std::move(batch.codes));
        }
        Column col(DataType::kString);
        col.Reserve(batch.codes.size());
        for (int32_t code : batch.codes) {
          col.AppendString(batch.dict->Decode(code));
        }
        return col;
      }
      Column col(DataType::kString);
      col.Reserve(batch.strs.size());
      for (const auto& s : batch.strs) col.AppendString(s);
      return col;
    }
    default:
      return Status::Internal("cannot materialize NULL-typed batch");
  }
}

/// True if evaluating the expression can raise a runtime error
/// (division is the only erroring scalar op). Guards LIMIT pushdown:
/// the row oracle evaluates every selected row before truncating, so
/// the batch path may only skip rows whose evaluation cannot error.
bool ContainsDiv(const BoundExpr& e) {
  if (e.kind == BoundExpr::Kind::kBinary &&
      e.binary_op == sql::BinaryOp::kDiv) {
    return true;
  }
  for (const BoundExpr* c :
       {e.child.get(), e.left.get(), e.right.get(), e.between_lo.get(),
        e.between_hi.get()}) {
    if (c != nullptr && ContainsDiv(*c)) return true;
  }
  return false;
}

/// Per-GROUP BY-column dense codes over the selected rows. Group keys
/// are decoded from each group's first row, not from the codes: an
/// int64/double code stands for every value equal through double, and
/// the row oracle keys each group by the value of its own first row.
struct GroupKeyCol {
  std::vector<uint32_t> codes;  // per selected position
  uint64_t card = 1;
  /// Int64/double keys: the value (as double) first seen per code.
  std::vector<double> vals;
};

/// Open-addressing map from a 64-bit group key to its dense
/// first-seen group id — the probe pass of the two-pass group-id
/// build (the hash pass runs the SIMD hash kernel over key blocks).
/// Linear probing over a power-of-two table; a slot is empty while
/// its gid is kEmpty. Probing serially in selection order assigns
/// gids in exactly the first-seen order the unordered_map paths
/// produced.
///
/// `self_equal` carries NaN semantics for double keys: a NaN key
/// never equals anything (matching unordered_map's operator==), so
/// each NaN probe walks to an empty slot and allocates a fresh group.
class GroupIdIndex {
 public:
  /// Sized for up to `max_keys` keys without growing, capped at the
  /// default capacity (so small builds stay small).
  explicit GroupIdIndex(size_t max_keys) {
    size_t cap = kMinCap;
    while (cap < kInitialCap && cap * 3 < max_keys * 4) cap *= 2;
    bits_.resize(cap);
    gids_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }

  /// Group id for `key` (its hash precomputed by the hash pass);
  /// `next_gid` is assigned on a miss, and `*inserted` tells the
  /// caller to extend its decode table.
  uint32_t InsertOrGet(uint64_t key, uint64_t hash, bool self_equal,
                       uint32_t next_gid, bool* inserted) {
    if ((filled_ + 1) * 4 > (mask_ + 1) * 3) Grow();
    size_t i = hash & mask_;
    while (true) {
      if (gids_[i] == kEmpty) {
        bits_[i] = key;
        gids_[i] = next_gid;
        ++filled_;
        *inserted = true;
        return next_gid;
      }
      if (self_equal && bits_[i] == key) {
        *inserted = false;
        return gids_[i];
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kMinCap = 16;
  static constexpr size_t kInitialCap = 2048;

  void Grow() {
    std::vector<uint64_t> old_bits = std::move(bits_);
    std::vector<uint32_t> old_gids = std::move(gids_);
    const size_t cap = (mask_ + 1) * 2;
    bits_.assign(cap, 0);
    gids_.assign(cap, kEmpty);
    mask_ = cap - 1;
    // Reinsert with the same hash function the SIMD pass uses, so
    // grown tables stay probe-compatible; gids carry over unchanged.
    for (size_t j = 0; j < old_gids.size(); ++j) {
      if (old_gids[j] == kEmpty) continue;
      size_t i = simd::HashU64(old_bits[j]) & mask_;
      while (gids_[i] != kEmpty) i = (i + 1) & mask_;
      bits_[i] = old_bits[j];
      gids_[i] = old_gids[j];
    }
  }

  std::vector<uint64_t> bits_;
  std::vector<uint32_t> gids_;
  size_t mask_ = 0;
  size_t filled_ = 0;
};

/// Block size for the two-pass group-id builds: values/hashes for one
/// block are produced by SIMD kernels, then the probe pass walks them
/// serially (first-seen order is part of the executor's contract).
constexpr size_t kGroupHashBlock = 4096;

/// Dense first-seen ids for `n` packed 64-bit keys, by the two-pass
/// build: the SIMD kernel hashes a block of keys, then the probe pass
/// assigns ids serially in selection order. `first` receives each
/// id's first position, so its size is the number of distinct keys.
void AssignFirstSeenIds(const uint64_t* keys, size_t n, uint32_t* ids,
                        std::vector<uint32_t>* first) {
  const simd::KernelTable& k = simd::ActiveKernels();
  AlignedVector<uint64_t> hashes(kGroupHashBlock);
  GroupIdIndex index(n);
  for (size_t base = 0; base < n; base += kGroupHashBlock) {
    const size_t m = std::min(kGroupHashBlock, n - base);
    k.hash_u64(keys + base, m, hashes.data());
    for (size_t i = 0; i < m; ++i) {
      bool inserted = false;
      ids[base + i] = index.InsertOrGet(
          keys[base + i], hashes[i], /*self_equal=*/true,
          static_cast<uint32_t>(first->size()), &inserted);
      if (inserted) first->push_back(static_cast<uint32_t>(base + i));
    }
  }
}

/// First-seen ids for the int64/double keys at `rows`, by the
/// two-pass build: the SIMD kernels gather and hash one block of keys,
/// then the probe pass assigns ids serially in row order. Ids land in
/// codes[0, rows.size()); each new key appends its value to `vals`.
///
/// Key identity goes through double, matching the row oracle's
/// std::map<Value> comparator (Value compares all numerics as doubles,
/// merging int64 keys that collide beyond 2^53).
void BuildNumericGroupIds(const ColumnSpan& span, SelectionSlice rows,
                          uint32_t* codes, std::vector<double>* vals) {
  const simd::KernelTable& k = simd::ActiveKernels();
  GroupIdIndex index(rows.size());
  AlignedVector<double> block(kGroupHashBlock);
  AlignedVector<uint64_t> hashes(kGroupHashBlock);
  for (size_t base = 0; base < rows.size(); base += kGroupHashBlock) {
    const size_t m = std::min(kGroupHashBlock, rows.size() - base);
    // An identity slice reads block [base, base + m) linearly.
    const uint32_t* block_rows =
        rows.data() != nullptr ? rows.data() + base : nullptr;
    const size_t offset = rows.data() != nullptr ? 0 : base;
    if (span.type == DataType::kInt64) {
      k.gather_i64_f64(span.i64 + offset, block_rows, m, block.data());
    } else {
      k.gather_f64(span.f64 + offset, block_rows, m, block.data());
    }
    k.hash_f64(block.data(), m, hashes.data());
    for (size_t i = 0; i < m; ++i) {
      const double v = block[i];
      bool inserted = false;
      codes[base + i] = index.InsertOrGet(
          simd::CanonicalF64Bits(v), hashes[i], !std::isnan(v),
          static_cast<uint32_t>(vals->size()), &inserted);
      if (inserted) vals->push_back(v);
    }
  }
}

/// Dense per-column group codes over `rows`. String and bool codes
/// are pure gathers; int64/double keys run the two-pass first-seen
/// build.
GroupKeyCol MakeGroupKey(const ColumnSpan& span, SelectionSlice rows) {
  const size_t n = rows.size();
  GroupKeyCol key;
  key.codes.resize(n);
  switch (span.type) {
    case DataType::kString:
      key.card = std::max<uint64_t>(1, span.dict->size());
      for (size_t i = 0; i < n; ++i) {
        key.codes[i] = static_cast<uint32_t>(span.codes[rows[i]]);
      }
      break;
    case DataType::kBool:
      key.card = 2;
      for (size_t i = 0; i < n; ++i) {
        key.codes[i] = span.b8[rows[i]] != 0 ? 1 : 0;
      }
      break;
    case DataType::kInt64:
    case DataType::kDouble:
      BuildNumericGroupIds(span, rows, key.codes.data(), &key.vals);
      key.card = std::max<uint64_t>(1, key.vals.size());
      break;
    default:
      break;
  }
  return key;
}

/// Zero-copy span over a batch, which must outlive it. A string batch
/// without a dictionary (a broadcast literal) is dictionary-encoded in
/// place first, since string spans are codes.
ColumnSpan SpanOf(BatchVec* batch) {
  ColumnSpan span;
  span.type = batch->type;
  if (batch->type == DataType::kString && batch->dict == nullptr) {
    auto dict = std::make_shared<Dictionary>();
    batch->codes.resize(batch->strs.size());
    for (size_t i = 0; i < batch->strs.size(); ++i) {
      batch->codes[i] = dict->GetOrInsert(batch->strs[i]);
    }
    batch->strs.clear();
    batch->dict = std::move(dict);
  }
  span.size = batch->size();
  span.i64 = batch->i64.data();
  span.f64 = batch->f64.data();
  span.b8 = batch->b8.data();
  span.codes = batch->codes.data();
  span.dict = batch->dict;
  return span;
}

/// Input of the accumulate pass, read in place as doubles: a column's
/// span indexed by row id, or an evaluated batch's indexed by
/// selection position. A string input (MIN/MAX only) reads each
/// code's dictionary rank, which orders as the strings do.
struct NumericIn {
  ColumnSpan span;
  bool by_row = false;
  /// String spans: DictionaryRanks(*span.dict).
  std::vector<int32_t> rank = {};

  /// Values at selection positions [base, base + m) as doubles,
  /// widened as Value::ToDouble does: contiguous double storage is
  /// returned in place, anything else is gathered into `buf`.
  const double* Values(SelectionSlice rows, size_t base, size_t m,
                       double* buf) const {
    const uint32_t* at =
        by_row && rows.data() != nullptr ? rows.data() + base : nullptr;
    const size_t first = at != nullptr ? 0 : base;
    const simd::KernelTable& k = simd::ActiveKernels();
    switch (span.type) {
      case DataType::kDouble:
        if (at == nullptr) return span.f64 + first;
        k.gather_f64(span.f64, at, m, buf);
        return buf;
      case DataType::kInt64:
        k.gather_i64_f64(span.i64 + first, at, m, buf);
        return buf;
      case DataType::kString:
        for (size_t j = 0; j < m; ++j) {
          buf[j] = rank[span.codes[at != nullptr ? at[j] : first + j]];
        }
        return buf;
      default:
        k.gather_b8_f64(span.b8 + first, at, m, buf);
        return buf;
    }
  }
};

/// An evaluated SUM/AVG argument as accumulate input. A non-empty
/// string batch fails as the row oracle's Value::ToDouble does on its
/// first row.
[[nodiscard]] Result<NumericIn> BatchInput(BatchVec* batch) {
  if (batch->type == DataType::kString && batch->size() > 0) {
    return Value(batch->StringAt(0)).ToDouble().status();
  }
  return NumericIn{SpanOf(batch), /*by_row=*/false};
}

/// Per-group results of the accumulate pass.
struct GroupSums {
  std::vector<int64_t> count;
  std::vector<double> sum_w;
  std::vector<std::vector<double>> sum_x;  ///< per spec; SUM/AVG only
  /// Per spec, MIN/MAX only: each group's winner as read and its
  /// selection position (-1 while the group has none).
  std::vector<std::vector<double>> win_x;
  std::vector<std::vector<int64_t>> win_pos;
};

/// Positions per accumulate block: the block's weights and arguments
/// are gathered by the SIMD kernels into L1-resident buffers.
constexpr size_t kAccumulateBlock = 512;

/// Adds block positions [0, m) in order: count and Σw when `counts`,
/// and w·x (x unweighted) into `sum_x` when `x` is set. kGlobal: one
/// group, whose sums stay in locals, so each add waits on the last add,
/// never on a store. Out of line because, inlined into
/// ExecuteSelectBatch, GCC kept neither (a 21k-row AVG ran 2x slower).
template <bool kGlobal>
[[gnu::noinline]] void AddBlock(size_t m, const uint32_t* gid,
                                const double* w, const double* x,
                                bool counts, GroupSums* out, double* sum_x) {
  int64_t* count = out->count.data();
  double* sum_w = out->sum_w.data();
  double sw = sum_w[0];
  double sx = x != nullptr ? sum_x[0] : 0.0;
  for (size_t j = 0; j < m; ++j) {
    const uint32_t g = kGlobal ? 0 : gid[j];
    if (counts) {
      if (!kGlobal) count[g] += 1;
      if (w != nullptr) (kGlobal ? sw : sum_w[g]) += w[j];
    }
    if (x != nullptr) {
      (kGlobal ? sx : sum_x[g]) += w != nullptr ? w[j] * x[j] : x[j];
    }
  }
  if (kGlobal) {
    if (counts) {
      count[0] += static_cast<int64_t>(m);
      sum_w[0] = sw;
    }
    if (x != nullptr) sum_x[0] = sx;
  }
}

/// Keeps each group's first-seen strict winner over block positions
/// [0, m), which are selection positions base + j. A NaN never wins a
/// compare, so a group whose first value is NaN keeps it, as the row
/// oracle's Value compares do.
template <bool kGlobal, bool kMin>
[[gnu::noinline]] void ExtremeBlock(size_t m, size_t base,
                                    const uint32_t* gid, const double* x,
                                    double* win_x, int64_t* win_pos) {
  auto beats = [](double a, double b) { return kMin ? a < b : b < a; };
  if (!kGlobal) {
    for (size_t j = 0; j < m; ++j) {
      const uint32_t g = gid[j];
      if (win_pos[g] < 0 || beats(x[j], win_x[g])) {
        win_x[g] = x[j];
        win_pos[g] = static_cast<int64_t>(base + j);
      }
    }
    return;
  }
  size_t j = 0;
  if (win_pos[0] < 0) {
    win_x[0] = x[0];
    win_pos[0] = static_cast<int64_t>(base);
    j = 1;
  }
  // One group: the block's best over four lanes, so no compare waits
  // on the last, then the first position equal to it, which is where
  // the serial strict-compare chain would have stopped.
  double lane[4] = {win_x[0], win_x[0], win_x[0], win_x[0]};
  for (; j + 4 <= m; j += 4) {
    for (size_t k = 0; k < 4; ++k) {
      lane[k] = beats(x[j + k], lane[k]) ? x[j + k] : lane[k];
    }
  }
  for (; j < m; ++j) lane[0] = beats(x[j], lane[0]) ? x[j] : lane[0];
  double best = lane[0];
  for (size_t k = 1; k < 4; ++k) best = beats(lane[k], best) ? lane[k] : best;
  if (!beats(best, win_x[0])) return;
  size_t at = 0;
  while (!(x[at] == best)) ++at;
  win_x[0] = x[at];
  win_pos[0] = static_cast<int64_t>(base + at);
}

/// A MIN/MAX argument of the accumulate pass and its spec's winners.
struct ExtremeIn {
  NumericIn in;
  bool is_min;
  double* win_x;
  int64_t* win_pos;
};

/// One walk over the selection, in blocks, adding every row into its
/// group's count, Σw and SUM/AVG sums (out_x[s] reading x[s]) and its
/// MIN/MAX winners; `gid` is null for a global aggregate. Each sum adds
/// in selection order from 0.0, as the row oracle's loop does; an
/// unweighted Σw is the count.
template <bool kGlobal>
void Accumulate(SelectionSlice rows, const uint32_t* gid, const NumericIn* w,
                const std::vector<NumericIn>& x,
                const std::vector<double*>& out_x,
                const std::vector<ExtremeIn>& extremes, GroupSums* out) {
  alignas(64) double w_buf[kAccumulateBlock];
  alignas(64) double x_buf[kAccumulateBlock];
  for (size_t base = 0; base < rows.size(); base += kAccumulateBlock) {
    const size_t m = std::min(kAccumulateBlock, rows.size() - base);
    const uint32_t* block_gid = kGlobal ? nullptr : gid + base;
    const double* wv =
        w != nullptr ? w->Values(rows, base, m, w_buf) : nullptr;
    for (size_t s = 0; s < std::max<size_t>(1, x.size()); ++s) {
      const bool has_x = s < x.size();
      AddBlock<kGlobal>(m, block_gid, wv,
                        has_x ? x[s].Values(rows, base, m, x_buf) : nullptr,
                        s == 0, out, has_x ? out_x[s] : nullptr);
    }
    for (const ExtremeIn& e : extremes) {
      (e.is_min ? ExtremeBlock<kGlobal, true> : ExtremeBlock<kGlobal, false>)(
          m, base, block_gid, e.in.Values(rows, base, m, x_buf), e.win_x,
          e.win_pos);
    }
  }
  if (w == nullptr) {
    for (size_t g = 0; g < out->count.size(); ++g) {
      out->sum_w[g] = static_cast<double>(out->count[g]);
    }
  }
}

/// Aggregate `a`'s group-table column, finalized in bulk: entry i is
/// group order[i], from the accumulated sums and counts or, for
/// MIN/MAX, the argument evaluated at the group's winning row.
[[nodiscard]] Result<BatchVec> FinalizeAggregate(
    const AggSpec& spec, size_t a, bool weighted,
    const std::vector<uint32_t>& order, const GroupSums& sums,
    const TableView& view, SelectionSlice rows) {
  const size_t n = order.size();
  BatchVec out;
  out.type = AggOutputType(spec, weighted);
  switch (spec.func) {
    case sql::AggFunc::kCount:
      if (weighted) {
        out.f64.resize(n);
        for (size_t i = 0; i < n; ++i) out.f64[i] = sums.sum_w[order[i]];
      } else {
        out.i64.resize(n);
        for (size_t i = 0; i < n; ++i) out.i64[i] = sums.count[order[i]];
      }
      return out;
    case sql::AggFunc::kSum:
      out.f64.resize(n);
      for (size_t i = 0; i < n; ++i) out.f64[i] = sums.sum_x[a][order[i]];
      return out;
    case sql::AggFunc::kAvg:
      out.f64.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t g = order[i];
        if (sums.sum_w[g] == 0.0) {
          return Status::ExecutionError("AVG over empty/zero-weight group");
        }
        out.f64[i] = sums.sum_x[a][g] / sums.sum_w[g];
      }
      return out;
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax: {
      const std::vector<int64_t>& pos = sums.win_pos[a];
      AlignedVector<uint32_t> at(n);
      for (size_t i = 0; i < n; ++i) {
        if (pos[order[i]] < 0) {
          return Status::ExecutionError(spec.func == sql::AggFunc::kMin
                                            ? "MIN over empty group"
                                            : "MAX over empty group");
        }
        at[i] = rows[static_cast<size_t>(pos[order[i]])];
      }
      return EvalBatch(*spec.arg, view, at);
    }
  }
  return Status::Internal("unreachable aggregate func");
}

/// First-seen ids through a direct-indexed slot table; code_of(i) is
/// position i's key code, below `card`.
template <typename CodeOf>
void DirectGroupIds(size_t n, uint64_t card, CodeOf code_of, uint32_t* gid,
                    std::vector<uint32_t>* first) {
  std::vector<int32_t> slot(card, -1);
  for (size_t i = 0; i < n; ++i) {
    int32_t& g = slot[code_of(i)];
    if (g < 0) {
      g = static_cast<int32_t>(first->size());
      first->push_back(static_cast<uint32_t>(i));
    }
    gid[i] = static_cast<uint32_t>(g);
  }
}

/// Dense first-seen group ids of `rows` under the GROUP BY columns,
/// into gid[0, rows.size()); `first` receives each group's first
/// selection position. Returns the index mode for the trace note.
const char* BuildGroupIds(const TableView& view,
                          const std::vector<size_t>& group_cols,
                          SelectionSlice rows, uint32_t* gid,
                          std::vector<uint32_t>* first) {
  const size_t n = rows.size();
  // Flat (direct-indexed) table when the code space is small — both
  // absolutely and relative to the selection, so a tiny selection over
  // a huge dictionary does not zero-fill megabytes per query. Two-pass
  // open hashing otherwise.
  constexpr uint64_t kDirectTableMax = uint64_t{1} << 20;
  auto fits_direct = [n](uint64_t card) {
    return card <= kDirectTableMax &&
           card <= std::max<uint64_t>(1024, 4 * uint64_t{n});
  };
  // One dictionary or bool key: its codes index the slot table as read.
  if (group_cols.size() == 1) {
    const ColumnSpan& span = view.column(group_cols[0]);
    if (span.type == DataType::kBool) {
      DirectGroupIds(
          n, 2, [&](size_t i) { return span.b8[rows[i]] != 0 ? 1 : 0; },
          gid, first);
      return "direct";
    }
    if (span.type == DataType::kString &&
        fits_direct(std::max<uint64_t>(1, span.dict->size()))) {
      DirectGroupIds(
          n, span.dict->size(),
          [&](size_t i) { return static_cast<size_t>(span.codes[rows[i]]); },
          gid, first);
      return "direct";
    }
  }
  std::vector<GroupKeyCol> key_cols;
  key_cols.reserve(group_cols.size());
  for (size_t c : group_cols) {
    key_cols.push_back(MakeGroupKey(view.column(c), rows));
  }
  // Mixed-radix packing through the widen / mul-add kernels, one pass
  // per run of columns [begin, end); `extend` keeps the ids already in
  // `packed` as the leading digit.
  AlignedVector<uint64_t> packed(n);
  auto pack_run = [&](size_t begin, size_t end, bool extend) {
    const simd::KernelTable& k = simd::ActiveKernels();
    size_t c = begin;
    if (!extend) {
      k.widen_u32_u64(key_cols[c++].codes.data(), n, packed.data());
    }
    for (; c < end; ++c) {
      k.pack_mul_add(packed.data(), key_cols[c].codes.data(),
                     key_cols[c].card, n);
    }
  };
  // Narrow keys (code-space product <= 2^62) pack in one run. When the
  // next column would pass that, the packed prefix is densified into
  // first-seen ids (fewer than 2^32, like every card), so the product
  // after the next column stays below 2^64 and packing continues
  // exactly.
  constexpr uint64_t kPackLimit = uint64_t{1} << 62;
  uint64_t packed_card = 1;
  size_t run_begin = 0;
  for (size_t c = 0; c < key_cols.size(); ++c) {
    if (packed_card > kPackLimit / key_cols[c].card) {
      pack_run(run_begin, c, run_begin > 0);
      std::vector<uint32_t> prefix_first;
      AssignFirstSeenIds(packed.data(), n, gid, &prefix_first);
      simd::ActiveKernels().widen_u32_u64(gid, n, packed.data());
      packed_card = std::max<uint64_t>(1, prefix_first.size());
      run_begin = c;
    }
    packed_card *= key_cols[c].card;
  }
  pack_run(run_begin, key_cols.size(), run_begin > 0);
  if (fits_direct(packed_card)) {
    DirectGroupIds(
        n, packed_card, [&](size_t i) { return packed[i]; }, gid, first);
    return "direct";
  }
  AssignFirstSeenIds(packed.data(), n, gid, first);
  return "two_pass";
}

/// Vectorized SELECT over a view restricted to `sel`.
[[nodiscard]] Result<Table> ExecuteSelectBatch(const TableView& view,
                                               SelectionVector sel,
                                               const sql::SelectStmt& stmt,
                                               const ExecOptions& opts) {
  const Schema& schema = view.schema();
  const bool weighted = !opts.weight_column.empty();
  std::optional<size_t> weight_idx;
  if (weighted) {
    auto idx = schema.FindColumn(opts.weight_column);
    if (!idx) {
      return Status::BindError("weight column '" + opts.weight_column +
                               "' not found");
    }
    weight_idx = *idx;
  }

  // --- WHERE: refine the selection vector ----------------------------------
  if (stmt.where != nullptr) {
    if (stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    trace::ScopedSpan span(opts.trace, opts.trace_parent, "filter");
    const size_t rows_in = sel.size();
    Binder where_binder(&schema);
    MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr pred,
                            where_binder.Bind(*stmt.where));
    if (pred->type != DataType::kBool) {
      return Status::TypeError("WHERE predicate must be boolean, got " +
                               std::string(DataTypeName(pred->type)));
    }
    MOSAIC_ASSIGN_OR_RETURN(sel, FilterView(view, *pred, std::move(sel)));
    if (opts.trace != nullptr) {
      span.Note("rows=" + std::to_string(rows_in) + " kept=" +
                std::to_string(sel.size()) + " isa=" +
                simd::ActiveIsaName());
    }
  }

  bool has_aggregates = false;
  for (const auto& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (stmt.having != nullptr && stmt.having->ContainsAggregate()) {
    has_aggregates = true;
  }
  if (stmt.select_star && (has_aggregates || !stmt.group_by.empty())) {
    return Status::BindError("SELECT * cannot be combined with aggregation");
  }
  if (!stmt.group_by.empty() && !has_aggregates) {
    return Status::BindError("GROUP BY requires aggregates in SELECT list");
  }

  // --- Projection-only path ------------------------------------------------
  if (!has_aggregates) {
    Binder binder(&schema);
    std::vector<BoundExprPtr> bound_items;
    Schema out_schema;
    if (stmt.select_star) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (weight_idx && c == *weight_idx) continue;  // hide weight
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExpr::Kind::kColumnRef;
        e->column_index = c;
        e->type = schema.column(c).type;
        bound_items.push_back(std::move(e));
        MOSAIC_RETURN_IF_ERROR(out_schema.AddColumn(schema.column(c)));
      }
    } else {
      for (const auto& item : stmt.items) {
        MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
        MOSAIC_RETURN_IF_ERROR(
            AddOutputColumn(&out_schema, OutputName(item), bound->type));
        bound_items.push_back(std::move(bound));
      }
    }
    std::optional<size_t> limit = LimitOf(stmt);
    bool items_can_error = false;
    for (const auto& item : bound_items) {
      if (ContainsDiv(*item)) items_can_error = true;
    }
    // LIMIT pushdown below the projection is only sound when no item
    // can raise a runtime error on a truncated row.
    const std::optional<size_t> eval_limit =
        items_can_error ? std::nullopt : limit;
    bool presorted = false;
    if (!stmt.order_by.empty()) {
      // Sorting the selection before projection works whenever every
      // ORDER BY key can be read off a source span: either the key
      // names an output column that is a plain column reference (its
      // projected values equal the source values row for row), or it
      // is not in the output at all (only the source has it). Under
      // LIMIT only the prefix is then materialized; the index
      // tiebreak over selection positions reproduces exactly the
      // post-materialize table sort. Computed output columns fall
      // back to sorting the materialized table.
      bool presortable = true;
      std::vector<size_t> order_src;
      order_src.reserve(stmt.order_by.size());
      for (const auto& o : stmt.order_by) {
        auto out_idx = out_schema.FindColumn(o.column);
        if (out_idx) {
          const BoundExpr& item = *bound_items[*out_idx];
          if (item.kind == BoundExpr::Kind::kColumnRef) {
            order_src.push_back(item.column_index);
          } else {
            presortable = false;
            break;
          }
        } else {
          auto idx = schema.FindColumn(o.column);
          if (!idx) {
            return Status::BindError("ORDER BY column '" + o.column +
                                     "' not found");
          }
          order_src.push_back(*idx);
        }
      }
      if (presortable) {
        trace::ScopedSpan span(opts.trace, opts.trace_parent, "sort");
        std::vector<SortKeyCol> keys;
        for (size_t ki = 0; ki < stmt.order_by.size(); ++ki) {
          keys.push_back(MakeSortKey(view.column(order_src[ki]), sel.slice(),
                                     stmt.order_by[ki].descending));
        }
        bool topn = false;
        std::vector<uint32_t> perm =
            SortPermutation(keys, sel.size(), eval_limit, &topn);
        AlignedVector<uint32_t> sorted(perm.size());
        for (size_t i = 0; i < perm.size(); ++i) sorted[i] = sel[perm[i]];
        sel = SelectionVector(std::move(sorted));
        presorted = true;
        if (opts.trace != nullptr) {
          span.Note(std::string("sort=") + (topn ? "topn" : "full") +
                    " presort isa=" + simd::ActiveIsaName());
        }
      }
    }
    const bool limit_only = presorted || stmt.order_by.empty();
    if (limit_only && eval_limit) sel.Truncate(*eval_limit);
    std::vector<Column> columns;
    columns.reserve(bound_items.size());
    {
      trace::ScopedSpan span(opts.trace, opts.trace_parent, "materialize");
      for (const auto& item : bound_items) {
        MOSAIC_ASSIGN_OR_RETURN(BatchVec batch,
                                EvalBatch(*item, view, sel.slice()));
        MOSAIC_ASSIGN_OR_RETURN(Column col,
                                ColumnFromBatch(std::move(batch)));
        columns.push_back(std::move(col));
      }
      if (opts.trace != nullptr) {
        span.Note("rows=" + std::to_string(sel.size()) +
                  " cols=" + std::to_string(columns.size()));
      }
    }
    Table out(out_schema, std::move(columns), sel.size());
    if (limit_only && limit && *limit < out.num_rows()) {
      std::vector<size_t> head(*limit);
      std::iota(head.begin(), head.end(), size_t{0});
      out = out.Filter(head);
    }
    if (!limit_only) {
      trace::ScopedSpan span(opts.trace, opts.trace_parent, "sort");
      bool topn = false;
      MOSAIC_RETURN_IF_ERROR(SortLimitTable(stmt, &out, &topn));
      if (opts.trace != nullptr) {
        span.Note(std::string("sort=") + (topn ? "topn" : "full"));
      }
    }
    return out;
  }

  // --- Aggregation path ----------------------------------------------------
  MOSAIC_ASSIGN_OR_RETURN(AggregatePlan plan,
                          BindAggregate(schema, stmt, weighted));
  const SelectionSlice rows = sel.slice();
  const size_t n = rows.size();

  // Covers group-key building, accumulation, and emit; the phases
  // inside are recorded retroactively (AddTimed) so early error
  // returns need no unwind hooks.
  trace::ScopedSpan agg_span(opts.trace, opts.trace_parent, "aggregate");
  uint64_t phase_t0 = opts.trace != nullptr ? opts.trace->NowUs() : 0;

  // --- Group ids (none for a global aggregate) -----------------------------
  const bool global = plan.group_cols.empty();
  std::vector<uint32_t> gid;
  // Selection position of each group's first row; its key is decoded
  // from there.
  std::vector<uint32_t> group_first;
  const char* idx_mode = "global";
  if (!global) {
    gid.resize(n);
    idx_mode =
        BuildGroupIds(view, plan.group_cols, rows, gid.data(), &group_first);
  }
  // A global aggregate is one group, even over zero rows.
  const size_t num_groups = global ? 1 : group_first.size();
  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "group_keys", phase_t0,
                         opts.trace->NowUs());
    agg_span.Note("rows=" + std::to_string(n) +
                  " groups=" + std::to_string(num_groups) + " idx=" +
                  idx_mode + " isa=" + simd::ActiveIsaName());
    phase_t0 = opts.trace->NowUs();
  }

  // --- Accumulate: one pass over the selection -----------------------------
  // Weights and column arguments are read in place; any other argument
  // is evaluated into a batch first.
  NumericIn w;
  if (weighted) {
    const ColumnSpan& wspan = view.column(*weight_idx);
    if (wspan.type == DataType::kString && n > 0) {
      return Status::TypeError("string column has no numeric view");
    }
    w = NumericIn{wspan, /*by_row=*/true};
  }
  const size_t num_specs = plan.specs.size();
  GroupSums sums;
  sums.count.assign(num_groups, 0);
  sums.sum_w.assign(num_groups, 0.0);
  sums.sum_x.resize(num_specs);
  sums.win_x.resize(num_specs);
  sums.win_pos.resize(num_specs);
  std::vector<NumericIn> sum_in;
  std::vector<double*> sum_out;
  std::vector<ExtremeIn> extremes;
  std::vector<BatchVec> arg_batches(num_specs);
  for (size_t a = 0; a < num_specs; ++a) {
    const AggSpec& spec = plan.specs[a];
    if (spec.is_star || spec.arg == nullptr) continue;
    const bool is_sum =
        spec.func == sql::AggFunc::kSum || spec.func == sql::AggFunc::kAvg;
    const BoundExpr& arg = *spec.arg;
    NumericIn in;
    if (arg.kind == BoundExpr::Kind::kColumnRef &&
        (!is_sum || arg.type != DataType::kString)) {
      in = NumericIn{view.column(arg.column_index), /*by_row=*/true};
    } else {
      MOSAIC_ASSIGN_OR_RETURN(arg_batches[a], EvalBatch(arg, view, rows));
      if (is_sum) {
        MOSAIC_ASSIGN_OR_RETURN(in, BatchInput(&arg_batches[a]));
      } else {
        in = NumericIn{SpanOf(&arg_batches[a]), /*by_row=*/false};
      }
    }
    if (is_sum) {
      sum_in.push_back(std::move(in));
      sums.sum_x[a].assign(num_groups, 0.0);
      sum_out.push_back(sums.sum_x[a].data());
      continue;
    }
    if (in.span.type == DataType::kString) {
      in.rank = DictionaryRanks(*in.span.dict);
    }
    sums.win_x[a].assign(num_groups, 0.0);
    sums.win_pos[a].assign(num_groups, -1);
    extremes.push_back(ExtremeIn{std::move(in),
                                 spec.func == sql::AggFunc::kMin,
                                 sums.win_x[a].data(),
                                 sums.win_pos[a].data()});
  }
  const NumericIn* w_in = weighted ? &w : nullptr;
  if (global) {
    Accumulate<true>(rows, nullptr, w_in, sum_in, sum_out, extremes, &sums);
  } else {
    Accumulate<false>(rows, gid.data(), w_in, sum_in, sum_out, extremes,
                      &sums);
  }

  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "accumulate", phase_t0,
                         opts.trace->NowUs());
    phase_t0 = opts.trace->NowUs();
  }

  // --- Emit: the groups as one typed table --------------------------------
  // Groups are ordered by key. Each group's key is gathered at its
  // first row (string keys stay dictionary codes) and each aggregate
  // finalizes in bulk, so the group table is columns from the start.
  AlignedVector<uint32_t> first_rows(group_first.size());
  for (size_t g = 0; g < group_first.size(); ++g) {
    first_rows[g] = rows[group_first[g]];
  }
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), uint32_t{0});
  if (num_groups > 1) {
    std::vector<SortKeyCol> keys;
    for (size_t c : plan.key_cols) {
      keys.push_back(MakeSortKey(view.column(c), first_rows, false));
    }
    order = SortPermutation(keys, num_groups, std::nullopt);
  }
  AlignedVector<uint32_t> sorted_first(first_rows.size());
  for (size_t i = 0; i < first_rows.size(); ++i) {
    sorted_first[i] = first_rows[order[i]];
  }
  std::vector<BatchVec> group_batches;
  group_batches.reserve(plan.group_schema.num_columns());
  for (size_t c : plan.key_cols) {
    BoundExpr ref;
    ref.kind = BoundExpr::Kind::kColumnRef;
    ref.column_index = c;
    ref.type = schema.column(c).type;
    MOSAIC_ASSIGN_OR_RETURN(BatchVec key, EvalBatch(ref, view, sorted_first));
    group_batches.push_back(std::move(key));
  }
  for (size_t a = 0; a < num_specs; ++a) {
    MOSAIC_ASSIGN_OR_RETURN(
        BatchVec agg,
        FinalizeAggregate(plan.specs[a], a, weighted, order, sums, view,
                          rows));
    group_batches.push_back(std::move(agg));
  }
  std::vector<ColumnSpan> group_spans;
  group_spans.reserve(group_batches.size());
  for (BatchVec& batch : group_batches) group_spans.push_back(SpanOf(&batch));
  const TableView groups =
      TableView::FromSpans(plan.group_schema, std::move(group_spans),
                           num_groups);

  // HAVING and the SELECT items run over the group table exactly as a
  // WHERE and a projection run over a source view.
  SelectionVector kept = SelectionVector::All(num_groups);
  if (plan.having != nullptr) {
    MOSAIC_ASSIGN_OR_RETURN(kept,
                            FilterView(groups, *plan.having, std::move(kept)));
  }
  std::vector<Column> columns;
  columns.reserve(plan.items.size());
  for (const auto& item : plan.items) {
    MOSAIC_ASSIGN_OR_RETURN(BatchVec batch,
                            EvalBatch(*item, groups, kept.slice()));
    MOSAIC_ASSIGN_OR_RETURN(Column col, ColumnFromBatch(std::move(batch)));
    columns.push_back(std::move(col));
  }
  Table out(plan.out_schema, std::move(columns), kept.size());
  MOSAIC_RETURN_IF_ERROR(SortLimitTable(stmt, &out));
  if (opts.trace != nullptr) {
    opts.trace->AddTimed(agg_span.id(), "emit", phase_t0,
                         opts.trace->NowUs());
  }
  return out;
}

}  // namespace

DataType AggOutputType(const AggSpec& spec, bool weighted) {
  switch (spec.func) {
    case sql::AggFunc::kCount:
      return weighted ? DataType::kDouble : DataType::kInt64;
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg:
      return DataType::kDouble;
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax:
      return spec.arg != nullptr ? spec.arg->type : DataType::kDouble;
  }
  return DataType::kDouble;
}

[[nodiscard]] Result<AggregatePlan> BindAggregate(const Schema& source,
                                    const sql::SelectStmt& stmt,
                                    bool weighted) {
  AggregatePlan plan;
  for (const auto& name : stmt.group_by) {
    auto idx = source.FindColumn(name);
    if (!idx) {
      return Status::BindError("GROUP BY column '" + name + "' not found");
    }
    plan.group_cols.push_back(*idx);
    if (std::find(plan.key_cols.begin(), plan.key_cols.end(), *idx) ==
        plan.key_cols.end()) {
      plan.key_cols.push_back(*idx);
      MOSAIC_RETURN_IF_ERROR(plan.group_schema.AddColumn(source.column(*idx)));
    }
  }
  // Items and HAVING bind against the group schema, which grows one
  // column per new aggregate call as the binder meets it.
  Binder arg_binder(&source);
  AggCollection aggs{&plan, &arg_binder, weighted};
  Binder binder(&plan.group_schema);
  binder.set_aggregate_mapper(&AggCollection::MapAggregateThunk, &aggs);
  for (const auto& item : stmt.items) {
    // Column refs outside aggregates must be GROUP BY keys.
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*item.expr, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
    MOSAIC_RETURN_IF_ERROR(
        AddOutputColumn(&plan.out_schema, OutputName(item), bound->type));
    plan.items.push_back(std::move(bound));
  }
  if (stmt.having != nullptr) {
    MOSAIC_RETURN_IF_ERROR(
        ValidateGroupColumnRefs(*stmt.having, stmt.group_by));
    MOSAIC_ASSIGN_OR_RETURN(plan.having, binder.Bind(*stmt.having));
    if (plan.having->type != DataType::kBool) {
      return Status::TypeError("HAVING predicate must be boolean");
    }
  }
  return plan;
}

namespace {

/// Roll the scan/produce tallies of one SELECT into the trace's
/// resource counters. Callers tally their named result just before
/// returning it, so NRVO keeps the return move-free (an extra
/// Result<Table> move showed up on the batch bench); with tracing off
/// this is a single cold branch.
void CountScanProduce(const ExecOptions& opts, uint64_t rows_scanned,
                      const Result<Table>& result) {
  if (opts.trace == nullptr) return;
  trace::CountRowsScanned(opts.trace, rows_scanned);
  if (result.ok()) {
    trace::CountRowsProduced(opts.trace, result->num_rows());
  }
}

}  // namespace

[[nodiscard]] Result<Table> ExecuteSelect(const Table& source, const sql::SelectStmt& stmt,
                            const ExecOptions& opts) {
  const uint64_t rows_in = source.num_rows();
  Result<Table> result = ExecuteSelectBatch(
      TableView(source), SelectionVector::All(source.num_rows()), stmt, opts);
  CountScanProduce(opts, rows_in, result);
  return result;
}

[[nodiscard]] Result<Table> ExecuteSelect(const TableView& view, SelectionVector sel,
                            const sql::SelectStmt& stmt,
                            const ExecOptions& opts) {
  const uint64_t rows_in = sel.size();
  Result<Table> result = ExecuteSelectBatch(view, std::move(sel), stmt, opts);
  CountScanProduce(opts, rows_in, result);
  return result;
}

}  // namespace exec
}  // namespace mosaic
