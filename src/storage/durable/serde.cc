#include "storage/durable/serde.h"

#include <utility>
#include <vector>

namespace mosaic {
namespace durable {

namespace {

// Nested Expr decode guards against pathological depth; CRC-validated
// inputs should never hit this, so tripping it means a format bug.
constexpr int kMaxExprDepth = 256;

}  // namespace

// --- Expr ---

void EncodeExpr(const sql::Expr* e, ByteWriter* w) {
  if (e == nullptr) {
    w->PutU8(0);
    return;
  }
  w->PutU8(1);
  w->PutU8(static_cast<uint8_t>(e->kind));
  EncodeValue(e->literal, w);
  w->PutString(e->column);
  w->PutU8(static_cast<uint8_t>(e->unary_op));
  w->PutU8(static_cast<uint8_t>(e->binary_op));
  EncodeExpr(e->child.get(), w);
  EncodeExpr(e->left.get(), w);
  EncodeExpr(e->right.get(), w);
  EncodeExpr(e->between_lo.get(), w);
  EncodeExpr(e->between_hi.get(), w);
  w->PutU32(static_cast<uint32_t>(e->in_list.size()));
  for (const Value& v : e->in_list) EncodeValue(v, w);
  w->PutU8(static_cast<uint8_t>(e->agg_func));
  w->PutU8(e->agg_is_star ? 1 : 0);
}

namespace {

[[nodiscard]] Result<sql::ExprPtr> DecodeExprDepth(ByteReader* r, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::InvalidArgument("serde: expression nesting too deep");
  }
  MOSAIC_ASSIGN_OR_RETURN(uint8_t present, r->ReadU8());
  if (present == 0) return sql::ExprPtr();
  auto e = std::make_unique<sql::Expr>();
  MOSAIC_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
  if (kind > static_cast<uint8_t>(sql::Expr::Kind::kAggregate)) {
    return Status::InvalidArgument("serde: bad expr kind");
  }
  e->kind = static_cast<sql::Expr::Kind>(kind);
  MOSAIC_ASSIGN_OR_RETURN(e->literal, DecodeValue(r));
  MOSAIC_ASSIGN_OR_RETURN(e->column, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(uint8_t uop, r->ReadU8());
  e->unary_op = static_cast<sql::UnaryOp>(uop);
  MOSAIC_ASSIGN_OR_RETURN(uint8_t bop, r->ReadU8());
  e->binary_op = static_cast<sql::BinaryOp>(bop);
  MOSAIC_ASSIGN_OR_RETURN(e->child, DecodeExprDepth(r, depth + 1));
  MOSAIC_ASSIGN_OR_RETURN(e->left, DecodeExprDepth(r, depth + 1));
  MOSAIC_ASSIGN_OR_RETURN(e->right, DecodeExprDepth(r, depth + 1));
  MOSAIC_ASSIGN_OR_RETURN(e->between_lo, DecodeExprDepth(r, depth + 1));
  MOSAIC_ASSIGN_OR_RETURN(e->between_hi, DecodeExprDepth(r, depth + 1));
  MOSAIC_ASSIGN_OR_RETURN(uint32_t n_in, r->ReadU32());
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(n_in, 1, "IN-list value"));
  e->in_list.reserve(n_in);
  for (uint32_t i = 0; i < n_in; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    e->in_list.push_back(std::move(v));
  }
  MOSAIC_ASSIGN_OR_RETURN(uint8_t agg, r->ReadU8());
  e->agg_func = static_cast<sql::AggFunc>(agg);
  MOSAIC_ASSIGN_OR_RETURN(uint8_t star, r->ReadU8());
  e->agg_is_star = star != 0;
  return sql::ExprPtr(std::move(e));
}

}  // namespace

[[nodiscard]] Result<sql::ExprPtr> DecodeExpr(ByteReader* r) {
  return DecodeExprDepth(r, 0);
}

// --- MechanismSpec ---

void EncodeMechanism(const sql::MechanismSpec& m, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(m.type));
  w->PutString(m.stratify_attr);
  w->PutDouble(m.percent);
}

[[nodiscard]] Result<sql::MechanismSpec> DecodeMechanism(ByteReader* r) {
  sql::MechanismSpec m;
  MOSAIC_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
  if (type > static_cast<uint8_t>(sql::MechanismSpec::Type::kStratified)) {
    return Status::InvalidArgument("serde: bad mechanism type");
  }
  m.type = static_cast<sql::MechanismSpec::Type>(type);
  MOSAIC_ASSIGN_OR_RETURN(m.stratify_attr, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(m.percent, r->ReadDouble());
  return m;
}

// --- Marginal ---

void EncodeMarginal(const stats::Marginal& m, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(m.arity()));
  for (size_t i = 0; i < m.arity(); ++i) {
    const stats::AttributeBinning& b = m.binning(i);
    w->PutString(b.attr());
    w->PutU8(b.is_categorical() ? 1 : 0);
    if (b.is_categorical()) {
      w->PutU32(static_cast<uint32_t>(b.categories().size()));
      for (const Value& v : b.categories()) EncodeValue(v, w);
    } else {
      w->PutDouble(b.lo());
      w->PutDouble(b.hi());
      w->PutU64(b.num_bins());
    }
  }
  w->PutU64(m.counts().size());
  w->PutBytes(m.counts().data(), m.counts().size() * sizeof(double));
}

[[nodiscard]] Result<stats::Marginal> DecodeMarginal(ByteReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t arity, r->ReadU32());
  // An attribute is at least an empty name, its flag and an empty
  // category list.
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(arity, 9, "marginal attribute"));
  std::vector<stats::AttributeBinning> attrs;
  attrs.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(std::string attr, r->ReadString());
    MOSAIC_ASSIGN_OR_RETURN(uint8_t categorical, r->ReadU8());
    if (categorical != 0) {
      MOSAIC_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
      MOSAIC_RETURN_IF_ERROR(r->CheckCount(n, 1, "category"));
      std::vector<Value> categories;
      categories.reserve(n);
      for (uint32_t k = 0; k < n; ++k) {
        MOSAIC_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
        categories.push_back(std::move(v));
      }
      attrs.push_back(stats::AttributeBinning::Categorical(
          std::move(attr), std::move(categories)));
    } else {
      MOSAIC_ASSIGN_OR_RETURN(double lo, r->ReadDouble());
      MOSAIC_ASSIGN_OR_RETURN(double hi, r->ReadDouble());
      MOSAIC_ASSIGN_OR_RETURN(uint64_t bins, r->ReadU64());
      if (!(hi > lo) || bins == 0) {
        return Status::InvalidArgument("serde: bad continuous binning");
      }
      attrs.push_back(stats::AttributeBinning::Continuous(
          std::move(attr), lo, hi, static_cast<size_t>(bins)));
    }
  }
  MOSAIC_ASSIGN_OR_RETURN(uint64_t n_counts, r->ReadU64());
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(n_counts, sizeof(double), "count"));
  std::vector<double> counts(static_cast<size_t>(n_counts));
  MOSAIC_RETURN_IF_ERROR(
      r->ReadBytes(counts.data(), counts.size() * sizeof(double)));
  return stats::Marginal::FromCounts(std::move(attrs), std::move(counts));
}

// --- WeightEpoch ---

void EncodeWeightEpoch(const core::WeightEpoch& e, ByteWriter* w) {
  w->PutU64(e.id);
  w->PutU64(e.weights.size());
  w->PutBytes(e.weights.data(), e.weights.size() * sizeof(double));
  w->PutString(e.fit_signature);
  w->PutDouble(e.fit_error);
  w->PutDouble(e.fit_uncovered);
  w->PutU8(e.fit_converged ? 1 : 0);
}

[[nodiscard]] Result<core::WeightEpoch> DecodeWeightEpoch(ByteReader* r) {
  core::WeightEpoch e;
  MOSAIC_ASSIGN_OR_RETURN(e.id, r->ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(n, sizeof(double), "weight"));
  e.weights.resize(static_cast<size_t>(n));
  MOSAIC_RETURN_IF_ERROR(
      r->ReadBytes(e.weights.data(), e.weights.size() * sizeof(double)));
  MOSAIC_ASSIGN_OR_RETURN(e.fit_signature, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(e.fit_error, r->ReadDouble());
  MOSAIC_ASSIGN_OR_RETURN(e.fit_uncovered, r->ReadDouble());
  MOSAIC_ASSIGN_OR_RETURN(uint8_t converged, r->ReadU8());
  e.fit_converged = converged != 0;
  return e;
}

// --- PopulationInfo ---

void EncodePopulation(const core::PopulationInfo& p, ByteWriter* w) {
  w->PutString(p.name);
  w->PutU8(p.global ? 1 : 0);
  EncodeSchema(p.schema, w);
  w->PutString(p.parent);
  EncodeExpr(p.predicate.get(), w);
  w->PutU32(static_cast<uint32_t>(p.marginals.size()));
  for (size_t i = 0; i < p.marginals.size(); ++i) {
    w->PutString(p.metadata_names[i]);
    EncodeMarginal(p.marginals[i], w);
  }
}

[[nodiscard]] Result<core::PopulationInfo> DecodePopulation(ByteReader* r) {
  core::PopulationInfo p;
  MOSAIC_ASSIGN_OR_RETURN(p.name, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(uint8_t global, r->ReadU8());
  p.global = global != 0;
  MOSAIC_ASSIGN_OR_RETURN(p.schema, DecodeSchema(r));
  MOSAIC_ASSIGN_OR_RETURN(p.parent, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(p.predicate, DecodeExpr(r));
  MOSAIC_ASSIGN_OR_RETURN(uint32_t n_meta, r->ReadU32());
  for (uint32_t i = 0; i < n_meta; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    MOSAIC_ASSIGN_OR_RETURN(stats::Marginal m, DecodeMarginal(r));
    p.metadata_names.push_back(std::move(name));
    p.marginals.push_back(std::move(m));
  }
  return p;
}

// --- SampleInfo header ---

void EncodeSampleHeader(const core::SampleInfo& s, ByteWriter* w) {
  w->PutString(s.name);
  w->PutString(s.population);
  EncodeSchema(s.schema, w);
  EncodeMechanism(s.mechanism, w);
  EncodeExpr(s.predicate.get(), w);
}

[[nodiscard]] Result<core::SampleInfo> DecodeSampleHeader(ByteReader* r) {
  core::SampleInfo s;
  MOSAIC_ASSIGN_OR_RETURN(s.name, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(s.population, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(s.schema, DecodeSchema(r));
  s.data = Table(s.schema);
  MOSAIC_ASSIGN_OR_RETURN(s.mechanism, DecodeMechanism(r));
  MOSAIC_ASSIGN_OR_RETURN(s.predicate, DecodeExpr(r));
  return s;
}

}  // namespace durable
}  // namespace mosaic
