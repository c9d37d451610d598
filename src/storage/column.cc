#include "storage/column.h"

#include <algorithm>
#include <cassert>

namespace mosaic {

namespace {

// Grow to a power-of-two capacity, as push_back does from an empty
// column: sized exactly, a bulk append would make the next small
// append (an INSERT after the setup ingest) reallocate and copy the
// whole column, which shows in peak RSS.
template <typename T>
void ReserveForAppend(AlignedVector<T>* dst, size_t n) {
  const size_t need = dst->size() + n;
  if (need <= dst->capacity()) return;
  size_t cap = 1;
  while (cap < need) cap *= 2;
  dst->reserve(cap);
}

template <typename T>
void AppendPrefix(AlignedVector<T>* dst, const AlignedVector<T>& src,
                  size_t n) {
  if (n == 0) return;
  const size_t old = dst->size();
  ReserveForAppend(dst, n);
  dst->resize(old + n);
  // Read `src` only after the resize: it may be `*dst` (self-append).
  std::copy_n(src.data(), n, dst->data() + old);
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  assert(type != DataType::kNull);
  if (type_ == DataType::kString) dict_ = std::make_shared<Dictionary>();
}

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kBool:
      return bools_.size();
    case DataType::kString:
      return codes_.size();
    default:
      return 0;
  }
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    return Status::InvalidArgument("columns are non-nullable");
  }
  MOSAIC_ASSIGN_OR_RETURN(Value cast, v.CastTo(type_));
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(cast.AsInt64());
      break;
    case DataType::kDouble:
      doubles_.push_back(cast.AsDouble());
      break;
    case DataType::kBool:
      bools_.push_back(cast.AsBool() ? 1 : 0);
      break;
    case DataType::kString:
      codes_.push_back(dict_->GetOrInsert(cast.AsString()));
      break;
    default:
      return Status::Internal("bad column type");
  }
  return Status::OK();
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  doubles_.push_back(v);
}

void Column::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  bools_.push_back(v ? 1 : 0);
}

void Column::AppendString(const std::string& s) {
  assert(type_ == DataType::kString);
  codes_.push_back(dict_->GetOrInsert(s));
}

void Column::AppendCode(int32_t code) {
  assert(type_ == DataType::kString);
  assert(code >= 0 && static_cast<size_t>(code) < dict_->size());
  codes_.push_back(code);
}

void Column::AppendFrom(const Column& src, size_t n) {
  assert(src.type_ == type_ && n <= src.size());
  switch (type_) {
    case DataType::kInt64:
      AppendPrefix(&ints_, src.ints_, n);
      break;
    case DataType::kDouble:
      AppendPrefix(&doubles_, src.doubles_, n);
      break;
    case DataType::kBool:
      AppendPrefix(&bools_, src.bools_, n);
      break;
    case DataType::kString: {
      if (src.dict_ == dict_) {
        AppendPrefix(&codes_, src.codes_, n);
        break;
      }
      std::vector<int32_t> remap(src.dict_->size(), -1);
      ReserveForAppend(&codes_, n);
      for (size_t r = 0; r < n; ++r) {
        const int32_t from = src.codes_[r];
        int32_t& to = remap[static_cast<size_t>(from)];
        if (to < 0) to = dict_->GetOrInsert(src.dict_->Decode(from));
        codes_.push_back(to);
      }
      break;
    }
    default:
      break;
  }
}

Column Column::FromInt64(AlignedVector<int64_t> values) {
  Column out(DataType::kInt64);
  out.ints_ = std::move(values);
  return out;
}

Column Column::FromDouble(AlignedVector<double> values) {
  Column out(DataType::kDouble);
  out.doubles_ = std::move(values);
  return out;
}

Column Column::FromBool(AlignedVector<uint8_t> values) {
  Column out(DataType::kBool);
  out.bools_ = std::move(values);
  return out;
}

Column Column::FromCodes(std::shared_ptr<Dictionary> dict,
                         AlignedVector<int32_t> codes) {
  Column out(DataType::kString);
  out.dict_ = std::move(dict);
  out.codes_ = std::move(codes);
  return out;
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kDouble:
      return Value(doubles_[row]);
    case DataType::kBool:
      return Value(bools_[row] != 0);
    case DataType::kString:
      return Value(dict_->Decode(codes_[row]));
    default:
      return Value::Null();
  }
}

Result<double> Column::GetDouble(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kBool:
      return bools_[row] != 0 ? 1.0 : 0.0;
    default:
      return Status::TypeError("string column has no numeric view");
  }
}

int32_t Column::GetCode(size_t row) const {
  assert(type_ == DataType::kString);
  return codes_[row];
}

std::vector<double> Column::ToDoubleVector() const {
  std::vector<double> out;
  out.reserve(size());
  switch (type_) {
    case DataType::kInt64:
      for (int64_t v : ints_) out.push_back(static_cast<double>(v));
      break;
    case DataType::kDouble:
      out.assign(doubles_.begin(), doubles_.end());
      break;
    case DataType::kBool:
      for (uint8_t v : bools_) out.push_back(v ? 1.0 : 0.0);
      break;
    case DataType::kString:
      for (int32_t c : codes_) out.push_back(static_cast<double>(c));
      break;
    default:
      break;
  }
  return out;
}

Column Column::Gather(const std::vector<size_t>& rows) const {
  Column out(type_);
  out.Reserve(rows.size());
  switch (type_) {
    case DataType::kInt64:
      for (size_t r : rows) out.ints_.push_back(ints_[r]);
      break;
    case DataType::kDouble:
      for (size_t r : rows) out.doubles_.push_back(doubles_[r]);
      break;
    case DataType::kBool:
      for (size_t r : rows) out.bools_.push_back(bools_[r]);
      break;
    case DataType::kString:
      out.dict_ = dict_;  // share the dictionary; codes stay valid
      for (size_t r : rows) out.codes_.push_back(codes_[r]);
      break;
    default:
      break;
  }
  return out;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
    default:
      break;
  }
}

}  // namespace mosaic
