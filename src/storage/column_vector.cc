#include "storage/column_vector.h"

#include <limits>

namespace citusx::storage {

Layout LayoutOf(sql::TypeId type) {
  switch (type) {
    case sql::TypeId::kBool:
    case sql::TypeId::kInt4:
    case sql::TypeId::kInt8:
    case sql::TypeId::kDate:
    case sql::TypeId::kTimestamp:
      return Layout::kInt64;
    case sql::TypeId::kFloat8:
      return Layout::kDouble;
    case sql::TypeId::kText:
      return Layout::kText;
    default:
      return Layout::kDatum;
  }
}

sql::Datum ColumnVector::Get(int64_t i) const {
  if (IsNull(i)) return sql::Datum::Null();
  size_t r = static_cast<size_t>(i);
  switch (layout_) {
    case Layout::kInt64: {
      int64_t v = ints_[r];
      switch (type_) {
        case sql::TypeId::kBool: return sql::Datum::Bool(v != 0);
        case sql::TypeId::kInt4:
          return sql::Datum::Int4(static_cast<int32_t>(v));
        case sql::TypeId::kDate: return sql::Datum::Date(v);
        case sql::TypeId::kTimestamp: return sql::Datum::Timestamp(v);
        default: return sql::Datum::Int8(v);
      }
    }
    case Layout::kDouble:
      return sql::Datum::Float8(doubles_[r]);
    case Layout::kText:
      return sql::Datum::Text(std::string(text(i)));
    case Layout::kDatum:
      return datums_[r];
    case Layout::kEmpty:
      break;
  }
  return sql::Datum::Null();
}

void ColumnVector::PushValid(bool valid) {
  size_t word = static_cast<size_t>(size_ >> 6);
  uint64_t bit = uint64_t{1} << (size_ & 63);
  if (validity_.empty()) {
    if (valid) return;
    // First NULL: every earlier row is valid.
    validity_.assign(word + 1, ~uint64_t{0});
  }
  if (validity_.size() <= word) validity_.push_back(~uint64_t{0});
  if (valid) {
    validity_[word] |= bit;
  } else {
    validity_[word] &= ~bit;
  }
}

void ColumnVector::Adopt(sql::TypeId type) {
  type_ = type;
  layout_ = LayoutOf(type);
  size_t n = static_cast<size_t>(size_);
  switch (layout_) {
    case Layout::kInt64: ints_.assign(n, 0); break;
    case Layout::kDouble: doubles_.assign(n, 0); break;
    case Layout::kText: offsets_.assign(n + 1, 0); break;
    case Layout::kDatum: datums_.assign(n, sql::Datum()); break;
    case Layout::kEmpty: break;
  }
  // Rows appended while the column was empty are NULL.
  if (n > 0) validity_.assign(n / 64 + 1, 0);
}

void ColumnVector::Demote() {
  std::vector<sql::Datum> values;
  values.reserve(static_cast<size_t>(size_));
  for (int64_t i = 0; i < size_; i++) values.push_back(Get(i));
  ints_.clear();
  doubles_.clear();
  offsets_.clear();
  bytes_.clear();
  datums_ = std::move(values);
  layout_ = Layout::kDatum;
  type_ = sql::TypeId::kNull;
}

void ColumnVector::Append(const sql::Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return;
  }
  if (layout_ == Layout::kEmpty) {
    Adopt(d.type());
  } else if (d.type() != type_) {
    if (layout_ != Layout::kDatum) Demote();
    type_ = sql::TypeId::kNull;
  }
  if (layout_ == Layout::kText &&
      bytes_.size() + d.text_value().size() >
          std::numeric_limits<uint32_t>::max()) {
    Demote();
  }
  switch (layout_) {
    case Layout::kInt64: ints_.push_back(d.int_value()); break;
    case Layout::kDouble: doubles_.push_back(d.float_value()); break;
    case Layout::kText:
      bytes_ += d.text_value();
      offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
      break;
    case Layout::kDatum: datums_.push_back(d); break;
    case Layout::kEmpty: break;
  }
  PushValid(true);
  size_++;
}

void ColumnVector::AppendNull() {
  switch (layout_) {
    case Layout::kEmpty:
      size_++;
      return;
    case Layout::kInt64: ints_.push_back(0); break;
    case Layout::kDouble: doubles_.push_back(0); break;
    case Layout::kText:
      offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
      break;
    case Layout::kDatum: datums_.push_back(sql::Datum()); break;
  }
  PushValid(false);
  size_++;
}

void ColumnVector::AppendFrom(const ColumnVector& src, int64_t i) {
  if (i < 0 || src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (layout_ == Layout::kText && src.layout_ == Layout::kText) {
    std::string_view v = src.text(i);
    if (bytes_.size() + v.size() > std::numeric_limits<uint32_t>::max()) {
      Append(src.Get(i));
      return;
    }
    bytes_ += v;
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
    PushValid(true);
    size_++;
    return;
  }
  if (src.layout_ != layout_ || src.type_ != type_ ||
      layout_ == Layout::kText) {
    Append(src.Get(i));
    return;
  }
  size_t r = static_cast<size_t>(i);
  switch (layout_) {
    case Layout::kInt64: ints_.push_back(src.ints_[r]); break;
    case Layout::kDouble: doubles_.push_back(src.doubles_[r]); break;
    case Layout::kDatum: datums_.push_back(src.datums_[r]); break;
    case Layout::kText:
    case Layout::kEmpty: break;
  }
  PushValid(true);
  size_++;
}

void ColumnVector::AppendRows(const ColumnVector& src, const int32_t* idx,
                              size_t n) {
  if (src.layout_ == Layout::kEmpty) {
    for (size_t k = 0; k < n; k++) AppendNull();
    return;
  }
  if (layout_ == Layout::kEmpty && size_ == 0 &&
      src.layout_ != Layout::kDatum) {
    Adopt(src.type_);
  }
  bool fast = layout_ == src.layout_ && type_ == src.type_ &&
              (layout_ == Layout::kInt64 || layout_ == Layout::kDouble);
  if (!fast) {
    for (size_t k = 0; k < n; k++) AppendFrom(src, idx[k]);
    return;
  }
  bool src_nulls = src.MayHaveNulls();
  if (layout_ == Layout::kInt64) {
    ints_.reserve(ints_.size() + n);
    for (size_t k = 0; k < n; k++) {
      int32_t i = idx[k];
      ints_.push_back(i < 0 ? 0 : src.ints_[static_cast<size_t>(i)]);
    }
  } else {
    doubles_.reserve(doubles_.size() + n);
    for (size_t k = 0; k < n; k++) {
      int32_t i = idx[k];
      doubles_.push_back(i < 0 ? 0 : src.doubles_[static_cast<size_t>(i)]);
    }
  }
  for (size_t k = 0; k < n; k++) {
    int32_t i = idx[k];
    PushValid(i >= 0 && (!src_nulls || !src.IsNull(i)));
    size_++;
  }
}

void ColumnVector::InitFlat(sql::TypeId type, int64_t n) {
  *this = ColumnVector();
  type_ = type;
  layout_ = LayoutOf(type);
  size_ = n;
  size_t rows = static_cast<size_t>(n);
  switch (layout_) {
    case Layout::kInt64: ints_.assign(rows, 0); break;
    case Layout::kDouble: doubles_.assign(rows, 0); break;
    default:
      layout_ = Layout::kDatum;
      datums_.assign(rows, sql::Datum());
      break;
  }
}

void ColumnVector::SetDatum(int64_t i, sql::Datum d) {
  if (d.is_null()) {
    SetNull(i);
    return;
  }
  datums_[static_cast<size_t>(i)] = std::move(d);
}

void ColumnVector::SetNull(int64_t i) {
  if (validity_.empty()) {
    validity_.assign(static_cast<size_t>(size_ >> 6) + 1, ~uint64_t{0});
  }
  validity_[static_cast<size_t>(i >> 6)] &= ~(uint64_t{1} << (i & 63));
}

}  // namespace citusx::storage
