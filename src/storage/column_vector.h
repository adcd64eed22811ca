// Typed column storage, shared by columnar stripes and the vectorized
// executor's batches (src/exec): int64 for bool/int4/int8/date/timestamp,
// double for float8, text as bytes plus offsets, each with a validity
// bitmap. jsonb, and columns whose values turn out to have more than one
// type, keep sql::Datum values.
#ifndef CITUSX_STORAGE_COLUMN_VECTOR_H_
#define CITUSX_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sql/datum.h"

namespace citusx::storage {

/// How a column's non-NULL values are laid out.
enum class Layout : uint8_t {
  kEmpty,   // no non-NULL value yet: every row is NULL
  kInt64,   // bool, int4, int8, date, timestamp
  kDouble,  // float8
  kText,    // bytes plus offsets
  kDatum,   // jsonb, or values of more than one type
};

/// The layout that holds values of `type`.
Layout LayoutOf(sql::TypeId type);

class ColumnVector {
 public:
  /// An untyped column: the first non-NULL value appended sets its type.
  ColumnVector() = default;

  /// Type of every non-NULL value; kNull while the column is kEmpty and
  /// for a kDatum column holding several types.
  sql::TypeId type() const { return type_; }
  Layout layout() const { return layout_; }
  int64_t size() const { return size_; }

  /// True when some row may be NULL (false guarantees none is).
  bool MayHaveNulls() const {
    return layout_ == Layout::kEmpty ? size_ > 0 : !validity_.empty();
  }
  bool IsNull(int64_t i) const {
    return layout_ == Layout::kEmpty ||
           (!validity_.empty() &&
            ((validity_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1) == 0);
  }

  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  std::string_view text(int64_t i) const {
    uint32_t b = offsets_[static_cast<size_t>(i)];
    return std::string_view(bytes_.data() + b,
                            offsets_[static_cast<size_t>(i) + 1] - b);
  }
  const sql::Datum& datum(int64_t i) const {
    return datums_[static_cast<size_t>(i)];
  }

  /// Row `i` as a Datum of exactly the type it was appended with.
  sql::Datum Get(int64_t i) const;

  void Append(const sql::Datum& d);
  void AppendNull();
  /// Append row `i` of `src` (NULL when `i` < 0).
  void AppendFrom(const ColumnVector& src, int64_t i);
  /// Append rows `idx[0..n)` of `src` (NULL where an index is < 0).
  void AppendRows(const ColumnVector& src, const int32_t* idx, size_t n);

  // ---- results indexed by physical row (kernel outputs) ----

  /// Size the column to `n` non-NULL rows of `type`, to be overwritten by
  /// the setters below. kText and kNull (several types) results hold
  /// Datums.
  void InitFlat(sql::TypeId type, int64_t n);
  void SetInt(int64_t i, int64_t v) { ints_[static_cast<size_t>(i)] = v; }
  void SetDouble(int64_t i, double v) {
    doubles_[static_cast<size_t>(i)] = v;
  }
  /// Datum layouts only; a NULL `d` marks the row NULL.
  void SetDatum(int64_t i, sql::Datum d);
  void SetNull(int64_t i);

 private:
  /// The first non-NULL value of an untyped column sets its layout.
  void Adopt(sql::TypeId type);
  /// A value of a second type: keep every value as a Datum from now on.
  void Demote();
  void PushValid(bool valid);

  sql::TypeId type_ = sql::TypeId::kNull;
  Layout layout_ = Layout::kEmpty;
  int64_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> offsets_;  // kText: row i is [offsets_[i], [i+1])
  std::string bytes_;
  std::vector<sql::Datum> datums_;
  std::vector<uint64_t> validity_;  // empty while no row is NULL
};

}  // namespace citusx::storage

#endif  // CITUSX_STORAGE_COLUMN_VECTOR_H_
