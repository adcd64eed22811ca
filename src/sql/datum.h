// Datum: a single SQL value (possibly NULL) with runtime type tag.
#ifndef CITUSX_SQL_DATUM_H_
#define CITUSX_SQL_DATUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/json.h"
#include "sql/types.h"

namespace citusx::sql {

/// A runtime SQL value. Copyable; strings/JSON are shared or copied cheaply.
class Datum {
 public:
  /// SQL NULL (type kNull).
  Datum() = default;

  static Datum Null() { return Datum(); }
  static Datum Bool(bool b) {
    Datum d;
    d.type_ = TypeId::kBool;
    d.i_ = b ? 1 : 0;
    return d;
  }
  static Datum Int4(int32_t v) {
    Datum d;
    d.type_ = TypeId::kInt4;
    d.i_ = v;
    return d;
  }
  static Datum Int8(int64_t v) {
    Datum d;
    d.type_ = TypeId::kInt8;
    d.i_ = v;
    return d;
  }
  static Datum Float8(double v) {
    Datum d;
    d.type_ = TypeId::kFloat8;
    d.d_ = v;
    return d;
  }
  static Datum Text(std::string s) {
    Datum d;
    d.type_ = TypeId::kText;
    d.s_ = std::move(s);
    return d;
  }
  /// Days since 2000-01-01.
  static Datum Date(int64_t days) {
    Datum d;
    d.type_ = TypeId::kDate;
    d.i_ = days;
    return d;
  }
  /// Microseconds since 2000-01-01.
  static Datum Timestamp(int64_t micros) {
    Datum d;
    d.type_ = TypeId::kTimestamp;
    d.i_ = micros;
    return d;
  }
  /// A jsonb value: the flat value `doc` points at, in a document `doc`
  /// owns or shares.
  static Datum Jsonb(JsonbBuffer doc) {
    Datum d;
    d.type_ = TypeId::kJsonb;
    d.j_ = std::move(doc);
    return d;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool bool_value() const { return i_ != 0; }
  /// Raw int64 payload (int4/int8/bool/date/timestamp).
  int64_t int_value() const { return i_; }
  double float_value() const { return d_; }
  const std::string& text_value() const { return s_; }
  /// The jsonb value, read in place; valid while this Datum lives.
  JsonbView jsonb() const { return JsonbView(j_.get()); }
  /// `v`, a value inside this jsonb Datum's document, as a Datum that
  /// points into the document and shares it.
  Datum JsonbAt(JsonbView v) const { return Jsonb(JsonbBuffer(j_, v.data())); }

  /// Numeric value as double (int types widen); 0 for non-numerics.
  double AsDouble() const {
    return type_ == TypeId::kFloat8 ? d_ : static_cast<double>(i_);
  }
  /// Numeric value as int64 (float truncates).
  int64_t AsInt64() const {
    return type_ == TypeId::kFloat8 ? static_cast<int64_t>(d_) : i_;
  }

  /// Three-way comparison with numeric cross-type coercion. NULLs sort last.
  /// Values of incomparable types order by type id (stable, for sorting).
  static int Compare(const Datum& a, const Datum& b);

  /// SQL equality (used by joins, group by). NULL != NULL here.
  static bool Equal(const Datum& a, const Datum& b) {
    if (a.is_null() || b.is_null()) return false;
    return Compare(a, b) == 0;
  }

  /// Hash for hash-partitioning / hash joins. NULL hashes to 0.
  int32_t PartitionHash() const;

  /// GROUP BY key: type-stable string encoding, one class per int64
  /// payload of the integer-like types and one per float.
  std::string GroupKey() const;

  /// Hash-join key, in Compare's equality classes: numbers compare by
  /// value across int4, int8 and float8 (an integral float files with the
  /// integers), a date with the timestamp at its midnight, and values of
  /// other types only with their own type. Not for NULL, which never joins.
  std::string JoinKey() const;

  /// Cast-to-text semantics (PostgreSQL ::text).
  std::string ToText() const;

  /// A SQL literal that re-parses to this value (used when deparsing
  /// queries sent to worker nodes).
  std::string ToSqlLiteral() const;

  /// Parse a text representation into a value of `type` (COPY / casts).
  static Result<Datum> FromText(TypeId type, const std::string& text);

  /// Cast this value to `target`. Implements the ::type operator.
  Result<Datum> CastTo(TypeId target) const;

  /// Approximate in-memory/on-disk size for block accounting.
  int64_t PhysicalSize() const;

 private:
  TypeId type_ = TypeId::kNull;
  int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
  JsonbBuffer j_;
};

/// One tuple.
using Row = std::vector<Datum>;

/// True, with `*out` set, when `d` is an integer within int64 range: the
/// floats whose join key is an integer's.
inline bool IntegralDouble(double d, int64_t* out) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) ||
      d != static_cast<double>(static_cast<int64_t>(d))) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

// ---- date/time helpers (epoch = 2000-01-01, like PostgreSQL) ----

/// Convert y/m/d to days since 2000-01-01.
int64_t CivilToDays(int year, int month, int day);
/// Convert days since 2000-01-01 to y/m/d.
void DaysToCivil(int64_t days, int* year, int* month, int* day);
/// "YYYY-MM-DD".
std::string FormatDate(int64_t days);
/// "YYYY-MM-DD HH:MM:SS[.ffffff]".
std::string FormatTimestamp(int64_t micros);
/// Parse "YYYY-MM-DD" (extra characters after the date are ignored).
Result<int64_t> ParseDate(const std::string& s);
/// Parse "YYYY-MM-DD[ T]HH:MM:SS[.ffffff][Z]"; time part optional.
Result<int64_t> ParseTimestamp(const std::string& s);

}  // namespace citusx::sql

#endif  // CITUSX_SQL_DATUM_H_
