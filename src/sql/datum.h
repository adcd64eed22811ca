// Datum: a single SQL value (possibly NULL) with runtime type tag.
#ifndef CITUSX_SQL_DATUM_H_
#define CITUSX_SQL_DATUM_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/json.h"
#include "sql/types.h"

namespace citusx::sql {

/// A runtime SQL value in 16 bytes: a type tag and one 8-byte payload.
/// Numbers, booleans, dates and timestamps sit in the payload. Text up to
/// kInlineText bytes sits inline; longer text is a SharedBlock that every
/// copy shares. A jsonb value is a document block plus the offset of the
/// value inside it, so a sub-value shares its parent's document.
///
/// Each accessor answers by the tag: int_value() and bool_value() read 0
/// for a float, and AsInt64()/AsDouble() read 0 for text, jsonb and NULL.
class Datum {
 public:
  /// The longest text held inline.
  static constexpr size_t kInlineText = 14;

  /// SQL NULL (type kNull).
  Datum() = default;
  Datum(const Datum& o) noexcept {
    CopyBits(o);
    if (HasBlock()) block_->Ref();
  }
  /// A moved-from Datum is NULL.
  Datum(Datum&& o) noexcept {
    CopyBits(o);
    o.type_ = TypeId::kNull;
  }
  Datum& operator=(const Datum& o) noexcept {
    if (o.HasBlock()) o.block_->Ref();  // first: `o` may share our block
    Release();
    CopyBits(o);
    return *this;
  }
  Datum& operator=(Datum&& o) noexcept {
    if (this != &o) {
      Release();
      CopyBits(o);
      o.type_ = TypeId::kNull;
    }
    return *this;
  }
  ~Datum() { Release(); }

  static Datum Null() { return Datum(); }
  static Datum Bool(bool b) { return Datum(TypeId::kBool, b ? 1 : 0); }
  static Datum Int4(int32_t v) { return Datum(TypeId::kInt4, v); }
  static Datum Int8(int64_t v) { return Datum(TypeId::kInt8, v); }
  static Datum Float8(double v) {
    Datum d;
    d.type_ = TypeId::kFloat8;
    d.d_ = v;
    return d;
  }
  static Datum Text(std::string_view s);
  /// Days since 2000-01-01.
  static Datum Date(int64_t days) { return Datum(TypeId::kDate, days); }
  /// Microseconds since 2000-01-01.
  static Datum Timestamp(int64_t micros) {
    return Datum(TypeId::kTimestamp, micros);
  }
  /// A jsonb value: the root of `doc`.
  static Datum Jsonb(JsonbBuffer doc) {
    Datum d;
    d.type_ = TypeId::kJsonb;
    d.block_ = doc.release();
    return d;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool bool_value() const { return HoldsInt() && i_ != 0; }
  /// Raw int64 payload (int4/int8/bool/date/timestamp); 0 for other types.
  int64_t int_value() const { return HoldsInt() ? i_ : 0; }
  double float_value() const { return type_ == TypeId::kFloat8 ? d_ : 0; }
  /// The text; empty for other types. Valid while this Datum lives and is
  /// not assigned or moved from: short text is stored inside it.
  std::string_view text_value() const {
    if (type_ != TypeId::kText) return {};
    if (len_ == kLongText) return {block_->data(), block_->size()};
    return {reinterpret_cast<const char*>(this), len_};
  }
  /// The jsonb value, read in place; valid while this Datum lives.
  JsonbView jsonb() const {
    return JsonbView(type_ == TypeId::kJsonb && block_ != nullptr
                         ? block_->data() + offset_
                         : nullptr);
  }
  /// `v`, a value inside this jsonb Datum's document, as a Datum that
  /// points into the document and shares it.
  Datum JsonbAt(JsonbView v) const {
    Datum d;
    d.type_ = TypeId::kJsonb;
    d.block_ = block_;
    d.offset_ = static_cast<uint32_t>(v.data() - block_->data());
    block_->Ref();
    return d;
  }

  /// Numeric value as double (int types widen); 0 for non-numerics.
  double AsDouble() const {
    if (type_ == TypeId::kFloat8) return d_;
    return HoldsInt() ? static_cast<double>(i_) : 0;
  }
  /// Numeric value as int64 (float truncates).
  int64_t AsInt64() const {
    if (type_ == TypeId::kFloat8) return static_cast<int64_t>(d_);
    return HoldsInt() ? i_ : 0;
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
  // len_ of text held in block_.
  static constexpr uint8_t kLongText = 0xff;

  Datum(TypeId type, int64_t v) : i_(v), type_(type) {}

  // bool, int4, int8, date and timestamp keep their value in i_.
  bool HoldsInt() const {
    constexpr unsigned kIntTypes =
        (1u << static_cast<unsigned>(TypeId::kBool)) |
        (1u << static_cast<unsigned>(TypeId::kInt4)) |
        (1u << static_cast<unsigned>(TypeId::kInt8)) |
        (1u << static_cast<unsigned>(TypeId::kDate)) |
        (1u << static_cast<unsigned>(TypeId::kTimestamp));
    return ((kIntTypes >> static_cast<unsigned>(type_)) & 1u) != 0;
  }
  bool HasBlock() const {
    return type_ == TypeId::kText ? len_ == kLongText
                                  : type_ == TypeId::kJsonb && block_ != nullptr;
  }
  void Release() {
    if (HasBlock()) block_->Unref();
  }
  void CopyBits(const Datum& o) {
    std::memcpy(static_cast<void*>(this), &o, sizeof(Datum));
  }

  // Short text is the first kInlineText bytes of the Datum, over the
  // payload, offset_ and spare_.
  union {
    int64_t i_ = 0;        // bool, int4, int8, date, timestamp
    double d_;             // float8
    SharedBlock* block_;   // long text; jsonb document (may be null)
  };
  uint32_t offset_ = 0;    // jsonb: the value's offset in the document
  char spare_[2] = {};
  uint8_t len_ = 0;        // text: inline length, or kLongText
  TypeId type_ = TypeId::kNull;
};

static_assert(sizeof(Datum) == 16, "a Datum is a tag and one 8-byte payload");

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
