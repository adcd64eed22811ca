#include "sql/datum.h"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/hash.h"
#include "common/str.h"

namespace citusx::sql {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "unknown";
    case TypeId::kBool:
      return "boolean";
    case TypeId::kInt4:
      return "integer";
    case TypeId::kInt8:
      return "bigint";
    case TypeId::kFloat8:
      return "double precision";
    case TypeId::kText:
      return "text";
    case TypeId::kDate:
      return "date";
    case TypeId::kTimestamp:
      return "timestamp";
    case TypeId::kJsonb:
      return "jsonb";
  }
  return "unknown";
}

Result<TypeId> TypeFromName(const std::string& raw) {
  std::string name = ToLower(raw);
  if (name == "bool" || name == "boolean") return TypeId::kBool;
  if (name == "int" || name == "integer" || name == "int4" ||
      name == "smallint" || name == "int2" || name == "serial") {
    return TypeId::kInt4;
  }
  if (name == "bigint" || name == "int8" || name == "bigserial") {
    return TypeId::kInt8;
  }
  if (name == "float8" || name == "double precision" || name == "double" ||
      name == "real" || name == "float" || name == "numeric" ||
      name == "decimal") {
    return TypeId::kFloat8;
  }
  if (name == "text" || name == "varchar" || name == "char" ||
      name == "character varying" || name == "character" || name == "uuid") {
    return TypeId::kText;
  }
  if (name == "date") return TypeId::kDate;
  if (name == "timestamp" || name == "timestamptz" ||
      name == "timestamp with time zone" ||
      name == "timestamp without time zone") {
    return TypeId::kTimestamp;
  }
  if (name == "jsonb" || name == "json") return TypeId::kJsonb;
  return Status::InvalidArgument("unknown type name: " + raw);
}

int TypeWidth(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return 1;
    case TypeId::kBool:
      return 1;
    case TypeId::kInt4:
      return 4;
    case TypeId::kInt8:
    case TypeId::kFloat8:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return 8;
    case TypeId::kText:
      return 24;  // average assumption; Datum::PhysicalSize is exact
    case TypeId::kJsonb:
      return 256;
  }
  return 8;
}

int Schema::RowWidth() const {
  int w = 24;  // tuple header
  for (const auto& c : columns) w += TypeWidth(c.type);
  return w;
}

int Datum::Compare(const Datum& a, const Datum& b) {
  // NULLs sort after everything (PostgreSQL default NULLS LAST for ASC).
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return 1;
  if (b.is_null()) return -1;
  if (IsNumeric(a.type_) && IsNumeric(b.type_)) {
    if (a.type_ == TypeId::kFloat8 || b.type_ == TypeId::kFloat8) {
      double x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return a.i_ < b.i_ ? -1 : (a.i_ > b.i_ ? 1 : 0);
  }
  if (a.type_ != b.type_) {
    // Date vs timestamp coercion.
    if (a.type_ == TypeId::kDate && b.type_ == TypeId::kTimestamp) {
      int64_t am = a.i_ * 86400000000LL;
      return am < b.i_ ? -1 : (am > b.i_ ? 1 : 0);
    }
    if (a.type_ == TypeId::kTimestamp && b.type_ == TypeId::kDate) {
      int64_t bm = b.i_ * 86400000000LL;
      return a.i_ < bm ? -1 : (a.i_ > bm ? 1 : 0);
    }
    return static_cast<int>(a.type_) < static_cast<int>(b.type_) ? -1 : 1;
  }
  switch (a.type_) {
    case TypeId::kBool:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return a.i_ < b.i_ ? -1 : (a.i_ > b.i_ ? 1 : 0);
    case TypeId::kText: {
      int c = a.text_value().compare(b.text_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kJsonb: {
      if (a.jsonb().data() == b.jsonb().data()) return 0;
      int c = a.jsonb().ToText().compare(b.jsonb().ToText());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

Datum Datum::Text(std::string_view s) {
  static_assert(offsetof(Datum, len_) == kInlineText,
                "short text fills the bytes before len_");
  Datum d;
  d.type_ = TypeId::kText;
  if (s.size() <= kInlineText) {
    d.len_ = static_cast<uint8_t>(s.size());
    if (!s.empty()) std::memcpy(static_cast<void*>(&d), s.data(), s.size());
  } else {
    d.len_ = kLongText;
    d.block_ = SharedBlock::New(s.size());
    std::memcpy(d.block_->data(), s.data(), s.size());
  }
  return d;
}

int32_t Datum::PartitionHash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0;
    case TypeId::kText:
      return HashBytes(text_value());
    case TypeId::kJsonb:
      return HashBytes(jsonb().ToText());
    case TypeId::kFloat8:
      return HashInt64(static_cast<int64_t>(d_ * 1e6));
    default:
      return HashInt64(i_);
  }
}

std::string Datum::GroupKey() const {
  switch (type_) {
    case TypeId::kNull:
      return "\x00N";
    case TypeId::kText: {
      std::string key = "T";
      key.append(text_value());
      return key;
    }
    case TypeId::kJsonb: {
      std::string key = "J";
      jsonb().AppendText(&key);
      return key;
    }
    case TypeId::kFloat8: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "F%.17g", d_);
      return buf;
    }
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "I%lld", static_cast<long long>(i_));
      return buf;
    }
  }
}

std::string Datum::JoinKey() const {
  char buf[32];
  int64_t n = int_value();
  switch (type_) {
    case TypeId::kBool:
      return i_ != 0 ? "B1" : "B0";
    case TypeId::kFloat8:
      if (!IntegralDouble(d_, &n)) {
        std::snprintf(buf, sizeof(buf), "F%.17g", d_);
        return buf;
      }
      break;
    case TypeId::kDate:
      std::snprintf(buf, sizeof(buf), "D%lld",
                    static_cast<long long>(i_ * 86400000000LL));
      return buf;
    case TypeId::kTimestamp:
      std::snprintf(buf, sizeof(buf), "D%lld", static_cast<long long>(i_));
      return buf;
    case TypeId::kText:
    case TypeId::kJsonb:
      return GroupKey();
    default:
      break;
  }
  std::snprintf(buf, sizeof(buf), "I%lld", static_cast<long long>(n));
  return buf;
}

std::string Datum::ToText() const {
  switch (type_) {
    case TypeId::kNull:
      return "";
    case TypeId::kBool:
      return i_ ? "true" : "false";
    case TypeId::kInt4:
    case TypeId::kInt8:
      return StrFormat("%lld", static_cast<long long>(i_));
    case TypeId::kFloat8: {
      if (d_ == std::floor(d_) && std::abs(d_) < 1e15) {
        return StrFormat("%lld", static_cast<long long>(d_));
      }
      return StrFormat("%g", d_);
    }
    case TypeId::kText:
      return std::string(text_value());
    case TypeId::kDate:
      return FormatDate(i_);
    case TypeId::kTimestamp:
      return FormatTimestamp(i_);
    case TypeId::kJsonb:
      return jsonb().ToText();
  }
  return "";
}

std::string Datum::ToSqlLiteral() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return i_ ? "TRUE" : "FALSE";
    case TypeId::kInt4:
    case TypeId::kInt8:
      return StrFormat("%lld", static_cast<long long>(i_));
    case TypeId::kFloat8:
      return StrFormat("%.17g", d_);
    case TypeId::kText:
      return QuoteSqlLiteral(text_value());
    case TypeId::kDate:
      return QuoteSqlLiteral(FormatDate(i_)) + "::date";
    case TypeId::kTimestamp:
      return QuoteSqlLiteral(FormatTimestamp(i_)) + "::timestamp";
    case TypeId::kJsonb:
      return QuoteSqlLiteral(jsonb().ToText()) + "::jsonb";
  }
  return "NULL";
}

Result<Datum> Datum::FromText(TypeId type, const std::string& text) {
  switch (type) {
    case TypeId::kNull:
      return Datum::Null();
    case TypeId::kBool: {
      std::string t = ToLower(text);
      if (t == "t" || t == "true" || t == "1" || t == "yes" || t == "on") {
        return Datum::Bool(true);
      }
      if (t == "f" || t == "false" || t == "0" || t == "no" || t == "off") {
        return Datum::Bool(false);
      }
      return Status::InvalidArgument("bad boolean: " + text);
    }
    case TypeId::kInt4:
    case TypeId::kInt8: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || errno != 0) {
        return Status::InvalidArgument("bad integer: " + text);
      }
      return type == TypeId::kInt4 ? Datum::Int4(static_cast<int32_t>(v))
                                   : Datum::Int8(v);
    }
    case TypeId::kFloat8: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str()) {
        return Status::InvalidArgument("bad float: " + text);
      }
      return Datum::Float8(v);
    }
    case TypeId::kText:
      return Datum::Text(text);
    case TypeId::kDate: {
      CITUSX_ASSIGN_OR_RETURN(int64_t days, ParseDate(text));
      return Datum::Date(days);
    }
    case TypeId::kTimestamp: {
      CITUSX_ASSIGN_OR_RETURN(int64_t us, ParseTimestamp(text));
      return Datum::Timestamp(us);
    }
    case TypeId::kJsonb: {
      CITUSX_ASSIGN_OR_RETURN(JsonbBuffer doc, ParseJsonb(text));
      return Datum::Jsonb(std::move(doc));
    }
  }
  return Status::InvalidArgument("bad type");
}

Result<Datum> Datum::CastTo(TypeId target) const {
  if (is_null()) return Datum::Null();
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kInt4:
      if (IsNumeric(type_)) return Datum::Int4(static_cast<int32_t>(AsInt64()));
      if (type_ == TypeId::kText) return FromText(target, ToText());
      if (type_ == TypeId::kBool) return Datum::Int4(i_ != 0 ? 1 : 0);
      break;
    case TypeId::kInt8:
      if (IsNumeric(type_)) return Datum::Int8(AsInt64());
      if (type_ == TypeId::kText) return FromText(target, ToText());
      break;
    case TypeId::kFloat8:
      if (IsNumeric(type_)) return Datum::Float8(AsDouble());
      if (type_ == TypeId::kText) return FromText(target, ToText());
      break;
    case TypeId::kText:
      return Datum::Text(ToText());
    case TypeId::kDate:
      if (type_ == TypeId::kText) return FromText(target, ToText());
      if (type_ == TypeId::kTimestamp) {
        int64_t days = i_ / 86400000000LL;
        if (i_ < 0 && i_ % 86400000000LL != 0) days--;
        return Datum::Date(days);
      }
      break;
    case TypeId::kTimestamp:
      if (type_ == TypeId::kText) return FromText(target, ToText());
      if (type_ == TypeId::kDate) return Datum::Timestamp(i_ * 86400000000LL);
      break;
    case TypeId::kJsonb:
      if (type_ == TypeId::kText) return FromText(target, ToText());
      break;
    case TypeId::kBool:
      if (type_ == TypeId::kText) return FromText(target, ToText());
      if (IsNumeric(type_)) return Datum::Bool(AsInt64() != 0);
      break;
    default:
      break;
  }
  return Status::InvalidArgument(StrFormat("cannot cast %s to %s",
                                           TypeName(type_), TypeName(target)));
}

int64_t Datum::PhysicalSize() const {
  switch (type_) {
    case TypeId::kNull:
      return 1;
    case TypeId::kBool:
      return 1;
    case TypeId::kInt4:
      return 4;
    case TypeId::kText:
      return static_cast<int64_t>(text_value().size()) + 4;
    case TypeId::kJsonb:
      return block_ != nullptr ? jsonb().PhysicalSize() : 4;
    default:
      return 8;
  }
}

// ---- date/time (Howard Hinnant's civil-from-days algorithms) ----

namespace {
constexpr int64_t kPgEpochDaysFromCivil = 10957;  // 2000-01-01 - 1970-01-01
}  // namespace

int64_t CivilToDays(int y, int m, int d) {
  y -= m <= 2;
  int64_t era = (y >= 0 ? y : y - 399) / 400;
  int64_t yoe = y - era * 400;
  int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  int64_t unix_days = era * 146097 + doe - 719468;
  return unix_days - kPgEpochDaysFromCivil;
}

void DaysToCivil(int64_t days, int* year, int* month, int* day) {
  int64_t z = days + kPgEpochDaysFromCivil + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *year = static_cast<int>(y + (*month <= 2));
}

std::string FormatDate(int64_t days) {
  int y, m, d;
  DaysToCivil(days, &y, &m, &d);
  return StrFormat("%04d-%02d-%02d", y, m, d);
}

std::string FormatTimestamp(int64_t micros) {
  int64_t days = micros / 86400000000LL;
  int64_t rem = micros % 86400000000LL;
  if (rem < 0) {
    days--;
    rem += 86400000000LL;
  }
  int y, m, d;
  DaysToCivil(days, &y, &m, &d);
  int64_t secs = rem / 1000000;
  int64_t us = rem % 1000000;
  if (us == 0) {
    return StrFormat("%04d-%02d-%02d %02lld:%02lld:%02lld", y, m, d,
                     static_cast<long long>(secs / 3600),
                     static_cast<long long>((secs / 60) % 60),
                     static_cast<long long>(secs % 60));
  }
  return StrFormat("%04d-%02d-%02d %02lld:%02lld:%02lld.%06lld", y, m, d,
                   static_cast<long long>(secs / 3600),
                   static_cast<long long>((secs / 60) % 60),
                   static_cast<long long>(secs % 60),
                   static_cast<long long>(us));
}

Result<int64_t> ParseDate(const std::string& s) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 || m > 12 ||
      d < 1 || d > 31) {
    return Status::InvalidArgument("bad date: " + s);
  }
  return CivilToDays(y, m, d);
}

Result<int64_t> ParseTimestamp(const std::string& s) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0;
  double sec = 0;
  int n = std::sscanf(s.c_str(), "%d-%d-%d%*1[ T]%d:%d:%lf", &y, &mo, &d, &h,
                      &mi, &sec);
  if (n < 3 || mo < 1 || mo > 12 || d < 1 || d > 31) {
    return Status::InvalidArgument("bad timestamp: " + s);
  }
  int64_t days = CivilToDays(y, mo, d);
  int64_t us = days * 86400000000LL + (h * 3600LL + mi * 60LL) * 1000000LL +
               static_cast<int64_t>(sec * 1e6);
  return us;
}

}  // namespace citusx::sql
