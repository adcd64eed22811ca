#include "sql/eval.h"

#include <cmath>

#include "common/hash.h"
#include "common/str.h"

namespace citusx::sql {

namespace {

Result<Datum> EvalNumeric(BinOp op, const Datum& l, const Datum& r) {
  // Date/timestamp arithmetic.
  if (l.type() == TypeId::kDate && IsIntegral(r.type())) {
    if (op == BinOp::kAdd) return Datum::Date(l.int_value() + r.int_value());
    if (op == BinOp::kSub) return Datum::Date(l.int_value() - r.int_value());
  }
  if (l.type() == TypeId::kDate && r.type() == TypeId::kDate &&
      op == BinOp::kSub) {
    return Datum::Int8(l.int_value() - r.int_value());
  }
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::InvalidArgument(
        StrFormat("cannot apply arithmetic to %s and %s", TypeName(l.type()),
                  TypeName(r.type())));
  }
  if (l.type() == TypeId::kFloat8 || r.type() == TypeId::kFloat8 ||
      (op == BinOp::kDiv && false)) {
    double a = l.AsDouble(), b = r.AsDouble();
    switch (op) {
      case BinOp::kAdd:
        return Datum::Float8(a + b);
      case BinOp::kSub:
        return Datum::Float8(a - b);
      case BinOp::kMul:
        return Datum::Float8(a * b);
      case BinOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Datum::Float8(a / b);
      case BinOp::kMod:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Datum::Float8(std::fmod(a, b));
      default:
        break;
    }
  }
  int64_t a = l.AsInt64(), b = r.AsInt64();
  switch (op) {
    case BinOp::kAdd:
      return Datum::Int8(a + b);
    case BinOp::kSub:
      return Datum::Int8(a - b);
    case BinOp::kMul:
      return Datum::Int8(a * b);
    case BinOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum::Int8(a / b);
    case BinOp::kMod:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum::Int8(a % b);
    default:
      break;
  }
  return Status::Internal("bad numeric op");
}

Result<Datum> EvalJsonGet(const Datum& l, const Datum& r, bool as_text) {
  if (l.type() != TypeId::kJsonb) {
    return Status::InvalidArgument("-> requires jsonb left operand");
  }
  const JsonPtr& j = l.json_value();
  if (j == nullptr) return Datum::Null();
  JsonPtr out;
  if (r.type() == TypeId::kText) {
    out = j->GetField(r.text_value());
  } else if (IsIntegral(r.type())) {
    out = j->GetElement(r.int_value());
  } else {
    return Status::InvalidArgument("-> requires text or int key");
  }
  if (out == nullptr || out->is_null()) return Datum::Null();
  if (!as_text) return Datum::Jsonb(out);
  if (out->kind() == Json::Kind::kString) return Datum::Text(out->string_value());
  return Datum::Text(out->ToString());
}

Result<Datum> CallFunction(const std::string& name,
                           const std::vector<Datum>& args,
                           const EvalContext& ctx) {
  auto need = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(
          StrFormat("%s expects %zu arguments", name.c_str(), n));
    }
    return Status::OK();
  };
  if (name == "lower") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    return Datum::Text(ToLower(args[0].ToText()));
  }
  if (name == "upper") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    return Datum::Text(ToUpper(args[0].ToText()));
  }
  if (name == "length" || name == "char_length") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    return Datum::Int8(static_cast<int64_t>(args[0].ToText().size()));
  }
  if (name == "abs") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    if (args[0].type() == TypeId::kFloat8) {
      return Datum::Float8(std::abs(args[0].float_value()));
    }
    return Datum::Int8(std::abs(args[0].int_value()));
  }
  if (name == "floor" || name == "ceil" || name == "round" || name == "sqrt") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    double v = args[0].AsDouble();
    if (name == "floor") return Datum::Float8(std::floor(v));
    if (name == "ceil") return Datum::Float8(std::ceil(v));
    if (name == "round") return Datum::Float8(std::round(v));
    return Datum::Float8(std::sqrt(v));
  }
  if (name == "power") {
    CITUSX_RETURN_IF_ERROR(need(2));
    return Datum::Float8(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (name == "coalesce") {
    for (const auto& a : args) {
      if (!a.is_null()) return a;
    }
    return Datum::Null();
  }
  if (name == "greatest" || name == "least") {
    Datum best;
    for (const auto& a : args) {
      if (a.is_null()) continue;
      if (best.is_null()) {
        best = a;
        continue;
      }
      int c = Datum::Compare(a, best);
      if ((name == "greatest" && c > 0) || (name == "least" && c < 0)) best = a;
    }
    return best;
  }
  if (name == "md5") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    // Not cryptographic: a 128-bit-looking hex digest from two 64-bit mixes.
    std::string in = args[0].ToText();
    uint64_t h1 = Mix64(static_cast<uint64_t>(HashBytes(in)) * 0x9e3779b9ULL);
    uint64_t h2 = Mix64(h1 ^ 0xabcdef0123456789ULL);
    return Datum::Text(StrFormat("%016llx%016llx",
                                 static_cast<unsigned long long>(h1),
                                 static_cast<unsigned long long>(h2)));
  }
  if (name == "random") {
    CITUSX_RETURN_IF_ERROR(need(0));
    if (ctx.rng == nullptr) return Datum::Float8(0.5);
    return Datum::Float8(ctx.rng->NextDouble());
  }
  if (name == "substring" || name == "substr") {
    if (args.size() < 2 || args.size() > 3) {
      return Status::InvalidArgument("substring expects 2 or 3 arguments");
    }
    if (args[0].is_null()) return Datum::Null();
    std::string s = args[0].ToText();
    int64_t start = args[1].AsInt64() - 1;  // SQL is 1-based
    if (start < 0) start = 0;
    if (start >= static_cast<int64_t>(s.size())) return Datum::Text("");
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt64()))
                     : std::string::npos;
    return Datum::Text(s.substr(static_cast<size_t>(start), len));
  }
  if (name == "strpos" || name == "position") {
    CITUSX_RETURN_IF_ERROR(need(2));
    std::string s = args[0].ToText();
    size_t p = s.find(args[1].ToText());
    return Datum::Int8(p == std::string::npos ? 0
                                              : static_cast<int64_t>(p) + 1);
  }
  if (name == "concat") {
    std::string out;
    for (const auto& a : args) {
      if (!a.is_null()) out += a.ToText();
    }
    return Datum::Text(out);
  }
  if (name == "add_days") {
    CITUSX_RETURN_IF_ERROR(need(2));
    if (args[0].is_null()) return Datum::Null();
    if (args[0].type() == TypeId::kTimestamp) {
      return Datum::Timestamp(args[0].int_value() +
                              args[1].AsInt64() * 86400000000LL);
    }
    return Datum::Date(args[0].AsInt64() + args[1].AsInt64());
  }
  if (name == "add_months") {
    CITUSX_RETURN_IF_ERROR(need(2));
    if (args[0].is_null()) return Datum::Null();
    CITUSX_ASSIGN_OR_RETURN(Datum d, args[0].CastTo(TypeId::kDate));
    int y, m, day;
    DaysToCivil(d.int_value(), &y, &m, &day);
    int64_t months = (y * 12 + (m - 1)) + args[1].AsInt64();
    y = static_cast<int>(months / 12);
    m = static_cast<int>(months % 12) + 1;
    static const int kDim[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    int max_day = kDim[m - 1];
    if (m == 2 && ((y % 4 == 0 && y % 100 != 0) || y % 400 == 0)) max_day = 29;
    if (day > max_day) day = max_day;
    return Datum::Date(CivilToDays(y, m, day));
  }
  if (name == "extract_year" || name == "extract_month" ||
      name == "extract_day") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Datum::Null();
    CITUSX_ASSIGN_OR_RETURN(Datum d, args[0].CastTo(TypeId::kDate));
    int y, m, day;
    DaysToCivil(d.int_value(), &y, &m, &day);
    if (name == "extract_year") return Datum::Int8(y);
    if (name == "extract_month") return Datum::Int8(m);
    return Datum::Int8(day);
  }
  if (name == "date_trunc") {
    CITUSX_RETURN_IF_ERROR(need(2));
    if (args[1].is_null()) return Datum::Null();
    std::string unit = ToLower(args[0].ToText());
    CITUSX_ASSIGN_OR_RETURN(Datum d, args[1].CastTo(TypeId::kDate));
    int y, m, day;
    DaysToCivil(d.int_value(), &y, &m, &day);
    if (unit == "year") return Datum::Date(CivilToDays(y, 1, 1));
    if (unit == "month") return Datum::Date(CivilToDays(y, m, 1));
    if (unit == "day") return d;
    return Status::NotSupported("date_trunc unit: " + unit);
  }
  if (name == "jsonb_array_length") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null() || args[0].type() != TypeId::kJsonb) {
      return Datum::Null();
    }
    const JsonPtr& j = args[0].json_value();
    if (j == nullptr || j->kind() != Json::Kind::kArray) return Datum::Null();
    return Datum::Int8(j->array_size());
  }
  if (name == "jsonb_path_query_array") {
    CITUSX_RETURN_IF_ERROR(need(2));
    if (args[0].is_null()) return Datum::Null();
    if (args[0].type() != TypeId::kJsonb) {
      return Status::InvalidArgument("jsonb_path_query_array requires jsonb");
    }
    auto matches = Json::PathQuery(args[0].json_value(), args[1].ToText());
    return Datum::Jsonb(Json::MakeArray(std::move(matches)));
  }
  if (name == "jsonb_typeof") {
    CITUSX_RETURN_IF_ERROR(need(1));
    if (args[0].is_null() || args[0].json_value() == nullptr) {
      return Datum::Null();
    }
    switch (args[0].json_value()->kind()) {
      case Json::Kind::kNull:
        return Datum::Text("null");
      case Json::Kind::kBool:
        return Datum::Text("boolean");
      case Json::Kind::kNumber:
        return Datum::Text("number");
      case Json::Kind::kString:
        return Datum::Text("string");
      case Json::Kind::kArray:
        return Datum::Text("array");
      case Json::Kind::kObject:
        return Datum::Text("object");
    }
  }
  return Status::NotFound("unknown function: " + name);
}

}  // namespace

namespace {

bool LikeMatchExact(std::string_view t, std::string_view p) {
  // Iterative wildcard matching with backtracking over the last '%'.
  size_t ti = 0, pi = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (ti < t.size()) {
    if (pi < p.size() && (p[pi] == '_' || p[pi] == t[ti])) {
      ti++;
      pi++;
    } else if (pi < p.size() && p[pi] == '%') {
      star_p = pi++;
      star_t = ti;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      ti = ++star_t;
    } else {
      return false;
    }
  }
  while (pi < p.size() && p[pi] == '%') pi++;
  return pi == p.size();
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern,
               bool case_insensitive) {
  if (case_insensitive) return LikeMatchExact(ToLower(text), ToLower(pattern));
  return LikeMatchExact(text, pattern);
}

Result<Datum> Eval(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.value;
    case ExprKind::kColumnRef:
    case ExprKind::kAgg: {
      // Aggregates are materialized into slots by the executor; a bound agg
      // node reads its result exactly like a column reference.
      if (e.slot < 0 || ctx.row == nullptr ||
          e.slot >= static_cast<int>(ctx.row->size())) {
        if (e.kind == ExprKind::kAgg) {
          return Status::Internal("unbound aggregate in evaluation");
        }
        return Status::Internal("unbound column reference: " + e.column);
      }
      return (*ctx.row)[static_cast<size_t>(e.slot)];
    }
    case ExprKind::kParam: {
      if (ctx.params == nullptr ||
          e.param_index >= static_cast<int>(ctx.params->size())) {
        return Status::InvalidArgument(
            StrFormat("missing parameter $%d", e.param_index + 1));
      }
      return (*ctx.params)[static_cast<size_t>(e.param_index)];
    }
    case ExprKind::kStar:
      return Status::Internal("* cannot be evaluated");
    case ExprKind::kBinary: {
      // AND/OR need three-valued logic with short-circuit.
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        CITUSX_ASSIGN_OR_RETURN(Datum l, Eval(*e.args[0], ctx));
        bool is_and = e.bin_op == BinOp::kAnd;
        if (!l.is_null()) {
          bool lv = l.bool_value();
          if (is_and && !lv) return Datum::Bool(false);
          if (!is_and && lv) return Datum::Bool(true);
        }
        CITUSX_ASSIGN_OR_RETURN(Datum r, Eval(*e.args[1], ctx));
        if (!r.is_null()) {
          bool rv = r.bool_value();
          if (is_and && !rv) return Datum::Bool(false);
          if (!is_and && rv) return Datum::Bool(true);
        }
        if (l.is_null() || r.is_null()) return Datum::Null();
        return Datum::Bool(is_and);
      }
      CITUSX_ASSIGN_OR_RETURN(Datum l, Eval(*e.args[0], ctx));
      CITUSX_ASSIGN_OR_RETURN(Datum r, Eval(*e.args[1], ctx));
      switch (e.bin_op) {
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          int c = Datum::Compare(l, r);
          switch (e.bin_op) {
            case BinOp::kEq:
              return Datum::Bool(c == 0);
            case BinOp::kNe:
              return Datum::Bool(c != 0);
            case BinOp::kLt:
              return Datum::Bool(c < 0);
            case BinOp::kLe:
              return Datum::Bool(c <= 0);
            case BinOp::kGt:
              return Datum::Bool(c > 0);
            default:
              return Datum::Bool(c >= 0);
          }
        }
        case BinOp::kLike:
        case BinOp::kILike: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          return Datum::Bool(LikeMatch(l.ToText(), r.ToText(),
                                       e.bin_op == BinOp::kILike));
        }
        case BinOp::kNotLike: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          return Datum::Bool(!LikeMatch(l.ToText(), r.ToText(), false));
        }
        case BinOp::kConcat: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          return Datum::Text(l.ToText() + r.ToText());
        }
        case BinOp::kJsonGet:
        case BinOp::kJsonGetText: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          return EvalJsonGet(l, r, e.bin_op == BinOp::kJsonGetText);
        }
        default: {
          if (l.is_null() || r.is_null()) return Datum::Null();
          return EvalNumeric(e.bin_op, l, r);
        }
      }
    }
    case ExprKind::kUnary: {
      CITUSX_ASSIGN_OR_RETURN(Datum v, Eval(*e.args[0], ctx));
      if (v.is_null()) return Datum::Null();
      if (e.un_op == UnOp::kNot) return Datum::Bool(!v.bool_value());
      if (v.type() == TypeId::kFloat8) return Datum::Float8(-v.float_value());
      return Datum::Int8(-v.int_value());
    }
    case ExprKind::kFunc: {
      std::vector<Datum> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) {
        CITUSX_ASSIGN_OR_RETURN(Datum v, Eval(*a, ctx));
        args.push_back(std::move(v));
      }
      return CallFunction(e.func_name, args, ctx);
    }
    case ExprKind::kCase: {
      size_t n = e.args.size();
      size_t pairs = e.case_has_else ? (n - 1) / 2 : n / 2;
      for (size_t i = 0; i < pairs; i++) {
        CITUSX_ASSIGN_OR_RETURN(Datum cond, Eval(*e.args[2 * i], ctx));
        if (!cond.is_null() && cond.bool_value()) {
          return Eval(*e.args[2 * i + 1], ctx);
        }
      }
      if (e.case_has_else) return Eval(*e.args[n - 1], ctx);
      return Datum::Null();
    }
    case ExprKind::kCast: {
      CITUSX_ASSIGN_OR_RETURN(Datum v, Eval(*e.args[0], ctx));
      return v.CastTo(e.cast_type);
    }
    case ExprKind::kIn: {
      CITUSX_ASSIGN_OR_RETURN(Datum needle, Eval(*e.args[0], ctx));
      if (needle.is_null()) return Datum::Null();
      bool saw_null = false;
      for (size_t i = 1; i < e.args.size(); i++) {
        CITUSX_ASSIGN_OR_RETURN(Datum item, Eval(*e.args[i], ctx));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (Datum::Compare(needle, item) == 0) return Datum::Bool(true);
      }
      return saw_null ? Datum::Null() : Datum::Bool(false);
    }
    case ExprKind::kIsNull: {
      CITUSX_ASSIGN_OR_RETURN(Datum v, Eval(*e.args[0], ctx));
      return Datum::Bool(e.is_not_null ? !v.is_null() : v.is_null());
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalPredicate(const Expr& e, const EvalContext& ctx) {
  CITUSX_ASSIGN_OR_RETURN(Datum v, Eval(e, ctx));
  return !v.is_null() && v.bool_value();
}

TypeId InferType(const Expr& e, const std::vector<TypeId>& input_types) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.value.type();
    case ExprKind::kColumnRef:
      if (e.slot >= 0 && e.slot < static_cast<int>(input_types.size())) {
        return input_types[static_cast<size_t>(e.slot)];
      }
      return TypeId::kNull;
    case ExprKind::kCast:
      return e.cast_type;
    case ExprKind::kAgg: {
      if (e.func_name == "count") return TypeId::kInt8;
      if (e.func_name == "avg") return TypeId::kFloat8;
      if (e.args.empty()) return TypeId::kNull;
      TypeId t = InferType(*e.args[0], input_types);
      if (e.func_name == "sum" && t == TypeId::kInt4) return TypeId::kInt8;
      return t;
    }
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
        case BinOp::kAnd:
        case BinOp::kOr:
        case BinOp::kLike:
        case BinOp::kNotLike:
        case BinOp::kILike:
          return TypeId::kBool;
        case BinOp::kConcat:
        case BinOp::kJsonGetText:
          return TypeId::kText;
        case BinOp::kJsonGet:
          return TypeId::kJsonb;
        default: {
          TypeId l = InferType(*e.args[0], input_types);
          TypeId r = InferType(*e.args[1], input_types);
          if (l == TypeId::kDate || l == TypeId::kTimestamp) return l;
          if (l == TypeId::kFloat8 || r == TypeId::kFloat8) {
            return TypeId::kFloat8;
          }
          return TypeId::kInt8;
        }
      }
    case ExprKind::kUnary:
      if (e.un_op == UnOp::kNot) return TypeId::kBool;
      return InferType(*e.args[0], input_types);
    case ExprKind::kIn:
    case ExprKind::kIsNull:
      return TypeId::kBool;
    case ExprKind::kFunc: {
      const std::string& f = e.func_name;
      if (f == "lower" || f == "upper" || f == "md5" || f == "substring" ||
          f == "substr" || f == "concat") {
        return TypeId::kText;
      }
      if (f == "length" || f == "char_length" || f == "strpos" ||
          f == "extract_year" || f == "extract_month" || f == "extract_day" ||
          f == "jsonb_array_length") {
        return TypeId::kInt8;
      }
      if (f == "random" || f == "floor" || f == "ceil" || f == "round" ||
          f == "sqrt" || f == "power") {
        return TypeId::kFloat8;
      }
      if (f == "add_days" || f == "add_months" || f == "date_trunc") {
        return TypeId::kDate;
      }
      if (f == "jsonb_path_query_array") return TypeId::kJsonb;
      if (f == "coalesce" || f == "greatest" || f == "least") {
        for (const auto& a : e.args) {
          TypeId t = InferType(*a, input_types);
          if (t != TypeId::kNull) return t;
        }
      }
      return TypeId::kNull;
    }
    default:
      return TypeId::kNull;
  }
}

}  // namespace citusx::sql
