#include "exec/kernels.h"

#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/str.h"

namespace citusx::exec {

namespace {

using sql::BinOp;
using sql::Datum;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::TypeId;
using storage::ColumnVector;
using storage::Layout;

// ---------------------------------------------------------------------------
// Reading a Vec's typed payload. A constant reads through mask 0, so one
// loop serves columns and constants alike.

struct IntAcc {
  const int64_t* p;
  int64_t mask;
  int64_t operator()(int64_t r) const { return p[r & mask]; }
};
struct DblAcc {
  const double* p;
  int64_t mask;
  double operator()(int64_t r) const { return p[r & mask]; }
};
struct IntAsDblAcc {
  const int64_t* p;
  int64_t mask;
  double operator()(int64_t r) const {
    return static_cast<double>(p[r & mask]);
  }
};
struct TextAcc {
  const ColumnVector* col;
  std::string_view c;
  std::string_view operator()(int64_t r) const {
    return col != nullptr ? col->text(r) : c;
  }
};

IntAcc Ints(const Vec& v) {
  return v.is_const ? IntAcc{&v.ival, 0} : IntAcc{v.col->ints(), -1};
}
DblAcc Dbls(const Vec& v) {
  return v.is_const ? DblAcc{&v.dval, 0} : DblAcc{v.col->doubles(), -1};
}
IntAsDblAcc IntsAsDbl(const Vec& v) {
  return v.is_const ? IntAsDblAcc{&v.ival, 0}
                    : IntAsDblAcc{v.col->ints(), -1};
}
TextAcc Texts(const Vec& v) {
  return v.is_const ? TextAcc{nullptr, v.value.text_value()}
                    : TextAcc{v.col.get(), {}};
}

/// How a Vec's non-NULL values are stored; kOther for Datum layouts.
enum class Kind { kInt, kDbl, kText, kOther };

Kind KindOf(const Vec& v, TypeId* type) {
  Layout layout;
  if (v.is_const) {
    *type = v.value.type();
    layout = storage::LayoutOf(*type);
  } else {
    *type = v.col->type();
    layout = v.col->layout();
  }
  switch (layout) {
    case Layout::kInt64: return Kind::kInt;
    case Layout::kDouble: return Kind::kDbl;
    case Layout::kText: return Kind::kText;
    default: return Kind::kOther;
  }
}

/// NULL test over up to two operands (constants were checked by AllNull).
struct Nulls {
  const ColumnVector* a = nullptr;
  const ColumnVector* b = nullptr;
  bool operator()(int64_t r) const {
    return (a != nullptr && a->IsNull(r)) || (b != nullptr && b->IsNull(r));
  }
};
const ColumnVector* NullSource(const Vec& v) {
  return !v.is_const && v.col->MayHaveNulls() ? v.col.get() : nullptr;
}

std::shared_ptr<ColumnVector> NewCol(TypeId type, int64_t n) {
  auto c = std::make_shared<ColumnVector>();
  c->InitFlat(type, n);
  return c;
}

int Cmp3(int64_t x, int64_t y) { return x < y ? -1 : (x > y ? 1 : 0); }
int Cmp3(double x, double y) { return x < y ? -1 : (x > y ? 1 : 0); }
int Cmp3(std::string_view x, std::string_view y) {
  int c = x.compare(y);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

bool Holds(BinOp op, int c) {
  switch (op) {
    case BinOp::kEq: return c == 0;
    case BinOp::kNe: return c != 0;
    case BinOp::kLt: return c < 0;
    case BinOp::kLe: return c <= 0;
    case BinOp::kGt: return c > 0;
    default: return c >= 0;
  }
}

/// A copy of `e` whose operands read slots 0..k-1: evaluating it over a
/// row of operand values applies exactly the interpreter's operator.
ExprPtr Shadow(const Expr& e) {
  auto s = std::make_shared<Expr>(e);
  for (size_t i = 0; i < s->args.size(); i++) {
    auto ref = std::make_shared<Expr>();
    ref->kind = ExprKind::kColumnRef;
    ref->slot = static_cast<int>(i);
    s->args[i] = std::move(ref);
  }
  return s;
}

/// The interpreter's operator, row by row, over operand values `in`.
Status EvalShadow(const Expr& shadow, const std::vector<const Vec*>& in,
                  const sql::EvalContext& env, const DataChunk& chunk,
                  const SelVector& sel, Vec* out) {
  auto col = NewCol(TypeId::kNull, chunk.rows);
  sql::Row row(in.size());
  sql::EvalContext ec = env;
  ec.row = &row;
  for (int32_t r : sel) {
    for (size_t k = 0; k < in.size(); k++) row[k] = in[k]->Get(r);
    CITUSX_ASSIGN_OR_RETURN(Datum v, sql::Eval(shadow, ec));
    col->SetDatum(r, std::move(v));
  }
  *out = Vec::Of(std::move(col));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Kernels.

/// Evaluate `k` over `sel`; an empty selection evaluates nothing (so it can
/// raise no error), as the interpreter evaluates nothing for no rows.
Status Run(const Kernel& k, const sql::EvalContext& env, const DataChunk& chunk,
           const SelVector& sel, Vec* out) {
  if (sel.empty()) {
    *out = Vec::Const(Datum::Null());
    return Status::OK();
  }
  return k.Eval(env, chunk, sel, out);
}

class ConstKernel : public Kernel {
 public:
  explicit ConstKernel(Datum v) : v_(Vec::Const(std::move(v))) {}
  Status Eval(const sql::EvalContext&, const DataChunk&, const SelVector&,
              Vec* out) const override {
    *out = v_;
    return Status::OK();
  }

 private:
  Vec v_;
};

class ColumnKernel : public Kernel {
 public:
  explicit ColumnKernel(const Expr& e)
      : slot_(e.slot), agg_(e.kind == ExprKind::kAgg), name_(e.column) {}
  Status Eval(const sql::EvalContext&, const DataChunk& chunk, const SelVector&,
              Vec* out) const override {
    if (slot_ < 0 || static_cast<size_t>(slot_) >= chunk.columns.size()) {
      if (agg_) return Status::Internal("unbound aggregate in evaluation");
      return Status::Internal("unbound column reference: " + name_);
    }
    const Column& c = chunk.columns[static_cast<size_t>(slot_)];
    *out = c == nullptr ? Vec::Const(Datum::Null()) : Vec::Of(c);
    return Status::OK();
  }

 private:
  int slot_;
  bool agg_;
  std::string name_;
};

/// The fallback: sql::Eval per row over the referenced slots.
class RowKernel : public Kernel {
 public:
  explicit RowKernel(ExprPtr e) : e_(std::move(e)) {
    std::set<int> slots;
    sql::WalkExpr(e_, [&](const Expr& x) {
      if ((x.kind == ExprKind::kColumnRef || x.kind == ExprKind::kAgg) &&
          x.slot >= 0) {
        slots.insert(x.slot);
      }
    });
    slots_.assign(slots.begin(), slots.end());
  }
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    auto col = NewCol(TypeId::kNull, chunk.rows);
    sql::Row row(chunk.columns.size());
    sql::EvalContext ec = env;
    ec.row = &row;
    for (int32_t r : sel) {
      for (int s : slots_) {
        if (static_cast<size_t>(s) < row.size()) {
          row[static_cast<size_t>(s)] = chunk.Value(r, static_cast<size_t>(s));
        }
      }
      CITUSX_ASSIGN_OR_RETURN(Datum v, sql::Eval(*e_, ec));
      col->SetDatum(r, std::move(v));
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  ExprPtr e_;
  std::vector<int> slots_;
};

template <typename A, typename B>
void CompareLoop(BinOp op, const A& a, const B& b, const Nulls& nulls,
                 const SelVector& sel, ColumnVector* out) {
  for (int32_t r : sel) {
    if (nulls(r)) {
      out->SetNull(r);
      continue;
    }
    out->SetInt(r, Holds(op, Cmp3(a(r), b(r))) ? 1 : 0);
  }
}

/// =, <>, <, <=, >, >= with Datum::Compare's rules: integers compare with
/// integers of any width and with themselves, numbers as doubles once a
/// float is involved, text bytewise; other pairs (date against timestamp,
/// bool against int, ...) go through the interpreter.
class CompareKernel : public Kernel {
 public:
  CompareKernel(const Expr& e, KernelPtr l, KernelPtr r)
      : op_(e.bin_op), shadow_(Shadow(e)), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a, b;
    CITUSX_RETURN_IF_ERROR(Run(*l_, env, chunk, sel, &a));
    CITUSX_RETURN_IF_ERROR(Run(*r_, env, chunk, sel, &b));
    if (a.AllNull() || b.AllNull()) {
      *out = Vec::Const(Datum::Null());
      return Status::OK();
    }
    TypeId ta, tb;
    Kind ka = KindOf(a, &ta), kb = KindOf(b, &tb);
    auto col = NewCol(TypeId::kBool, chunk.rows);
    Nulls nulls{NullSource(a), NullSource(b)};
    if (ka == Kind::kInt && kb == Kind::kInt &&
        (ta == tb || (sql::IsIntegral(ta) && sql::IsIntegral(tb)))) {
      CompareLoop(op_, Ints(a), Ints(b), nulls, sel, col.get());
    } else if (ka == Kind::kDbl && kb == Kind::kDbl) {
      CompareLoop(op_, Dbls(a), Dbls(b), nulls, sel, col.get());
    } else if (ka == Kind::kInt && sql::IsIntegral(ta) && kb == Kind::kDbl) {
      CompareLoop(op_, IntsAsDbl(a), Dbls(b), nulls, sel, col.get());
    } else if (ka == Kind::kDbl && kb == Kind::kInt && sql::IsIntegral(tb)) {
      CompareLoop(op_, Dbls(a), IntsAsDbl(b), nulls, sel, col.get());
    } else if (ka == Kind::kText && kb == Kind::kText) {
      CompareLoop(op_, Texts(a), Texts(b), nulls, sel, col.get());
    } else {
      return EvalShadow(*shadow_, {&a, &b}, env, chunk, sel, out);
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  BinOp op_;
  ExprPtr shadow_;
  KernelPtr l_, r_;
};

/// Three-valued AND/OR. The right operand runs only on the rows the left
/// one left undecided: NULL, or true under AND, or false under OR.
class LogicKernel : public Kernel {
 public:
  LogicKernel(bool is_and, KernelPtr l, KernelPtr r)
      : is_and_(is_and), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a, b;
    CITUSX_RETURN_IF_ERROR(Run(*l_, env, chunk, sel, &a));
    SelVector rest;
    rest.reserve(sel.size());
    for (int32_t r : sel) {
      if (a.IsNull(r) || a.Truthy(r) == is_and_) rest.push_back(r);
    }
    CITUSX_RETURN_IF_ERROR(Run(*r_, env, chunk, rest, &b));
    auto col = NewCol(TypeId::kBool, chunk.rows);
    const int64_t decided = is_and_ ? 0 : 1;
    for (int32_t r : sel) {
      bool an = a.IsNull(r);
      if (!an && a.Truthy(r) != is_and_) {
        col->SetInt(r, decided);
        continue;
      }
      bool bn = b.IsNull(r);
      if (!bn && b.Truthy(r) != is_and_) {
        col->SetInt(r, decided);
      } else if (an || bn) {
        col->SetNull(r);
      } else {
        col->SetInt(r, 1 - decided);
      }
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  bool is_and_;
  KernelPtr l_, r_;
};

class NotKernel : public Kernel {
 public:
  explicit NotKernel(KernelPtr c) : c_(std::move(c)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a;
    CITUSX_RETURN_IF_ERROR(Run(*c_, env, chunk, sel, &a));
    if (a.AllNull()) {
      *out = Vec::Const(Datum::Null());
      return Status::OK();
    }
    auto col = NewCol(TypeId::kBool, chunk.rows);
    for (int32_t r : sel) {
      if (a.IsNull(r)) {
        col->SetNull(r);
      } else {
        col->SetInt(r, a.Truthy(r) ? 0 : 1);
      }
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  KernelPtr c_;
};

class IsNullKernel : public Kernel {
 public:
  IsNullKernel(bool is_not, KernelPtr c) : is_not_(is_not), c_(std::move(c)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a;
    CITUSX_RETURN_IF_ERROR(Run(*c_, env, chunk, sel, &a));
    if (a.is_const) {
      *out = Vec::Const(Datum::Bool(a.value.is_null() != is_not_));
      return Status::OK();
    }
    auto col = NewCol(TypeId::kBool, chunk.rows);
    for (int32_t r : sel) col->SetInt(r, a.IsNull(r) != is_not_ ? 1 : 0);
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  bool is_not_;
  KernelPtr c_;
};

/// Unary minus, binary + - * / % with EvalNumeric's rules: integers give
/// int8, a float operand makes it float8, date +/- integer gives a date and
/// date - date an int8. Anything else (including the errors for
/// non-numeric operands) goes through the interpreter.
class ArithKernel : public Kernel {
 public:
  ArithKernel(const Expr& e, std::vector<KernelPtr> args)
      : neg_(e.kind == ExprKind::kUnary),
        op_(e.bin_op),
        shadow_(Shadow(e)),
        args_(std::move(args)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    std::vector<Vec> in(args_.size());
    for (size_t i = 0; i < args_.size(); i++) {
      CITUSX_RETURN_IF_ERROR(Run(*args_[i], env, chunk, sel, &in[i]));
      if (in[i].AllNull()) {
        *out = Vec::Const(Datum::Null());
        return Status::OK();
      }
    }
    if (neg_) return Negate(in[0], env, chunk, sel, out);
    const Vec& a = in[0];
    const Vec& b = in[1];
    TypeId ta, tb;
    Kind ka = KindOf(a, &ta), kb = KindOf(b, &tb);
    Nulls nulls{NullSource(a), NullSource(b)};
    bool a_int = ka == Kind::kInt && sql::IsIntegral(ta);
    bool b_int = kb == Kind::kInt && sql::IsIntegral(tb);
    bool a_date = ka == Kind::kInt && ta == TypeId::kDate;
    bool b_date = kb == Kind::kInt && tb == TypeId::kDate;
    TypeId int_result = TypeId::kNull;
    if (a_date && b_int && (op_ == BinOp::kAdd || op_ == BinOp::kSub)) {
      int_result = TypeId::kDate;
    } else if ((a_date && b_date && op_ == BinOp::kSub) || (a_int && b_int)) {
      int_result = TypeId::kInt8;
    }
    std::shared_ptr<ColumnVector> col;
    if (int_result != TypeId::kNull) {
      col = NewCol(int_result, chunk.rows);
      CITUSX_RETURN_IF_ERROR(
          Loop<int64_t>(Ints(a), Ints(b), nulls, sel, col.get()));
    } else if ((a_int || ka == Kind::kDbl) && (b_int || kb == Kind::kDbl)) {
      col = NewCol(TypeId::kFloat8, chunk.rows);
      if (ka == Kind::kDbl && kb == Kind::kDbl) {
        CITUSX_RETURN_IF_ERROR(
            Loop<double>(Dbls(a), Dbls(b), nulls, sel, col.get()));
      } else if (ka == Kind::kDbl) {
        CITUSX_RETURN_IF_ERROR(
            Loop<double>(Dbls(a), IntsAsDbl(b), nulls, sel, col.get()));
      } else {
        CITUSX_RETURN_IF_ERROR(
            Loop<double>(IntsAsDbl(a), Dbls(b), nulls, sel, col.get()));
      }
    } else {
      return EvalShadow(*shadow_, {&a, &b}, env, chunk, sel, out);
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  Status Negate(const Vec& a, const sql::EvalContext& env, const DataChunk& chunk,
                const SelVector& sel, Vec* out) const {
    TypeId ta;
    Kind ka = KindOf(a, &ta);
    Nulls nulls{NullSource(a)};
    std::shared_ptr<ColumnVector> col;
    if (ka == Kind::kInt) {
      col = NewCol(TypeId::kInt8, chunk.rows);
      IntAcc v = Ints(a);
      for (int32_t r : sel) {
        if (nulls(r)) {
          col->SetNull(r);
        } else {
          col->SetInt(r, -v(r));
        }
      }
    } else if (ka == Kind::kDbl) {
      col = NewCol(TypeId::kFloat8, chunk.rows);
      DblAcc v = Dbls(a);
      for (int32_t r : sel) {
        if (nulls(r)) {
          col->SetNull(r);
        } else {
          col->SetDouble(r, -v(r));
        }
      }
    } else {
      return EvalShadow(*shadow_, {&a}, env, chunk, sel, out);
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

  /// The operator over typed operands: T is int64_t (int8 and date
  /// results) or double (float8).
  template <typename T, typename A, typename B>
  Status Loop(const A& a, const B& b, const Nulls& nulls,
              const SelVector& sel, ColumnVector* out) const {
    for (int32_t r : sel) {
      if (nulls(r)) {
        out->SetNull(r);
        continue;
      }
      T x = a(r), y = b(r), v = 0;
      switch (op_) {
        case BinOp::kAdd: v = x + y; break;
        case BinOp::kSub: v = x - y; break;
        case BinOp::kMul: v = x * y; break;
        case BinOp::kDiv:
          if (y == 0) return Status::InvalidArgument("division by zero");
          v = x / y;
          break;
        default:
          if (y == 0) return Status::InvalidArgument("division by zero");
          if constexpr (std::is_integral_v<T>) {
            v = x % y;
          } else {
            v = std::fmod(x, y);
          }
          break;
      }
      if constexpr (std::is_integral_v<T>) {
        out->SetInt(r, v);
      } else {
        out->SetDouble(r, v);
      }
    }
    return Status::OK();
  }

  bool neg_;
  BinOp op_;
  ExprPtr shadow_;
  std::vector<KernelPtr> args_;
};

/// LIKE, ILIKE and NOT LIKE of a text column against a constant pattern;
/// other operands go through the interpreter.
class LikeKernel : public Kernel {
 public:
  LikeKernel(const Expr& e, KernelPtr l, KernelPtr r)
      : op_(e.bin_op), shadow_(Shadow(e)), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a, b;
    CITUSX_RETURN_IF_ERROR(Run(*l_, env, chunk, sel, &a));
    CITUSX_RETURN_IF_ERROR(Run(*r_, env, chunk, sel, &b));
    if (a.AllNull() || b.AllNull()) {
      *out = Vec::Const(Datum::Null());
      return Status::OK();
    }
    TypeId ta, tb;
    if (KindOf(a, &ta) != Kind::kText || !b.is_const ||
        KindOf(b, &tb) != Kind::kText) {
      return EvalShadow(*shadow_, {&a, &b}, env, chunk, sel, out);
    }
    bool ci = op_ == BinOp::kILike;
    std::string pattern = ci ? ToLower(b.value.text_value())
                             : b.value.text_value();
    auto col = NewCol(TypeId::kBool, chunk.rows);
    Nulls nulls{NullSource(a)};
    TextAcc text = Texts(a);
    for (int32_t r : sel) {
      if (nulls(r)) {
        col->SetNull(r);
        continue;
      }
      bool m = ci ? sql::LikeMatch(ToLower(text(r)), pattern, false)
                  : sql::LikeMatch(text(r), pattern, false);
      col->SetInt(r, (op_ == BinOp::kNotLike ? !m : m) ? 1 : 0);
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  BinOp op_;
  ExprPtr shadow_;
  KernelPtr l_, r_;
};

/// `needle IN (constants)`: true on a match, else NULL when a constant is
/// NULL, else false.
class InKernel : public Kernel {
 public:
  InKernel(KernelPtr needle, const std::vector<Datum>& items)
      : needle_(std::move(needle)) {
    for (const Datum& d : items) {
      if (d.is_null()) {
        saw_null_ = true;
      } else {
        values_.push_back(d);
      }
    }
  }
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a;
    CITUSX_RETURN_IF_ERROR(Run(*needle_, env, chunk, sel, &a));
    if (a.AllNull()) {
      *out = Vec::Const(Datum::Null());
      return Status::OK();
    }
    TypeId ta;
    Kind ka = KindOf(a, &ta);
    auto col = NewCol(TypeId::kBool, chunk.rows);
    Nulls nulls{NullSource(a)};
    auto emit = [&](int32_t r, bool match) {
      if (match) {
        col->SetInt(r, 1);
      } else if (saw_null_) {
        col->SetNull(r);
      } else {
        col->SetInt(r, 0);
      }
    };
    if (ka == Kind::kText && AllOf(TypeId::kText)) {
      TextAcc text = Texts(a);
      for (int32_t r : sel) {
        if (nulls(r)) {
          col->SetNull(r);
          continue;
        }
        std::string_view v = text(r);
        bool match = false;
        for (const Datum& d : values_) match = match || v == d.text_value();
        emit(r, match);
      }
    } else if (ka == Kind::kInt && IntComparable(ta)) {
      IntAcc ints = Ints(a);
      for (int32_t r : sel) {
        if (nulls(r)) {
          col->SetNull(r);
          continue;
        }
        int64_t v = ints(r);
        bool match = false;
        for (const Datum& d : values_) match = match || v == d.int_value();
        emit(r, match);
      }
    } else {
      for (int32_t r : sel) {
        if (a.IsNull(r)) {
          col->SetNull(r);
          continue;
        }
        Datum v = a.Get(r);
        bool match = false;
        for (const Datum& d : values_) {
          match = match || Datum::Compare(v, d) == 0;
        }
        emit(r, match);
      }
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  bool AllOf(TypeId t) const {
    for (const Datum& d : values_) {
      if (d.type() != t) return false;
    }
    return true;
  }
  /// Every constant compares with a `t` needle as integers.
  bool IntComparable(TypeId t) const {
    for (const Datum& d : values_) {
      bool ok = storage::LayoutOf(d.type()) == Layout::kInt64 &&
                (d.type() == t ||
                 (sql::IsIntegral(d.type()) && sql::IsIntegral(t)));
      if (!ok) return false;
    }
    return true;
  }

  KernelPtr needle_;
  std::vector<Datum> values_;  // the non-NULL constants
  bool saw_null_ = false;
};

/// CASE: each WHEN runs on the rows no earlier WHEN took, each THEN on the
/// rows its WHEN took, ELSE on the rest.
class CaseKernel : public Kernel {
 public:
  CaseKernel(std::vector<KernelPtr> whens, std::vector<KernelPtr> thens,
             KernelPtr otherwise)
      : whens_(std::move(whens)),
        thens_(std::move(thens)),
        else_(std::move(otherwise)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    std::vector<std::pair<SelVector, Vec>> parts;
    SelVector rest = sel;
    for (size_t i = 0; i < whens_.size() && !rest.empty(); i++) {
      Vec cond;
      CITUSX_RETURN_IF_ERROR(Run(*whens_[i], env, chunk, rest, &cond));
      SelVector hit, miss;
      for (int32_t r : rest) {
        (!cond.IsNull(r) && cond.Truthy(r) ? hit : miss).push_back(r);
      }
      if (!hit.empty()) {
        Vec v;
        CITUSX_RETURN_IF_ERROR(Run(*thens_[i], env, chunk, hit, &v));
        parts.emplace_back(std::move(hit), std::move(v));
      }
      rest = std::move(miss);
    }
    if (else_ != nullptr && !rest.empty()) {
      Vec v;
      CITUSX_RETURN_IF_ERROR(Run(*else_, env, chunk, rest, &v));
      parts.emplace_back(std::move(rest), std::move(v));
      rest.clear();
    }
    // One typed result when every branch's values share an int or float
    // type; otherwise Datums, keeping each row's own type.
    TypeId common = TypeId::kNull;
    bool typed = true;
    for (const auto& [rows, v] : parts) {
      if (v.AllNull()) continue;
      TypeId t;
      Kind k = KindOf(v, &t);
      if ((k != Kind::kInt && k != Kind::kDbl) ||
          (common != TypeId::kNull && t != common)) {
        typed = false;
      }
      common = t;
    }
    if (common == TypeId::kNull) typed = false;
    auto col = NewCol(typed ? common : TypeId::kNull, chunk.rows);
    for (int32_t r : rest) col->SetNull(r);
    for (const auto& [rows, v] : parts) {
      TypeId t;
      Kind k = v.AllNull() ? Kind::kOther : KindOf(v, &t);
      for (int32_t r : rows) {
        if (v.IsNull(r)) {
          col->SetNull(r);
        } else if (!typed) {
          col->SetDatum(r, v.Get(r));
        } else if (k == Kind::kInt) {
          col->SetInt(r, Ints(v)(r));
        } else {
          col->SetDouble(r, Dbls(v)(r));
        }
      }
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  std::vector<KernelPtr> whens_, thens_;
  KernelPtr else_;
};

/// expr::type, with the numeric conversions typed and the rest through
/// Datum::CastTo row by row.
class CastKernel : public Kernel {
 public:
  CastKernel(TypeId target, KernelPtr c) : target_(target), c_(std::move(c)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    Vec a;
    CITUSX_RETURN_IF_ERROR(Run(*c_, env, chunk, sel, &a));
    if (a.AllNull()) {
      *out = Vec::Const(Datum::Null());
      return Status::OK();
    }
    TypeId ta;
    Kind ka = KindOf(a, &ta);
    if (!a.is_const && ta == target_ && ka != Kind::kOther) {
      *out = a;  // already of the target type
      return Status::OK();
    }
    Layout target_layout = storage::LayoutOf(target_);
    auto col = NewCol(target_, chunk.rows);
    Nulls nulls{NullSource(a)};
    bool numeric = !a.is_const && sql::IsNumeric(ta) && sql::IsNumeric(target_);
    for (int32_t r : sel) {
      if (nulls(r)) {
        col->SetNull(r);
        continue;
      }
      if (numeric) {
        int64_t i = ka == Kind::kInt
                        ? a.col->ints()[r]
                        : static_cast<int64_t>(a.col->doubles()[r]);
        if (target_ == TypeId::kFloat8) {
          col->SetDouble(r, ka == Kind::kInt ? static_cast<double>(i)
                                             : a.col->doubles()[r]);
        } else if (target_ == TypeId::kInt4) {
          col->SetInt(r, static_cast<int32_t>(i));
        } else {
          col->SetInt(r, i);
        }
        continue;
      }
      CITUSX_ASSIGN_OR_RETURN(Datum v, a.Get(r).CastTo(target_));
      if (target_layout == Layout::kInt64) {
        col->SetInt(r, v.int_value());
      } else if (target_layout == Layout::kDouble) {
        col->SetDouble(r, v.float_value());
      } else {
        col->SetDatum(r, std::move(v));
      }
    }
    *out = Vec::Of(std::move(col));
    return Status::OK();
  }

 private:
  TypeId target_;
  KernelPtr c_;
};

/// Functions, ||, -> and ->>: operands as kernels (the interpreter
/// evaluates them all too), the operator row by row.
class GenericKernel : public Kernel {
 public:
  GenericKernel(const Expr& e, std::vector<KernelPtr> args)
      : shadow_(Shadow(e)), args_(std::move(args)) {}
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const override {
    std::vector<Vec> in(args_.size());
    std::vector<const Vec*> ptrs;
    for (size_t i = 0; i < args_.size(); i++) {
      CITUSX_RETURN_IF_ERROR(Run(*args_[i], env, chunk, sel, &in[i]));
      ptrs.push_back(&in[i]);
    }
    return EvalShadow(*shadow_, ptrs, env, chunk, sel, out);
  }

 private:
  ExprPtr shadow_;
  std::vector<KernelPtr> args_;
};

// ---------------------------------------------------------------------------
// Folding and compilation.

/// Fold `e`; `*constant` reports whether the result is a literal.
ExprPtr Fold(const ExprPtr& e, const std::vector<Datum>* params,
             bool* constant) {
  *constant = false;
  if (e == nullptr) return e;
  switch (e->kind) {
    case ExprKind::kConst:
      *constant = true;
      return e;
    case ExprKind::kParam:
      if (params != nullptr && e->param_index >= 0 &&
          e->param_index < static_cast<int>(params->size())) {
        *constant = true;
        return sql::MakeConst((*params)[static_cast<size_t>(e->param_index)]);
      }
      return e;
    case ExprKind::kColumnRef:
    case ExprKind::kAgg:
    case ExprKind::kStar:
      return e;
    default:
      break;
  }
  bool all_const = true;
  bool changed = false;
  std::vector<ExprPtr> args;
  args.reserve(e->args.size());
  for (const ExprPtr& a : e->args) {
    bool c = false;
    ExprPtr f = Fold(a, params, &c);
    all_const = all_const && c;
    changed = changed || f != a;
    args.push_back(std::move(f));
  }
  ExprPtr node = e;
  if (changed) {
    auto copy = std::make_shared<Expr>(*e);
    copy->args = std::move(args);
    node = std::move(copy);
  }
  bool deterministic =
      !(e->kind == ExprKind::kFunc && e->func_name == "random");
  if (all_const && deterministic) {
    sql::EvalContext ec;
    ec.params = params;
    auto v = sql::Eval(*node, ec);
    if (v.ok()) {
      *constant = true;
      return sql::MakeConst(std::move(v).value());
    }
  }
  return node;
}

KernelPtr CompileNode(const ExprPtr& e) {
  auto children = [&] {
    std::vector<KernelPtr> out;
    for (const ExprPtr& a : e->args) out.push_back(CompileNode(a));
    return out;
  };
  switch (e->kind) {
    case ExprKind::kConst:
      return std::make_unique<ConstKernel>(e->value);
    case ExprKind::kColumnRef:
    case ExprKind::kAgg:
      return std::make_unique<ColumnKernel>(*e);
    case ExprKind::kBinary:
      switch (e->bin_op) {
        case BinOp::kAnd:
        case BinOp::kOr:
          return std::make_unique<LogicKernel>(e->bin_op == BinOp::kAnd,
                                               CompileNode(e->args[0]),
                                               CompileNode(e->args[1]));
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
          return std::make_unique<CompareKernel>(
              *e, CompileNode(e->args[0]), CompileNode(e->args[1]));
        case BinOp::kLike:
        case BinOp::kILike:
        case BinOp::kNotLike:
          return std::make_unique<LikeKernel>(*e, CompileNode(e->args[0]),
                                              CompileNode(e->args[1]));
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return std::make_unique<ArithKernel>(*e, children());
        default:
          return std::make_unique<GenericKernel>(*e, children());
      }
    case ExprKind::kUnary:
      if (e->un_op == sql::UnOp::kNot) {
        return std::make_unique<NotKernel>(CompileNode(e->args[0]));
      }
      return std::make_unique<ArithKernel>(*e, children());
    case ExprKind::kCase: {
      size_t n = e->args.size();
      size_t pairs = e->case_has_else ? (n - 1) / 2 : n / 2;
      std::vector<KernelPtr> whens, thens;
      for (size_t i = 0; i < pairs; i++) {
        whens.push_back(CompileNode(e->args[2 * i]));
        thens.push_back(CompileNode(e->args[2 * i + 1]));
      }
      KernelPtr otherwise =
          e->case_has_else ? CompileNode(e->args[n - 1]) : nullptr;
      return std::make_unique<CaseKernel>(std::move(whens), std::move(thens),
                                          std::move(otherwise));
    }
    case ExprKind::kCast:
      return std::make_unique<CastKernel>(e->cast_type,
                                          CompileNode(e->args[0]));
    case ExprKind::kIn: {
      std::vector<Datum> items;
      for (size_t i = 1; i < e->args.size(); i++) {
        if (e->args[i]->kind != ExprKind::kConst) {
          return std::make_unique<RowKernel>(e);
        }
        items.push_back(e->args[i]->value);
      }
      return std::make_unique<InKernel>(CompileNode(e->args[0]), items);
    }
    case ExprKind::kIsNull:
      return std::make_unique<IsNullKernel>(e->is_not_null,
                                            CompileNode(e->args[0]));
    case ExprKind::kFunc:
      return std::make_unique<GenericKernel>(*e, children());
    default:  // kParam without a value, kStar: the interpreter's error
      return std::make_unique<RowKernel>(e);
  }
}

}  // namespace

Vec Vec::Const(Datum d) {
  Vec v;
  v.is_const = true;
  v.ival = d.int_value();
  v.dval = d.float_value();
  v.value = std::move(d);
  return v;
}

Vec Vec::Of(Column c) {
  Vec v;
  v.col = std::move(c);
  return v;
}

bool Vec::Truthy(int64_t r) const {
  if (is_const) return value.bool_value();
  switch (col->layout()) {
    case Layout::kInt64: return col->ints()[r] != 0;
    case Layout::kDatum: return col->datum(r).bool_value();
    default: return false;  // a float or text Datum's int payload is 0
  }
}

bool CallsRandom(const sql::ExprPtr& e) {
  return e != nullptr && sql::ExprContains(e, [](const Expr& x) {
           return x.kind == ExprKind::kFunc && x.func_name == "random";
         });
}

std::unique_ptr<CompiledExpr> Compile(const sql::ExprPtr& e,
                                      const std::vector<sql::Datum>* params) {
  if (e == nullptr) return nullptr;
  auto out = std::make_unique<CompiledExpr>();
  bool constant = false;
  out->expr = Fold(e, params, &constant);
  // random() draws in row order: the whole expression runs row by row.
  out->kernel = CallsRandom(out->expr)
                    ? std::make_unique<RowKernel>(out->expr)
                    : CompileNode(out->expr);
  return out;
}

Status CompiledExpr::Eval(const sql::EvalContext& env, const DataChunk& chunk,
                          const SelVector& sel, Vec* out) const {
  return Run(*kernel, env, chunk, sel, out);
}

Status SelectWhere(const CompiledExpr& pred, const sql::EvalContext& env,
                   const DataChunk& chunk, SelVector* sel) {
  Vec v;
  CITUSX_RETURN_IF_ERROR(pred.Eval(env, chunk, *sel, &v));
  SelVector keep;
  keep.reserve(sel->size());
  if (!v.is_const && v.col->layout() == Layout::kInt64 &&
      !v.col->MayHaveNulls()) {
    const int64_t* b = v.col->ints();
    for (int32_t r : *sel) {
      if (b[r] != 0) keep.push_back(r);
    }
  } else {
    for (int32_t r : *sel) {
      if (!v.IsNull(r) && v.Truthy(r)) keep.push_back(r);
    }
  }
  *sel = std::move(keep);
  return Status::OK();
}

Status EvalRowMajor(const std::vector<const CompiledExpr*>& exprs,
                    const sql::EvalContext& env, const DataChunk& chunk,
                    const SelVector& sel, std::vector<Vec>* out) {
  std::vector<std::shared_ptr<ColumnVector>> cols;
  for (size_t i = 0; i < exprs.size(); i++) {
    cols.push_back(NewCol(TypeId::kNull, chunk.rows));
  }
  sql::Row row;
  for (int32_t r : sel) {
    chunk.GatherRow(r, &row);
    sql::EvalContext ec = env;
    ec.row = &row;
    for (size_t i = 0; i < exprs.size(); i++) {
      CITUSX_ASSIGN_OR_RETURN(Datum v, sql::Eval(*exprs[i]->expr, ec));
      cols[i]->SetDatum(r, std::move(v));
    }
  }
  out->clear();
  for (auto& c : cols) out->push_back(Vec::Of(std::move(c)));
  return Status::OK();
}

Status FirstRowError(const std::vector<const CompiledExpr*>& exprs,
                     const sql::EvalContext& env, const DataChunk& chunk,
                     const SelVector& sel) {
  sql::Row row;
  for (int32_t r : sel) {
    chunk.GatherRow(r, &row);
    sql::EvalContext ec = env;
    ec.row = &row;
    for (const CompiledExpr* e : exprs) {
      CITUSX_RETURN_IF_ERROR(sql::Eval(*e->expr, ec).status());
    }
  }
  return Status::OK();
}

}  // namespace citusx::exec
