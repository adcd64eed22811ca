// Expression kernels for the vectorized executor: a bound expression is
// folded (constant subtrees become literals), then compiled into a tree of
// kernels that each run over a selection vector of a DataChunk.
//
// Kernels reproduce sql::Eval's semantics exactly, including three-valued
// logic, Datum::Compare's cross-type rules and which operands are
// evaluated: AND, OR and CASE evaluate a later operand only on the rows the
// earlier ones left undecided. Each kernel checks its inputs' actual types
// per batch; typed loops cover the common cases (int64, double and text
// columns and constants), and any other combination is evaluated row by
// row through sql::Eval on the node itself, so no type combination can
// answer differently from the interpreter.
#ifndef CITUSX_EXEC_KERNELS_H_
#define CITUSX_EXEC_KERNELS_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/batch.h"
#include "sql/ast.h"
#include "sql/eval.h"

namespace citusx::exec {

/// A kernel's result over one batch: one value for every row, or a column
/// holding values at the physical rows of the selection it ran on.
struct Vec {
  bool is_const = false;
  sql::Datum value;  // is_const
  int64_t ival = 0;  // is_const: value's int payload
  double dval = 0;   // is_const: value's float payload
  Column col;        // !is_const: indexed by physical row

  static Vec Const(sql::Datum d);
  static Vec Of(Column c);

  bool IsNull(int64_t r) const {
    return is_const ? value.is_null() : col->IsNull(r);
  }
  /// True when every row is NULL.
  bool AllNull() const {
    return is_const ? value.is_null()
                    : col->layout() == storage::Layout::kEmpty;
  }
  sql::Datum Get(int64_t r) const { return is_const ? value : col->Get(r); }
  /// sql::Datum::bool_value() of row `r`.
  bool Truthy(int64_t r) const;
};

/// Kernels read $n values and the rng from an evaluation context whose
/// row they ignore.
class Kernel {
 public:
  virtual ~Kernel() = default;
  /// Evaluate over the physical rows `sel` of `chunk`.
  virtual Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
                      const SelVector& sel, Vec* out) const = 0;
};
using KernelPtr = std::unique_ptr<Kernel>;

/// A bound expression ready to run: folded and compiled once per pipeline.
struct CompiledExpr {
  sql::ExprPtr expr;  // folded
  KernelPtr kernel;

  /// Evaluate over `sel` (an empty selection evaluates nothing).
  Status Eval(const sql::EvalContext& env, const DataChunk& chunk,
              const SelVector& sel, Vec* out) const;
};

/// Fold and compile `e` (null stays null). Parameters count as constants.
/// Subtrees whose folding fails are kept, so their error surfaces only
/// where the interpreter would raise it: on a row that reaches them.
std::unique_ptr<CompiledExpr> Compile(const sql::ExprPtr& e,
                                      const std::vector<sql::Datum>* params);

/// Narrow `sel` to the rows where `pred` is true (neither NULL nor false).
Status SelectWhere(const CompiledExpr& pred, const sql::EvalContext& env,
                   const DataChunk& chunk, SelVector* sel);

/// Evaluate `exprs` row by row, in the interpreter's order (each row's
/// expressions before the next row's), over `sel`. Used where several
/// expressions call random(), whose draws must keep that order.
Status EvalRowMajor(const std::vector<const CompiledExpr*>& exprs,
                    const sql::EvalContext& env, const DataChunk& chunk,
                    const SelVector& sel, std::vector<Vec>* out);

/// The error the interpreter raises first when evaluating `exprs` row by
/// row over `sel`; OK if none does. Kernels evaluate expression by
/// expression, so when one fails this finds the error row-major order
/// reports first.
Status FirstRowError(const std::vector<const CompiledExpr*>& exprs,
                     const sql::EvalContext& env, const DataChunk& chunk,
                     const SelVector& sel);

/// True if `e` calls random().
bool CallsRandom(const sql::ExprPtr& e);

}  // namespace citusx::exec

#endif  // CITUSX_EXEC_KERNELS_H_
