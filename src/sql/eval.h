// Runtime expression evaluation.
#ifndef CITUSX_SQL_EVAL_H_
#define CITUSX_SQL_EVAL_H_

#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sql/ast.h"
#include "sql/datum.h"

namespace citusx::sql {

/// Everything an expression may reference at runtime. Column references and
/// aggregate results must have been bound to slots in `row` by the planner.
struct EvalContext {
  const Row* row = nullptr;             // current input tuple
  const std::vector<Datum>* params = nullptr;  // $n values
  Rng* rng = nullptr;                   // for random()
};

/// Evaluate a bound expression. kColumnRef/kAgg nodes must have slot >= 0.
Result<Datum> Eval(const Expr& e, const EvalContext& ctx);

/// Evaluate to a boolean for filtering: NULL and false both reject.
Result<bool> EvalPredicate(const Expr& e, const EvalContext& ctx);

/// SQL LIKE/ILIKE matching with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern,
               bool case_insensitive);

/// Infer the static result type of a bound expression given input types.
/// Best-effort; returns kNull when unknown.
TypeId InferType(const Expr& e, const std::vector<TypeId>& input_types);

}  // namespace citusx::sql

#endif  // CITUSX_SQL_EVAL_H_
