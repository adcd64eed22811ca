#include "sql/ast.h"

namespace citusx::sql {

ExprPtr Expr::Clone() const {
  auto e = std::make_shared<Expr>(*this);
  for (auto& a : e->args) a = a->Clone();
  return e;
}

ExprPtr MakeConst(Datum d) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->value = std::move(d);
  return e;
}

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeParam(int index) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kParam;
  e->param_index = index;
  return e;
}

ExprPtr MakeBinary(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprPtr MakeUnary(UnOp op, ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->args = {std::move(child)};
  return e;
}

ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunc;
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr MakeAgg(std::string name, std::vector<ExprPtr> args, bool distinct,
                bool star) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAgg;
  e->func_name = std::move(name);
  e->args = std::move(args);
  e->agg_distinct = distinct;
  e->agg_star = star;
  return e;
}

ExprPtr MakeCast(ExprPtr child, TypeId type) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCast;
  e->cast_type = type;
  e->args = {std::move(child)};
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

void WalkExpr(const ExprPtr& e, const std::function<void(const Expr&)>& fn) {
  if (e == nullptr) return;
  fn(*e);
  for (const auto& a : e->args) WalkExpr(a, fn);
}

void WalkExprMut(ExprPtr& e, const std::function<void(Expr&)>& fn) {
  if (e == nullptr) return;
  fn(*e);
  for (auto& a : e->args) WalkExprMut(a, fn);
}

bool ExprContains(const ExprPtr& e,
                  const std::function<bool(const Expr&)>& pred) {
  if (e == nullptr) return false;
  if (pred(*e)) return true;
  for (const auto& a : e->args) {
    if (ExprContains(a, pred)) return true;
  }
  return false;
}

bool ContainsAggregate(const ExprPtr& e) {
  return ExprContains(e, [](const Expr& x) { return x.kind == ExprKind::kAgg; });
}

TableRefPtr TableRef::Clone() const {
  auto t = std::make_shared<TableRef>(*this);
  if (subquery) t->subquery = subquery->Clone();
  if (left) t->left = left->Clone();
  if (right) t->right = right->Clone();
  if (on) t->on = on->Clone();
  return t;
}

SelectPtr SelectStmt::Clone() const {
  auto s = std::make_shared<SelectStmt>(*this);
  for (auto& c : s->ctes) {
    if (c.query) c.query = c.query->Clone();
  }
  for (auto& t : s->targets) {
    if (t.expr) t.expr = t.expr->Clone();
  }
  for (auto& f : s->from) f = f->Clone();
  if (s->where) s->where = s->where->Clone();
  for (auto& g : s->group_by) g = g->Clone();
  if (s->having) s->having = s->having->Clone();
  for (auto& o : s->order_by) o.expr = o.expr->Clone();
  if (s->limit) s->limit = s->limit->Clone();
  if (s->offset) s->offset = s->offset->Clone();
  return s;
}

bool FromScope::Binds(const std::string& name) const {
  for (const FromScope* s = this; s != nullptr; s = s->outer_) {
    for (size_t i = 0; i < s->bound_; i++) {
      if ((*s->ctes_)[i].name == name) return true;
    }
  }
  return false;
}

}  // namespace citusx::sql
