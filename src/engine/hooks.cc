#include "engine/hooks.h"

#include "engine/planner.h"

namespace citusx::engine {

namespace {

void SubstituteCteInSelect(sql::SelectStmt* s, const sql::CteDef& cte);

// Turn base-table references to the CTE name into subquery copies of its
// body, keeping the reference's alias (or the CTE name) so column
// qualification still resolves.
void SubstituteCteInRef(sql::TableRefPtr& ref, const sql::CteDef& cte) {
  if (ref == nullptr) return;
  switch (ref->kind) {
    case sql::TableRef::Kind::kTable:
      if (ref->name == cte.name) {
        ref->kind = sql::TableRef::Kind::kSubquery;
        ref->subquery = cte.query->Clone();
        if (ref->alias.empty()) ref->alias = cte.name;
        ref->name.clear();
      }
      return;
    case sql::TableRef::Kind::kSubquery:
      SubstituteCteInSelect(ref->subquery.get(), cte);
      return;
    case sql::TableRef::Kind::kJoin:
      SubstituteCteInRef(ref->left, cte);
      SubstituteCteInRef(ref->right, cte);
      return;
  }
}

void SubstituteCteInSelect(sql::SelectStmt* s, const sql::CteDef& cte) {
  // A nested WITH entry of the same name shadows the outer definition for
  // everything after it (including the main FROM).
  for (auto& c : s->ctes) {
    if (c.query) SubstituteCteInSelect(c.query.get(), cte);
    if (c.name == cte.name) return;
  }
  for (auto& f : s->from) SubstituteCteInRef(f, cte);
}

}  // namespace

bool IsTrivialWrapper(const sql::SelectStmt& s) {
  return s.ctes.empty() && !s.distinct && s.targets.size() == 1 &&
         s.targets[0].expr != nullptr &&
         s.targets[0].expr->kind == sql::ExprKind::kStar &&
         s.targets[0].alias.empty() && s.from.size() == 1 &&
         s.from[0]->kind == sql::TableRef::Kind::kTable &&
         s.from[0]->alias.empty() && s.where == nullptr &&
         s.group_by.empty() && s.having == nullptr && s.order_by.empty() &&
         s.limit == nullptr && s.offset == nullptr && !s.for_update;
}

int InlineCtes(sql::SelectStmt* stmt,
               const std::function<bool(const sql::CteDef&)>& should_inline) {
  if (stmt == nullptr) return 0;
  int inlined = 0;
  // FROM subqueries first, so nested WITH clauses fold before any outer
  // substitution clones into them.
  std::function<void(sql::TableRefPtr&)> walk = [&](sql::TableRefPtr& ref) {
    if (ref == nullptr) return;
    if (ref->kind == sql::TableRef::Kind::kSubquery) {
      inlined += InlineCtes(ref->subquery.get(), should_inline);
    } else if (ref->kind == sql::TableRef::Kind::kJoin) {
      walk(ref->left);
      walk(ref->right);
    }
  };
  for (auto& f : stmt->from) walk(f);

  std::vector<sql::CteDef> list = std::move(stmt->ctes);
  stmt->ctes.clear();
  std::vector<sql::CteDef> kept;
  for (size_t i = 0; i < list.size(); i++) {
    sql::CteDef& cte = list[i];
    if (cte.query) inlined += InlineCtes(cte.query.get(), should_inline);
    if (should_inline != nullptr && !should_inline(cte)) {
      kept.push_back(std::move(cte));
      continue;
    }
    // Fold into later siblings (which may reference it) and the main query.
    for (size_t j = i + 1; j < list.size(); j++) {
      if (list[j].query) SubstituteCteInSelect(list[j].query.get(), cte);
    }
    for (auto& f : stmt->from) SubstituteCteInRef(f, cte);
    inlined++;
  }
  stmt->ctes = std::move(kept);
  return inlined;
}

int PullUpTrivialSubqueries(sql::SelectStmt* stmt) {
  if (stmt == nullptr) return 0;
  int pulled = 0;
  std::function<void(sql::TableRefPtr&)> walk = [&](sql::TableRefPtr& ref) {
    if (ref == nullptr) return;
    switch (ref->kind) {
      case sql::TableRef::Kind::kTable:
        return;
      case sql::TableRef::Kind::kSubquery:
        pulled += PullUpTrivialSubqueries(ref->subquery.get());
        if (IsTrivialWrapper(*ref->subquery) && !ref->alias.empty()) {
          ref->kind = sql::TableRef::Kind::kTable;
          ref->name = ref->subquery->from[0]->name;
          ref->subquery = nullptr;
          pulled++;
        }
        return;
      case sql::TableRef::Kind::kJoin:
        walk(ref->left);
        walk(ref->right);
        return;
    }
  };
  for (auto& c : stmt->ctes) {
    if (c.query) pulled += PullUpTrivialSubqueries(c.query.get());
  }
  for (auto& f : stmt->from) walk(f);
  return pulled;
}

bool HasCtes(const sql::SelectStmt& stmt) {
  if (!stmt.ctes.empty()) return true;
  std::function<bool(const sql::TableRefPtr&)> walk =
      [&](const sql::TableRefPtr& ref) -> bool {
    if (ref == nullptr) return false;
    switch (ref->kind) {
      case sql::TableRef::Kind::kTable:
        return false;
      case sql::TableRef::Kind::kSubquery:
        return HasCtes(*ref->subquery);
      case sql::TableRef::Kind::kJoin:
        return walk(ref->left) || walk(ref->right);
    }
    return false;
  };
  for (const auto& f : stmt.from) {
    if (walk(f)) return true;
  }
  return false;
}

Result<QueryResult> RunLocalSelect(
    Session& session, const sql::SelectStmt& stmt,
    const std::vector<sql::Datum>& params,
    const std::map<std::string, const TempRelation*>* temp_relations) {
  PlannerInput input;
  input.catalog = &session.node()->catalog();
  input.temp_relations = temp_relations;
  input.params = &params;
  ExecContext ctx = session.MakeExecContext(&params);
  return ExecuteSelect(stmt, input, ctx);
}

}  // namespace citusx::engine
