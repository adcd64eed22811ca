#include "engine/hooks.h"

#include "engine/planner.h"

namespace citusx::engine {

namespace {

// Turn base-table references to the CTE name into subquery copies of its
// body, keeping the reference's alias (or the CTE name) so column
// qualification still resolves. A nested WITH entry of the same name
// shadows the definition for everything after it.
void SubstituteCte(sql::SelectStmt* s, const sql::CteDef& cte) {
  sql::ForEachFromItem(
      *s, sql::Reach::kAll,
      [&](sql::TableRef& ref, const sql::FromScope& scope) {
        if (ref.kind != sql::TableRef::Kind::kTable || ref.name != cte.name ||
            scope.Binds(cte.name)) {
          return;
        }
        ref.kind = sql::TableRef::Kind::kSubquery;
        ref.subquery = cte.query->Clone();
        if (ref.alias.empty()) ref.alias = cte.name;
        ref.name.clear();
      });
}

// Fold the entries of `stmt`'s own WITH list that `should_inline` selects
// into the entries after them and into its FROM. Each body folds its own
// nested lists before it is cloned, so a nested entry folds once.
int FoldWithList(sql::SelectStmt* stmt,
                 const std::function<bool(const sql::CteDef&)>& should_inline) {
  int inlined = 0;
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
      if (list[j].query) SubstituteCte(list[j].query.get(), cte);
    }
    SubstituteCte(stmt, cte);
    inlined++;
  }
  stmt->ctes = std::move(kept);
  return inlined;
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
  // The outer list first, then each FROM subquery's, outermost first.
  int inlined = FoldWithList(stmt, should_inline);
  sql::ForEachFromItem(*stmt, sql::Reach::kSubqueries, [&](sql::TableRef& ref) {
    if (ref.kind == sql::TableRef::Kind::kSubquery) {
      inlined += FoldWithList(ref.subquery.get(), should_inline);
    }
  });
  return inlined;
}

int PullUpTrivialSubqueries(sql::SelectStmt* stmt) {
  if (stmt == nullptr) return 0;
  int pulled = 0;
  sql::ForEachFromItem(*stmt, sql::Reach::kAll, [&](sql::TableRef& ref) {
    if (ref.kind == sql::TableRef::Kind::kSubquery && !ref.alias.empty() &&
        IsTrivialWrapper(*ref.subquery)) {
      ref.kind = sql::TableRef::Kind::kTable;
      ref.name = ref.subquery->from[0]->name;
      ref.subquery = nullptr;
      pulled++;
    }
  });
  return pulled;
}

bool HasCtes(const sql::SelectStmt& stmt) {
  return !stmt.ctes.empty() ||
         sql::AnyFromItem(stmt, sql::Reach::kSubqueries,
                          [](const sql::TableRef& ref) {
                            return ref.kind == sql::TableRef::Kind::kSubquery &&
                                   !ref.subquery->ctes.empty();
                          });
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
