// CTE inlining and materialization for the distributed planner (ports the
// ideas of citus cte_inline.c onto the four-tier planner):
//  - inlinable WITH entries fold into the outer query as subqueries before
//    tier selection (pg12 rules for a dialect without volatile functions:
//    NOT MATERIALIZED always folds, MATERIALIZED never does, and by default
//    a CTE referenced at most once folds);
//  - the rest become stages of the statement's one plan, in declaration
//    order: each body is planned up front, and at execution its rows land
//    in an intermediate result placed only on the workers whose tasks read
//    it (a CTE read solely by coordinator-local steps never touches a
//    worker);
//  - trivial FROM subqueries (`(SELECT * FROM t) x`) are pulled up first so
//    mechanically generated queries still reach the router/pushdown tiers.
//
// This pass runs before AnalyzeTables: a WITH name is not a relation, and
// table analysis would otherwise misread it as a local table and reject the
// query as an unsupported distributed/local join.
#include <set>

#include "citus/planner.h"
#include "engine/hooks.h"

namespace citusx::citus {

namespace {

// Count base-table references to `name` in `sel`, through joins, subqueries
// and nested CTE bodies, leaving out those a nested WITH entry of the same
// name shadows.
int CountTableRefs(const sql::SelectStmt& sel, const std::string& name) {
  int n = 0;
  sql::ForEachFromItem(
      sel, sql::Reach::kAll,
      [&](const sql::TableRef& ref, const sql::FromScope& scope) {
        if (ref.kind == sql::TableRef::Kind::kTable && ref.name == name &&
            !scope.Binds(name)) {
          n++;
        }
      });
  return n;
}

// True if any non-top-level WITH clause survived inlining (a FROM subquery
// or a remaining CTE body still carries one). Materialization only handles
// the top level.
bool HasNestedCtes(const sql::SelectStmt& sel) {
  for (const auto& c : sel.ctes) {
    if (c.query && engine::HasCtes(*c.query)) return true;
  }
  return sql::AnyFromItem(
      sel, sql::Reach::kSubqueries, [](const sql::TableRef& ref) {
        return ref.kind == sql::TableRef::Kind::kSubquery &&
               !ref.subquery->ctes.empty();
      });
}

}  // namespace

bool NeedsCteRewrite(const CitusMetadata& metadata, const sql::SelectStmt& sel) {
  // A pullable subquery passes the engine's own shape test: claiming a
  // pullup the engine pass would not perform would re-enter the rewrite
  // without progress.
  if (!engine::HasCtes(sel) &&
      !sql::AnyFromItem(sel, sql::Reach::kAll, [](const sql::TableRef& ref) {
        return ref.kind == sql::TableRef::Kind::kSubquery &&
               !ref.alias.empty() && engine::IsTrivialWrapper(*ref.subquery);
      })) {
    return false;
  }
  // A WITH-bound name is not a relation.
  return sql::AnyFromItem(
      sel, sql::Reach::kAll,
      [&](const sql::TableRef& ref, const sql::FromScope& scope) {
        return ref.kind == sql::TableRef::Kind::kTable &&
               !scope.Binds(ref.name) && metadata.Find(ref.name) != nullptr;
      });
}

Result<DistributedPlan> DistributedPlanner::PlanWithCtes(
    engine::Session& session, const sql::SelectStmt& sel,
    const std::vector<sql::Datum>& params, int* inlined) {
  Result<DistributedPlan> plan =
      PlanCteAttempt(session, sel, params, /*allow_inlining=*/true, inlined);
  // Citus pg12 semantics: inlining hints (including NOT MATERIALIZED) are
  // advisory. If folding the CTEs produced a tree the distributed planner
  // cannot handle — e.g. a GROUP BY subquery joined against a non-co-located
  // table — plan again with every top-level CTE materialized. Decided here,
  // before anything runs.
  if (!plan.ok() && plan.status().IsNotSupported() && engine::HasCtes(sel)) {
    return PlanCteAttempt(session, sel, params, /*allow_inlining=*/false,
                          inlined);
  }
  return plan;
}

Result<DistributedPlan> DistributedPlanner::PlanCteAttempt(
    engine::Session& session, const sql::SelectStmt& sel,
    const std::vector<sql::Datum>& params, bool allow_inlining,
    int* inlined) {
  sql::SelectPtr work = sel.Clone();
  engine::PullUpTrivialSubqueries(work.get());

  // Inlining decisions need reference counts of each top-level CTE across
  // the later definitions and the outer query (pg12: a CTE referenced more
  // than once materializes unless NOT MATERIALIZED forces the fold). Keyed
  // by body, so a nested entry that reuses a top-level name is not counted.
  std::map<const sql::SelectStmt*, int> ref_counts;
  {
    sql::SelectStmt outer_no_ctes = *work;
    outer_no_ctes.ctes.clear();
    for (size_t i = 0; i < work->ctes.size(); i++) {
      const std::string& name = work->ctes[i].name;
      int n = CountTableRefs(outer_no_ctes, name);
      for (size_t j = i + 1; j < work->ctes.size(); j++) {
        if (work->ctes[j].query) {
          n += CountTableRefs(*work->ctes[j].query, name);
        }
      }
      ref_counts[work->ctes[i].query.get()] = n;
    }
  }

  *inlined = engine::InlineCtes(work.get(), [&](const sql::CteDef& c) {
    if (!allow_inlining) return false;
    if (c.hint == sql::CteDef::Hint::kNotMaterialized) return true;
    if (c.hint == sql::CteDef::Hint::kMaterialized) return false;
    auto it = ref_counts.find(c.query.get());
    // Nested CTEs (no top-level refcount entry) always fold — they cannot
    // materialize from inside a subquery.
    return it == ref_counts.end() || it->second <= 1;
  });

  if (HasNestedCtes(*work)) {
    return Status::NotSupported(
        "MATERIALIZED CTEs are only supported at the top level of a "
        "distributed query");
  }

  // Each surviving definition becomes a stage, in declaration order: its
  // body is planned over the stages before it, and its references in the
  // later bodies and the final query are rewritten to the stage relation.
  // A stage is placed where the tasks that read it run (Citus's
  // intermediate-result pruning); with no such task its rows stay on the
  // coordinator. A task reading a stage cannot fail over to a replica that
  // lacks it.
  std::vector<Stage> stages;
  auto place = [&](const sql::SelectStmt& reader, DistributedPlan& plan) {
    for (Stage& stage : stages) {
      if (CountTableRefs(reader, stage.result.logical) == 0) continue;
      std::set<std::string> workers(stage.result.workers.begin(),
                                    stage.result.workers.end());
      for (Task& t : plan.tasks) {
        workers.insert(t.worker);
        t.fallback_workers.clear();
      }
      stage.result.workers.assign(workers.begin(), workers.end());
    }
  };
  std::vector<sql::CteDef> defs = std::move(work->ctes);
  work->ctes.clear();
  for (size_t i = 0; i < defs.size(); i++) {
    CITUSX_ASSIGN_OR_RETURN(DistributedPlan body,
                            PlanStageQuery(session, *defs[i].query, params));
    place(*defs[i].query, body);
    Stage stage;
    stage.result = AddStageRelation();
    stage.cte = defs[i].name;
    stage.body = std::make_unique<DistributedPlan>(std::move(body));
    for (size_t j = i + 1; j < defs.size(); j++) {
      if (defs[j].query == nullptr) continue;
      RewriteTableRefs(*defs[j].query, stage.cte, stage.result.logical);
    }
    RewriteTableRefs(*work, stage.cte, stage.result.logical);
    stages.push_back(std::move(stage));
  }
  CITUSX_ASSIGN_OR_RETURN(DistributedPlan plan,
                          PlanStageQuery(session, *work, params));
  place(*work, plan);
  // The CTEs run first, then the final query's own moves (join order).
  for (Stage& stage : plan.stages) stages.push_back(std::move(stage));
  plan.stages = std::move(stages);
  return plan;
}

Result<DistributedPlan> DistributedPlanner::PlanStageQuery(
    engine::Session& session, const sql::SelectStmt& sel,
    const std::vector<sql::Datum>& params) {
  TableAnalysis analysis =
      AnalyzeSelectTables(ext_->metadata(), sel, &stage_relations_);
  CITUSX_ASSIGN_OR_RETURN(bool distributed, CheckRelations(analysis));
  if (distributed) return PlanSelect(session, sel, params, analysis);
  // No Citus table: the router plans it onto the coordinator, a merge step
  // over the kept rows of the stages it reads and no tasks.
  DistributedPlan plan;
  plan.tier = PlannerTier::kRouter;
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
  plan.step = CoordinatorStep::kMerge;
  plan.merge = sel.Clone();
  return plan;
}

}  // namespace citusx::citus
