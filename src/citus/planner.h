// The distributed query planner (paper §3.5): four planner tiers tried from
// cheapest to most expensive — fast path, router, logical pushdown, logical
// join-order — plus distributed DML, COPY, DDL, and procedure delegation.
//
// Planning and execution are separate steps over one object: the tiers (or
// the session's plan cache) build a DistributedPlan without dispatching
// anything, and DistributedPlanner::Execute runs it through the adaptive
// executor. Plain execution, EXPLAIN, EXPLAIN ANALYZE and
// citus_stat_statements all read the same plan.
#ifndef CITUSX_CITUS_PLANNER_H_
#define CITUSX_CITUS_PLANNER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "citus/executor.h"
#include "citus/extension.h"
#include "sql/ast.h"

namespace citusx::citus {

/// Which planner produced a distributed plan.
enum class PlannerTier {
  kFastPath,
  kRouter,
  kPushdown,
  kJoinOrder,
};

/// The tier's name in citus_stat_statements and EXPLAIN ANALYZE.
const char* TierLabel(PlannerTier tier);

/// Charge this node's CPU for a plan built at `tier` and count it in
/// citus.planner.*. A plan-cache hit re-binds a cached fast-path plan and
/// pays plan_cached_bind instead; a join-order plan also pays for the
/// pushdown attempt it fell through from.
Status ChargeTier(CitusExtension* ext, PlannerTier tier,
                  bool cache_hit = false);

/// How one distributed table the join-order tier does not keep in place
/// reaches the kept workers: re-partitioned on `join_col` along `target`'s
/// shard intervals, or broadcast when `target` is null.
struct MovePlan {
  const CitusTable* table = nullptr;
  std::string join_col;
  const CitusTable* target = nullptr;
};

/// A statement-local intermediate result: one full-range shard placed on
/// `workers` (none: its rows stay on the coordinator), read as a reference
/// relation named `logical` that never enters CitusMetadata.
struct IntermediateResult {
  std::string logical;  // the relation name the rewritten queries read
  std::string shard;    // physical shard table name on every worker
  std::vector<std::string> workers;
};

struct DistributedPlan;

/// One stage of a multi-stage plan: fills `result` before the plan's own
/// tasks run. Either a table the join-order tier moves (`move`: the
/// worker-to-worker shuffle), or a materialized CTE (`cte`) whose `body`
/// plan runs and whose rows are COPYed to the result's workers.
struct Stage {
  IntermediateResult result;
  MovePlan move;
  std::string cte;
  std::unique_ptr<DistributedPlan> body;
};

/// What the coordinator does with the task results.
enum class CoordinatorStep {
  kFirstResult,      // the first task's result is the statement's
  kSumRowsAffected,  // rows affected add up under `command`
  kMerge,            // `merge` runs over the gathered rows
};

/// One distributed plan (the CustomScan of §3.1): the tier that built it,
/// its tasks in dispatch order, and the coordinator step.
struct DistributedPlan {
  PlannerTier tier = PlannerTier::kFastPath;
  std::vector<Task> tasks;
  CoordinatorStep step = CoordinatorStep::kFirstResult;
  /// kSumRowsAffected: the command tag before the count ("UPDATE", ...).
  std::string command;
  /// kMerge: the master query over the gathered rows (and the statement's
  /// materialized CTEs), and the result's column names — the first task's
  /// when empty; an empty entry keeps the merge query's own name.
  sql::SelectPtr merge;
  std::vector<std::string> column_names;
  /// The table a modification targets (EXPLAIN), and the one whose
  /// approx_rows grows by the rows affected (INSERTs; the join-order tier
  /// picks broadcast or repartition from it).
  std::string modifies;
  CitusTable* grows = nullptr;
  /// Multi-stage plans: `stages` run in order before the tasks (join-order
  /// moves, materialized CTEs). An INSERT .. SELECT through the coordinator
  /// runs `source` and COPYs its rows into `modifies` (`copy_columns`), and
  /// reports the source's tier.
  std::vector<Stage> stages;
  std::unique_ptr<DistributedPlan> source;
  std::vector<std::string> copy_columns;
};

/// Analysis of the tables referenced by a statement.
struct TableAnalysis {
  std::vector<const CitusTable*> distributed;  // distinct dist tables
  std::vector<const CitusTable*> reference;
  std::vector<std::string> local;  // plain tables (non-Citus)
  size_t stages = 0;  // how many of `reference` are stage relations
  /// alias (or table name) -> citus table, for column-qualifier resolution.
  std::map<std::string, const CitusTable*> alias_map;

  /// True when a table of the Citus metadata is read.
  bool HasCitusTables() const {
    return !distributed.empty() || reference.size() > stages;
  }
};

/// A statement's stage relations by name, resolved before the metadata.
using StageRelations = std::map<std::string, CitusTable>;

/// Collect referenced tables (recursively through joins and subqueries).
TableAnalysis AnalyzeTables(const CitusMetadata& metadata,
                            const sql::Statement& stmt);
TableAnalysis AnalyzeSelectTables(const CitusMetadata& metadata,
                                  const sql::SelectStmt& sel,
                                  const StageRelations* stages = nullptr);

/// The per-shard-group table map: logical name -> shard name at `index`,
/// reference tables -> their single shard name.
std::map<std::string, std::string> ShardGroupTableMap(
    const TableAnalysis& analysis, int shard_index);

class DistributedPlanner {
 public:
  explicit DistributedPlanner(CitusExtension* ext) : ext_(ext) {}

  /// Entry point from the planner hook, once per client statement. Returns
  /// nullopt when the statement involves no Citus tables (falls through to
  /// local planning).
  Result<std::optional<engine::QueryResult>> PlanAndExecute(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params);

 private:
  /// The MX routing gate and the local-table check over the relations one
  /// query reads. Returns whether it reads a Citus table.
  Result<bool> CheckRelations(const TableAnalysis& analysis);

  // Planning through the tiers (planner.cc, dml.cc). Each charges its
  // tier (ChargeTier) and dispatches nothing.
  Result<DistributedPlan> Plan(engine::Session& session,
                               const sql::Statement& stmt,
                               const std::vector<sql::Datum>& params,
                               const TableAnalysis& analysis);
  Result<DistributedPlan> PlanSelect(engine::Session& session,
                                     const sql::SelectStmt& sel,
                                     const std::vector<sql::Datum>& params,
                                     const TableAnalysis& analysis);
  Result<DistributedPlan> PlanModify(const sql::Statement& stmt,
                                     const std::vector<sql::Datum>& params);
  Result<DistributedPlan> PlanInsert(const sql::InsertStmt& ins,
                                     const std::vector<sql::Datum>& params);
  Result<DistributedPlan> PlanInsertSelect(
      engine::Session& session, const sql::InsertStmt& ins,
      const std::vector<sql::Datum>& params);
  /// The join-order tier (repartition.cc): the co-located remainder's plan
  /// with one stage per moved table, or nullopt when moving tables cannot
  /// make the query co-located.
  Result<std::optional<DistributedPlan>> PlanJoinOrder(
      engine::Session& session, const sql::SelectStmt& sel,
      const std::vector<sql::Datum>& params, const TableAnalysis& analysis);

  // CTE inlining / materialization (cte_inline.cc), before table analysis:
  // inlinable CTEs and trivial subqueries fold into the outer query, the
  // rest become stages; `inlined` receives the number of CTEs folded. One
  // attempt per inlining rule (PlanCteAttempt).
  Result<DistributedPlan> PlanWithCtes(engine::Session& session,
                                       const sql::SelectStmt& sel,
                                       const std::vector<sql::Datum>& params,
                                       int* inlined);
  Result<DistributedPlan> PlanCteAttempt(engine::Session& session,
                                         const sql::SelectStmt& sel,
                                         const std::vector<sql::Datum>& params,
                                         bool allow_inlining, int* inlined);
  /// Plan a CTE body or the final query over the metadata and the stage
  /// relations planned so far.
  Result<DistributedPlan> PlanStageQuery(engine::Session& session,
                                         const sql::SelectStmt& sel,
                                         const std::vector<sql::Datum>& params);
  /// A new stage relation, in this statement's scope only (repartition.cc).
  IntermediateResult AddStageRelation();

  /// Run `plan`'s stages in order, then its own tasks; drop what the
  /// stages created on every exit path.
  Result<engine::QueryResult> Execute(engine::Session& session,
                                      DistributedPlan plan,
                                      const std::vector<sql::Datum>& params);
  /// Run the plan's tasks (or its INSERT .. SELECT source) through the
  /// adaptive executor and apply the coordinator step.
  Result<engine::QueryResult> ExecuteTasks(
      engine::Session& session, DistributedPlan& plan,
      const std::vector<sql::Datum>& params);
  /// Fill one stage's intermediate result (repartition.cc).
  Status RunStage(engine::Session& session, Stage& stage,
                  const std::vector<sql::Datum>& params,
                  std::vector<const IntermediateResult*>* created);

  /// EXPLAIN ANALYZE of `stmt` (its EXPLAIN flags stripped): execute `plan`
  /// under a fresh trace and render the resulting span tree (per-task,
  /// per-shard timings and row counts).
  Result<engine::QueryResult> ExplainAnalyze(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params, DistributedPlan plan);

  CitusExtension* ext_;
  StageRelations stage_relations_;
  /// The coordinator's copy of each materialized CTE's rows, by relation
  /// name, for coordinator-local merge steps.
  std::map<std::string, engine::TempRelation> stage_rows_;
};

// ---- observability views (stat_views.cc) ----

/// Intercept SELECTs over the citus_stat_statements / citus_stat_activity
/// monitoring views. Returns nullopt when `stmt` references neither.
Result<std::optional<engine::QueryResult>> MaybeExecuteStatView(
    CitusExtension* ext, engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params);

// ---- hooks implemented in ddl.cc / dml.cc ----

Result<std::optional<engine::QueryResult>> ProcessDistributedUtility(
    CitusExtension* ext, engine::Session& session, const sql::Statement& stmt);

Result<std::optional<engine::QueryResult>> ProcessDistributedCopy(
    CitusExtension* ext, engine::Session& session, const sql::CopyStmt& stmt,
    const std::vector<std::vector<std::string>>& rows);

Result<std::optional<engine::QueryResult>> ProcessDelegatedCall(
    CitusExtension* ext, engine::Session& session, const sql::CallStmt& stmt,
    const std::vector<sql::Datum>& args);

// ---- shared helpers ----

/// All conjuncts of a select: WHERE plus all JOIN ON clauses (recursive
/// through joins, not into subqueries).
void CollectConjuncts(const sql::SelectStmt& sel,
                      std::vector<sql::ExprPtr>* out);

/// True if `sel` (used as a FROM subquery or INSERT..SELECT source) can run
/// per shard group without a coordinator merge step.
bool SubqueryPushdownSafe(const sql::SelectStmt& sel,
                          const CitusMetadata& metadata, std::string* reason);

/// All distributed tables co-located and connected by dist-column equijoins.
bool CheckColocatedJoins(const sql::SelectStmt& sel,
                         const TableAnalysis& analysis,
                         const CitusMetadata& metadata, std::string* reason);

/// The distributed table whose distribution column `e` references, or null.
const CitusTable* AnyDistColRef(const sql::Expr& e,
                                const TableAnalysis& analysis);

/// Reconstruct a CREATE TABLE statement for a shard from the coordinator's
/// catalog shell, plus recorded post-creation DDL.
Result<std::vector<std::string>> ShardCreationDdl(engine::Node* node,
                                                  const CitusTable& table,
                                                  uint64_t shard_id);

// ---- CTE rewrite gate (cte_inline.cc) ----

/// True when `sel` carries a WITH clause (anywhere) or a pullable trivial
/// subquery, and references at least one Citus table — i.e. the statement
/// must go through DistributedPlanner::PlanWithCtes before table analysis.
bool NeedsCteRewrite(const CitusMetadata& metadata, const sql::SelectStmt& sel);

// ---- intermediate-result management (repartition.cc) ----

/// Rewrite the FROM references of `from_name` in `sel` to `to_name` (through
/// joins and subqueries), preserving column qualification by aliasing the
/// new name back to the old one.
void RewriteTableRefs(sql::SelectStmt& sel, const std::string& from_name,
                      const std::string& to_name);

/// citus.max_intermediate_result_size is registered in kB (pg semantics);
/// returns the session's cap in bytes.
int64_t MaxIntermediateResultBytes(engine::Session& session);

/// Drop the shards everywhere (unreachable workers go to the deferred
/// cleanup queue the maintenance daemon retries). Never fails — cleanup
/// must run on success and error paths.
void DropIntermediateResult(CitusExtension* ext, engine::Session& session,
                            const IntermediateResult& ir);

/// Render a result row as COPY text fields ("\\N" for NULL).
std::vector<std::string> RowToCopyFields(const sql::Row& row);

/// Approximate wire size of `rows` rendered as COPY text (the unit the
/// citus.max_intermediate_result_size cap is enforced in).
int64_t CopyRowsBytes(const std::vector<std::vector<std::string>>& rows);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_PLANNER_H_
