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

/// The join-order tier's plan (repartition.cc). Its tasks exist only once
/// the moved tables have landed: execution moves them, rewrites `select` to
/// read the intermediate results, and plans the now co-located query.
struct JoinOrderPlan {
  sql::SelectPtr select;
  std::vector<MovePlan> moves;
  std::vector<std::string> kept_workers;
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
  /// kMerge: the master query over the gathered rows, and the result's
  /// column names — the first task's when empty; an empty entry keeps the
  /// merge query's own name.
  sql::SelectPtr merge;
  std::vector<std::string> column_names;
  /// The table a modification targets (EXPLAIN), and the one whose
  /// approx_rows grows by the rows affected (INSERTs; the join-order tier
  /// picks broadcast or repartition from it).
  std::string modifies;
  CitusTable* grows = nullptr;
  /// Multi-stage plans: a join-order plan (tasks empty), or an INSERT ..
  /// SELECT through the coordinator, which runs `source` and COPYs its rows
  /// into `modifies` (`copy_columns`). Both report the outer tier.
  std::unique_ptr<JoinOrderPlan> join_order;
  std::unique_ptr<DistributedPlan> source;
  std::vector<std::string> copy_columns;
};

/// Analysis of the tables referenced by a statement.
struct TableAnalysis {
  std::vector<const CitusTable*> distributed;  // distinct dist tables
  std::vector<const CitusTable*> reference;
  std::vector<std::string> local;  // plain tables (non-Citus)
  /// alias (or table name) -> citus table, for column-qualifier resolution.
  std::map<std::string, const CitusTable*> alias_map;

  bool HasCitusTables() const {
    return !distributed.empty() || !reference.empty();
  }
};

/// Collect referenced tables (recursively through joins and subqueries).
TableAnalysis AnalyzeTables(const CitusMetadata& metadata,
                            const sql::Statement& stmt);
TableAnalysis AnalyzeSelectTables(const CitusMetadata& metadata,
                                  const sql::SelectStmt& sel);

/// The per-shard-group table map: logical name -> shard name at `index`,
/// reference tables -> their single shard name.
std::map<std::string, std::string> ShardGroupTableMap(
    const TableAnalysis& analysis, int shard_index);

class DistributedPlanner {
 public:
  explicit DistributedPlanner(CitusExtension* ext) : ext_(ext) {}

  /// Entry point from the planner hook. Returns nullopt when the statement
  /// involves no Citus tables (falls through to local planning).
  Result<std::optional<engine::QueryResult>> PlanAndExecute(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params);

 private:
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
  /// The join-order tier (repartition.cc): nullopt when moving tables
  /// cannot make the query co-located.
  Result<std::optional<JoinOrderPlan>> PlanJoinOrder(
      engine::Session& session, const sql::SelectStmt& sel,
      const TableAnalysis& analysis);

  /// Run `plan` through the adaptive executor and apply its coordinator
  /// step.
  Result<engine::QueryResult> Execute(engine::Session& session,
                                      DistributedPlan plan,
                                      const std::vector<sql::Datum>& params);
  Result<engine::QueryResult> ExecuteJoinOrder(
      engine::Session& session, JoinOrderPlan& plan,
      const std::vector<sql::Datum>& params);

  // CTE inlining / materialization pass (cte_inline.cc). Runs before table
  // analysis (a CTE name would otherwise be misread as a local table):
  // inlinable CTEs and trivial subqueries fold into the outer query, the
  // rest materialize to intermediate results pruned-broadcast only to the
  // workers that reference them, then the rewritten statement re-enters
  // PlanAndExecute.
  Result<std::optional<engine::QueryResult>> ExecuteSelectWithCtes(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params);
  // One inlining attempt. When the inlined tree turns out not to be
  // distributable (NotSupported), ExecuteSelectWithCtes retries with
  // allow_inlining=false — pg12/Citus semantics where NOT MATERIALIZED is a
  // hint the planner may override rather than a guarantee.
  Result<std::optional<engine::QueryResult>> ExecuteSelectWithCtesImpl(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params, bool allow_inlining);

  /// EXPLAIN ANALYZE of `stmt` (its EXPLAIN flags stripped): execute the
  /// tier-built plan under a fresh trace and render the resulting span tree
  /// (per-task, per-shard timings and row counts).
  Result<engine::QueryResult> ExplainAnalyze(
      engine::Session& session, const sql::Statement& stmt,
      const std::vector<sql::Datum>& params, const TableAnalysis& analysis);

  CitusExtension* ext_;
  /// Rewrite/repartition recursion depth for this statement (the planner
  /// object lives for one top-level hook call; rewritten queries re-enter
  /// through the same object). Bounds pathological self-feeding rewrites.
  int cte_depth_ = 0;
  int repart_depth_ = 0;
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

/// Execute a SELECT locally over intermediate results (the "master query").
Result<engine::QueryResult> RunMasterQuery(
    engine::Session& session, const sql::SelectStmt& master,
    const std::string& temp_name, const engine::TempRelation& temp,
    const std::vector<sql::Datum>& params);

/// Reconstruct a CREATE TABLE statement for a shard from the coordinator's
/// catalog shell, plus recorded post-creation DDL.
Result<std::vector<std::string>> ShardCreationDdl(engine::Node* node,
                                                  const CitusTable& table,
                                                  uint64_t shard_id);

// ---- CTE rewrite gate (cte_inline.cc) ----

/// True when `sel` carries a WITH clause (anywhere) or a pullable trivial
/// subquery, and references at least one Citus table — i.e. the statement
/// must go through DistributedPlanner::ExecuteSelectWithCtes before table
/// analysis.
bool NeedsCteRewrite(const CitusMetadata& metadata, const sql::SelectStmt& sel);

// ---- intermediate-result management (repartition.cc) ----

/// Rewrite FROM references of `from_name` to `to_name` (recursively through
/// joins and subqueries), preserving column qualification by aliasing the
/// new name back to the old one.
void RewriteTableRefs(sql::TableRefPtr& ref, const std::string& from_name,
                      const std::string& to_name);

/// Convenience GUC readers over Session::GetVar with registry defaults.
bool GucEnabled(engine::Session& session, const char* name);
/// citus.max_intermediate_result_size is registered in kB (pg semantics);
/// returns the session's cap in bytes.
int64_t MaxIntermediateResultBytes(engine::Session& session);

/// A temporary reference relation backing a repartitioned table or a
/// materialized CTE: one full-range shard replicated on `workers`.
struct IntermediateResult {
  std::string logical;  // registered logical (metadata) name
  std::string shard;    // physical shard table name on every worker
  std::vector<std::string> workers;
};

/// Register the relation in metadata and CREATE its shard on every worker.
/// On any creation failure the already-created shards are dropped again
/// before the error returns.
Result<IntermediateResult> CreateIntermediateResult(
    CitusExtension* ext, engine::Session& session, const sql::Schema& schema,
    const std::vector<std::string>& workers);

/// Drop the shards everywhere (unreachable workers go to the deferred
/// cleanup queue the maintenance daemon retries) and unregister the
/// relation. Never fails — cleanup must run on success and error paths.
void DropIntermediateResult(CitusExtension* ext, engine::Session& session,
                            const IntermediateResult& ir);

/// Render a result row as COPY text fields ("\\N" for NULL).
std::vector<std::string> RowToCopyFields(const sql::Row& row);

/// Approximate wire size of `rows` rendered as COPY text (the unit the
/// citus.max_intermediate_result_size cap is enforced in).
int64_t CopyRowsBytes(const std::vector<std::vector<std::string>>& rows);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_PLANNER_H_
