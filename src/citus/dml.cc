// Distributed DML: routed and multi-shard INSERT/UPDATE/DELETE, the three
// INSERT..SELECT strategies (§3.8), distributed COPY, and stored-procedure
// delegation.
#include "citus/planner.h"
#include "engine/hooks.h"
#include "sql/deparser.h"
#include "sql/eval.h"

namespace citusx::citus {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

// Find the dist-column equality value in an UPDATE/DELETE WHERE clause.
std::optional<sql::Datum> DmlDistRestriction(
    const ExprPtr& where, const CitusTable& table,
    const std::vector<sql::Datum>& params) {
  std::vector<ExprPtr> conjuncts;
  engine::SplitConjuncts(where, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
    ExprPtr col = c->args[0], val = c->args[1];
    auto is_dist_col = [&](const ExprPtr& e) {
      return e->kind == ExprKind::kColumnRef && e->column == table.dist_column;
    };
    if (!is_dist_col(col)) std::swap(col, val);
    if (!is_dist_col(col)) continue;
    bool pure = true;
    sql::WalkExpr(val, [&](const Expr& x) {
      if (x.kind == ExprKind::kColumnRef) pure = false;
    });
    if (!pure) continue;
    sql::EvalContext ec;
    ec.params = &params;
    auto v = sql::Eval(*val, ec);
    if (v.ok() && !v->is_null()) return *v;
  }
  return std::nullopt;
}

// Replica task list for reference-table DML: one task per replica node.
std::vector<Task> ReferenceTableTasks(const CitusTable& table,
                                      const std::string& sql) {
  std::vector<Task> tasks;
  int i = 0;
  for (const auto& node_name : table.replica_nodes) {
    Task t;
    t.index = i++;
    t.worker = node_name;
    t.sql = sql;
    t.is_write = true;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace

Result<DistributedPlan> DistributedPlanner::PlanInsert(
    const sql::InsertStmt& ins, const std::vector<sql::Datum>& params) {
  CitusTable* table = ext_->metadata().Find(ins.table);
  DistributedPlan plan;
  plan.modifies = table->name;
  plan.grows = table;
  if (table->is_reference) {
    plan.tier = PlannerTier::kRouter;
    CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
    sql::Statement stmt;
    stmt.kind = sql::Statement::Kind::kInsert;
    stmt.insert = std::make_shared<sql::InsertStmt>(ins);
    std::map<std::string, std::string> map = {
        {table->name, table->ShardName(table->shards[0].shard_id)}};
    sql::DeparseOptions opts;
    opts.params = &params;
    opts.table_map = &map;
    plan.tasks = ReferenceTableTasks(*table, sql::DeparseStatement(stmt, opts));
    return plan;
  }

  if (ext_->node()->catalog().Find(ins.table) == nullptr) {
    return Status::NotFound("shell table missing");
  }
  int dist_pos = table->DistColumnPosition(ins.columns);
  if (dist_pos < 0) {
    return Status::InvalidArgument(
        "cannot perform an INSERT without the partition column");
  }
  // Group VALUES rows by target shard.
  std::map<int, std::vector<const std::vector<ExprPtr>*>> by_shard;
  sql::EvalContext ec;
  ec.params = &params;
  for (const auto& row : ins.values) {
    if (dist_pos >= static_cast<int>(row.size())) {
      return Status::InvalidArgument("INSERT row is missing columns");
    }
    CITUSX_ASSIGN_OR_RETURN(sql::Datum v,
                            sql::Eval(*row[static_cast<size_t>(dist_pos)], ec));
    if (v.is_null()) {
      return Status::InvalidArgument(
          "the partition column value cannot be NULL");
    }
    CITUSX_ASSIGN_OR_RETURN(int idx, table->ShardIndexForValue(v));
    by_shard[idx].push_back(&row);
  }
  plan.tier = by_shard.size() == 1 && ins.values.size() == 1
                  ? PlannerTier::kFastPath
                  : PlannerTier::kRouter;
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
  plan.step = CoordinatorStep::kSumRowsAffected;
  plan.command = "INSERT 0";
  for (const auto& [shard_idx, rows] : by_shard) {
    sql::InsertStmt shard_ins;
    shard_ins.table = ins.table;
    shard_ins.columns = ins.columns;
    shard_ins.on_conflict_do_nothing = ins.on_conflict_do_nothing;
    for (const auto* row : rows) shard_ins.values.push_back(*row);
    sql::Statement shard_stmt;
    shard_stmt.kind = sql::Statement::Kind::kInsert;
    shard_stmt.insert = std::make_shared<sql::InsertStmt>(std::move(shard_ins));
    const ShardInterval& shard = table->shards[static_cast<size_t>(shard_idx)];
    std::map<std::string, std::string> map = {
        {table->name, table->ShardName(shard.shard_id)}};
    sql::DeparseOptions opts;
    opts.params = &params;
    opts.table_map = &map;
    Task t;
    t.index = static_cast<int>(plan.tasks.size());
    t.worker = shard.placement;
    t.colocation_id = table->colocation_id;
    t.shard_group = shard_idx;
    t.sql = sql::DeparseStatement(shard_stmt, opts);
    t.is_write = true;
    plan.tasks.push_back(std::move(t));
  }
  return plan;
}

Result<DistributedPlan> DistributedPlanner::PlanModify(
    const sql::Statement& stmt, const std::vector<sql::Datum>& params) {
  const bool is_update = stmt.kind == sql::Statement::Kind::kUpdate;
  CitusTable* table = ext_->metadata().Find(is_update ? stmt.update->table
                                                      : stmt.del->table);
  DistributedPlan plan;
  plan.modifies = table->name;
  auto shard_sql = [&](size_t shard_idx) {
    std::map<std::string, std::string> map = {
        {table->name, table->ShardName(table->shards[shard_idx].shard_id)}};
    sql::DeparseOptions opts;
    opts.params = &params;
    opts.table_map = &map;
    return sql::DeparseStatement(stmt, opts);
  };

  if (table->is_reference) {
    plan.tier = PlannerTier::kRouter;
    CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
    plan.tasks = ReferenceTableTasks(*table, shard_sql(0));
    return plan;
  }

  auto restriction = DmlDistRestriction(
      is_update ? stmt.update->where : stmt.del->where, *table, params);
  if (restriction.has_value()) {
    // Router (fast path) DML: single shard.
    CITUSX_ASSIGN_OR_RETURN(int idx, table->ShardIndexForValue(*restriction));
    plan.tier = PlannerTier::kFastPath;
    CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
    Task t;
    t.worker = table->shards[static_cast<size_t>(idx)].placement;
    t.colocation_id = table->colocation_id;
    t.shard_group = idx;
    t.sql = shard_sql(static_cast<size_t>(idx));
    t.is_write = true;
    plan.tasks.push_back(std::move(t));
    return plan;
  }

  // Parallel multi-shard DML (§3.8 "parallel, distributed DML").
  plan.tier = PlannerTier::kPushdown;
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
  plan.step = CoordinatorStep::kSumRowsAffected;
  plan.command = is_update ? "UPDATE" : "DELETE";
  for (size_t i = 0; i < table->shards.size(); i++) {
    Task t;
    t.index = static_cast<int>(i);
    t.worker = table->shards[i].placement;
    t.colocation_id = table->colocation_id;
    t.shard_group = static_cast<int>(i);
    t.sql = shard_sql(i);
    t.is_write = true;
    plan.tasks.push_back(std::move(t));
  }
  return plan;
}

Result<DistributedPlan> DistributedPlanner::PlanInsertSelect(
    engine::Session& session, const sql::InsertStmt& ins,
    const std::vector<sql::Datum>& params) {
  CitusTable* target = ext_->metadata().Find(ins.table);
  if (target == nullptr) {
    return Status::NotSupported(
        "INSERT .. SELECT into a local table from distributed tables");
  }
  const sql::SelectStmt& sel = *ins.select;
  TableAnalysis source = AnalyzeSelectTables(ext_->metadata(), sel);
  DistributedPlan plan;
  plan.modifies = target->name;

  // Strategy 1: co-located INSERT..SELECT executed per shard pair (§3.8).
  // Requirements: target distributed; source dist tables co-located with the
  // target; no merge step (subqueries safe, top-level group-by includes the
  // dist column when aggregating); the target's dist column receives a
  // source dist column at the right position.
  bool colocated = !target->is_reference && !source.distributed.empty();
  for (const auto* t : source.distributed) {
    colocated &= t->colocation_id == target->colocation_id;
  }
  if (colocated) {
    std::string reason;
    colocated &= SubqueryPushdownSafe(sel, ext_->metadata(), &reason);
    colocated &= CheckColocatedJoins(sel, source, ext_->metadata(), &reason);
  }
  if (colocated) {
    int dist_pos = target->DistColumnPosition(ins.columns);
    bool dist_aligned =
        dist_pos >= 0 && dist_pos < static_cast<int>(sel.targets.size());
    if (dist_aligned) {
      const ExprPtr& e = sel.targets[static_cast<size_t>(dist_pos)].expr;
      dist_aligned = AnyDistColRef(*e, source) != nullptr ||
                     (e->kind == ExprKind::kColumnRef &&
                      !source.distributed.empty() &&
                      e->column == source.distributed[0]->dist_column);
    }
    if (dist_aligned) {
      plan.tier = PlannerTier::kPushdown;
      CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
      plan.step = CoordinatorStep::kSumRowsAffected;
      plan.command = "INSERT 0";
      plan.grows = target;
      sql::Statement stmt;
      stmt.kind = sql::Statement::Kind::kInsert;
      stmt.insert = std::make_shared<sql::InsertStmt>(ins);
      for (size_t i = 0; i < target->shards.size(); i++) {
        auto map = ShardGroupTableMap(source, static_cast<int>(i));
        map[target->name] = target->ShardName(target->shards[i].shard_id);
        sql::DeparseOptions opts;
        opts.params = &params;
        opts.table_map = &map;
        Task t;
        t.index = static_cast<int>(i);
        t.worker = target->shards[i].placement;
        t.colocation_id = target->colocation_id;
        t.shard_group = static_cast<int>(i);
        t.sql = sql::DeparseStatement(stmt, opts);
        t.is_write = true;
        plan.tasks.push_back(std::move(t));
      }
      return plan;
    }
  }

  // Strategy 3 (also covers strategy 2 here, see DESIGN.md): run the SELECT
  // as a distributed query, then COPY the result into the target table.
  CITUSX_ASSIGN_OR_RETURN(DistributedPlan select,
                          PlanSelect(session, sel, params, source));
  plan.tier = select.tier;
  plan.step = CoordinatorStep::kSumRowsAffected;
  plan.command = "INSERT 0";
  plan.source = std::make_unique<DistributedPlan>(std::move(select));
  plan.copy_columns = ins.columns;
  return plan;
}

// ---------------------------------------------------------------------------
// Distributed COPY (§3.8)
// ---------------------------------------------------------------------------

Result<std::optional<engine::QueryResult>> ProcessDistributedCopy(
    CitusExtension* ext, engine::Session& session, const sql::CopyStmt& stmt,
    const std::vector<std::vector<std::string>>& rows) {
  CitusTable* table = ext->metadata().Find(stmt.table);
  // MX routing gate, mirroring the planner's (§3.10): a stale non-authority
  // node must not COPY into what its copy thinks the table is — and above
  // all must not fall through to the empty local shell, where the rows
  // would silently vanish.
  if (!ext->IsMetadataAuthority() &&
      (table != nullptr || ext->IsShellTable(stmt.table)) && !ext->MxReady()) {
    return ext->MxStaleRejection("COPY on node " + ext->node()->name() +
                                 " without current synced metadata");
  }
  if (table == nullptr) return std::optional<engine::QueryResult>();
  if (ext->node()->catalog().Find(stmt.table) == nullptr) {
    return Status::NotFound("shell table missing");
  }

  // The coordinator parses every row on a single backend (one core): this
  // is the paper's Figure 7(a) bottleneck. Cost scales with bytes.
  int64_t copy_bytes = 0;
  for (const auto& row : rows) {
    for (const auto& f : row) copy_bytes += static_cast<int64_t>(f.size());
  }
  if (!ext->node()->cpu().Consume(
          static_cast<int64_t>(rows.size()) *
              ext->node()->cost().cpu_per_row_copy_parse +
          copy_bytes * ext->node()->cost().parse_per_char)) {
    return Status::Cancelled("simulation stopping");
  }

  AdaptiveExecutor executor(ext);
  if (table->is_reference) {
    std::vector<Task> tasks;
    int index = 0;
    for (const auto& node_name : table->replica_nodes) {
      Task t;
      t.index = index++;
      t.worker = node_name;
      t.is_copy = true;
      t.is_write = true;
      t.copy_table = table->ShardName(table->shards[0].shard_id);
      t.copy_columns = stmt.columns;
      t.copy_rows = rows;
      tasks.push_back(std::move(t));
    }
    CITUSX_ASSIGN_OR_RETURN(std::vector<engine::QueryResult> results,
                            executor.Execute(session, std::move(tasks)));
    table->approx_rows += static_cast<int64_t>(rows.size());
    engine::QueryResult out;
    out.rows_affected = static_cast<int64_t>(rows.size());
    out.command_tag = StrFormat("COPY %lld",
                                static_cast<long long>(out.rows_affected));
    return std::optional<engine::QueryResult>(std::move(out));
  }

  int dist_pos = table->DistColumnPosition(stmt.columns);
  if (dist_pos < 0) {
    return Status::InvalidArgument(
        "COPY into a distributed table requires the partition column");
  }
  // Partition rows into per-shard batches.
  std::map<int, std::vector<std::vector<std::string>>> by_shard;
  for (const auto& row : rows) {
    if (dist_pos >= static_cast<int>(row.size())) {
      return Status::InvalidArgument("COPY row is missing fields");
    }
    CITUSX_ASSIGN_OR_RETURN(
        sql::Datum v, sql::Datum::FromText(table->dist_col_type,
                                           row[static_cast<size_t>(dist_pos)]));
    CITUSX_ASSIGN_OR_RETURN(int idx, table->ShardIndexForValue(v));
    by_shard[idx].push_back(row);
  }
  std::vector<Task> tasks;
  int index = 0;
  int64_t total = 0;
  for (auto& [shard_idx, batch] : by_shard) {
    Task t;
    t.index = index++;
    t.worker = table->shards[static_cast<size_t>(shard_idx)].placement;
    t.colocation_id = table->colocation_id;
    t.shard_group = shard_idx;
    t.is_copy = true;
    t.is_write = true;
    t.copy_table =
        table->ShardName(table->shards[static_cast<size_t>(shard_idx)].shard_id);
    t.copy_columns = stmt.columns;
    total += static_cast<int64_t>(batch.size());
    t.copy_rows = std::move(batch);
    tasks.push_back(std::move(t));
  }
  CITUSX_RETURN_IF_ERROR(
      executor.Execute(session, std::move(tasks)).status());
  table->approx_rows += total;
  engine::QueryResult out;
  out.rows_affected = total;
  out.command_tag = StrFormat("COPY %lld", static_cast<long long>(total));
  return std::optional<engine::QueryResult>(std::move(out));
}

// ---------------------------------------------------------------------------
// Stored-procedure delegation (§3.8)
// ---------------------------------------------------------------------------

Result<std::optional<engine::QueryResult>> ProcessDelegatedCall(
    CitusExtension* ext, engine::Session& session, const sql::CallStmt& stmt,
    const std::vector<sql::Datum>& args) {
  auto it = ext->metadata().procedures.find(stmt.procedure);
  if (it == ext->metadata().procedures.end()) {
    return std::optional<engine::QueryResult>();  // not delegated
  }
  if (session.in_explicit_txn()) {
    // Delegation is skipped inside multi-statement transactions; the
    // procedure runs on the coordinator with regular distributed statements.
    return std::optional<engine::QueryResult>();
  }
  const DistributedProcedure& proc = it->second;
  const CitusTable* table = ext->metadata().Find(proc.colocated_table);
  if (table == nullptr || proc.dist_arg_index >= static_cast<int>(args.size())) {
    return std::optional<engine::QueryResult>();
  }
  CITUSX_ASSIGN_OR_RETURN(
      int idx, table->ShardIndexForValue(
                   args[static_cast<size_t>(proc.dist_arg_index)]));
  const std::string& worker =
      table->shards[static_cast<size_t>(idx)].placement;
  if (worker == ext->node()->name()) {
    // Local shard: run the procedure here (no delegation round trip).
    return std::optional<engine::QueryResult>();
  }
  if (!ext->node()->cpu().Consume(ext->node()->cost().plan_fast_path)) {
    return Status::Cancelled("simulation stopping");
  }
  // One round trip: the worker runs the whole procedure (§3.8).
  sql::Statement call;
  call.kind = sql::Statement::Kind::kCall;
  call.call = std::make_shared<sql::CallStmt>(stmt);
  sql::DeparseOptions opts;
  std::vector<sql::Datum> no_params;
  opts.params = &no_params;
  // Substitute evaluated args as literals.
  call.call->args.clear();
  for (const auto& a : args) {
    call.call->args.push_back(sql::MakeConst(a));
  }
  CITUSX_ASSIGN_OR_RETURN(WorkerConnection * wc,
                          ext->GetConnection(session, worker,
                                             {table->colocation_id, idx}));
  // Delegated CALLs bypass ExecOneTask, so refresh the metadata version
  // stamp here — a pooled connection may carry a stamp from before the
  // worker last synced, which the worker would reject as stale.
  CITUSX_RETURN_IF_ERROR(ext->StampPeerMetadataVersion(wc));
  CITUSX_ASSIGN_OR_RETURN(engine::QueryResult r,
                          wc->conn->Query(sql::DeparseStatement(call, opts)));
  return std::optional<engine::QueryResult>(std::move(r));
}

}  // namespace citusx::citus
