// The logical join-order planner (paper §3.5, Figure 4D): plans multi-way
// joins between non-co-located distributed tables. The plan anchors on the
// largest table, keeps every table co-located with it (connected through
// distribution-column equijoins) in place, and moves each remaining table
// to the anchor's workers — either re-partitioned along a kept table's
// shard intervals (fragments land exactly where their join partners live)
// or broadcast when the table is tiny or carries no usable join key.
//
// Data movement is worker-to-worker: each source shard runs a
// `citus_internal_shuffle` task on its own worker that hash-buckets the
// rows and ships every bucket directly to its destination worker, so the
// coordinator never touches tuple data.
//
// Each moved table becomes a stage of the plan: an intermediate result (a
// statement-local reference relation with one full-range shard on the kept
// workers) that the co-located remainder, planned up front, reads. The
// shards are dropped again on every exit path (success, error, worker
// crash — unreachable workers go to the deferred-cleanup queue the
// maintenance daemon drains). The stage runner here serves materialized
// CTEs too (cte_inline.cc).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "citus/gucs.h"
#include "citus/planner.h"
#include "net/connection.h"
#include "sql/deparser.h"
#include "sim/channel.h"
#include "sql/json.h"

namespace citusx::citus {

namespace {

uint64_t g_repart_counter = 0;

// True if `name` appears as a base table somewhere under a FROM subquery
// (we only reposition top-level tables).
bool AppearsInSubquery(const sql::SelectStmt& sel, const std::string& name) {
  return sql::AnyFromItem(
      sel, sql::Reach::kSubqueries,
      [&](const sql::TableRef& ref, const sql::FromScope& scope) {
        return ref.kind == sql::TableRef::Kind::kTable && scope.depth() > 0 &&
               ref.name == name;
      });
}

// Single-quote `s` as a SQL string literal (the shuffle spec is JSON text
// embedded in the task SQL).
std::string QuoteAsSqlLiteral(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

// True when `t` sits on the preserved (left) side of some LEFT JOIN: its
// unmatched rows are NULL-extended, so every row must land on exactly one
// worker — a broadcast copy on each of N workers would emit the extension
// N times.
bool PreservedInLeftJoin(const sql::SelectStmt& sel, const CitusTable* t,
                         const TableAnalysis& analysis) {
  auto names_t = [&](const sql::TableRef& ref) {
    if (ref.kind != sql::TableRef::Kind::kTable) return false;
    if (ref.name == t->name) return true;
    const std::string& key = ref.alias.empty() ? ref.name : ref.alias;
    auto it = analysis.alias_map.find(key);
    return it != analysis.alias_map.end() && it->second == t;
  };
  return sql::AnyFromItem(
      sel, sql::Reach::kOwnLevel, [&](const sql::TableRef& ref) {
        return ref.kind == sql::TableRef::Kind::kJoin &&
               ref.join_type == sql::JoinType::kLeft &&
               sql::AnyFromItem(*ref.left, sql::Reach::kOwnLevel, names_t);
      });
}

// Worker-to-worker shuffle: one `citus_internal_shuffle` task per source
// WORKER, covering all of that worker's shards of the moved table. The task
// reads each shard locally, hash-buckets rows by `join_col` against the
// destination intervals (or replicates everything when broadcasting), and
// ships each worker's bucket in a single COPY — batching per worker keeps
// the round-trip count at sources x destinations instead of shards x
// destinations. Marked is_write so the adaptive executor never retries or
// fails it over — a partially shipped shuffle must surface as an error, not
// run twice.
Status ShuffleWorkerToWorker(CitusExtension* ext, engine::Session& session,
                             const MovePlan& mp, const IntermediateResult& ir,
                             int64_t max_bytes) {
  std::vector<sql::JsonPtr> dests;
  if (mp.target != nullptr) {
    for (const auto& s : mp.target->shards) {
      dests.push_back(sql::Json::MakeObject(
          {{"w", sql::Json::MakeString(s.placement)},
           {"min", sql::Json::MakeNumber(s.min_hash)},
           {"max", sql::Json::MakeNumber(s.max_hash)}}));
    }
  } else {
    for (const std::string& w : ir.workers) {
      dests.push_back(
          sql::Json::MakeObject({{"w", sql::Json::MakeString(w)}}));
    }
  }
  int key_type = static_cast<int>(mp.target != nullptr
                                      ? mp.target->dist_col_type
                                      : sql::TypeId::kNull);
  AdaptiveExecutor executor(ext);
  std::map<std::string, std::vector<sql::JsonPtr>> srcs_by_worker;
  for (const auto& s : mp.table->shards) {
    srcs_by_worker[s.placement].push_back(
        sql::Json::MakeString(mp.table->ShardName(s.shard_id)));
  }
  std::vector<Task> tasks;
  int index = 0;
  for (auto& [worker, srcs] : srcs_by_worker) {
    sql::JsonPtr spec = sql::Json::MakeObject(
        {{"srcs", sql::Json::MakeArray(std::move(srcs))},
         {"dest", sql::Json::MakeString(ir.shard)},
         {"col", sql::Json::MakeString(mp.join_col)},
         {"type", sql::Json::MakeNumber(key_type)},
         {"dests", sql::Json::MakeArray(dests)}});
    Task t;
    t.index = index++;
    t.worker = worker;
    t.sql = "SELECT citus_internal_shuffle(" +
            QuoteAsSqlLiteral(spec->ToString()) + ")";
    t.is_write = true;
    t.standalone = true;
    tasks.push_back(std::move(t));
  }
  CITUSX_ASSIGN_OR_RETURN(std::vector<engine::QueryResult> results,
                          executor.Execute(session, std::move(tasks)));
  int64_t total = 0;
  for (const auto& r : results) {
    if (!r.rows.empty() && !r.rows[0].empty() && !r.rows[0][0].is_null()) {
      total += r.rows[0][0].int_value();
    }
  }
  ext->metric_repartition_shuffled_bytes->Inc(total);
  if (max_bytes >= 0 && total > max_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "repartitioned relation \"%s\" exceeds "
        "citus.max_intermediate_result_size",
        mp.table->name.c_str()));
  }
  return Status::OK();
}

// A boolean GUC: the session's value, else the registry default.
bool GucEnabled(engine::Session& session, const char* name) {
  std::string v = session.GetVar(name);
  if (v.empty()) v = std::string(GucDefault(name));
  return v == "on" || v == "true" || v == "1";
}

// CREATE the result's shard on each of its workers. On any failure the
// already-created shards are dropped again before the error returns.
Status CreateIntermediateResult(CitusExtension* ext, engine::Session& session,
                                const sql::Schema& schema,
                                const IntermediateResult& ir) {
  sql::Statement create;
  create.kind = sql::Statement::Kind::kCreateTable;
  create.create_table = std::make_shared<sql::CreateTableStmt>();
  create.create_table->table = ir.shard;
  create.create_table->schema = schema;
  std::string create_sql = sql::DeparseStatement(create);

  AdaptiveExecutor executor(ext);
  std::vector<Task> tasks;
  int index = 0;
  for (const std::string& w : ir.workers) {
    Task t;
    t.index = index++;
    t.worker = w;
    t.sql = create_sql;
    tasks.push_back(std::move(t));
  }
  auto created = executor.Execute(session, std::move(tasks));
  if (!created.ok()) {
    DropIntermediateResult(ext, session, ir);
    return created.status();
  }
  return Status::OK();
}

}  // namespace

// ---- shared intermediate-result helpers (also used by cte_inline.cc) ----

void RewriteTableRefs(sql::SelectStmt& sel, const std::string& from_name,
                      const std::string& to_name) {
  sql::ForEachFromItem(sel, sql::Reach::kSubqueries, [&](sql::TableRef& ref) {
    if (ref.kind == sql::TableRef::Kind::kTable && ref.name == from_name) {
      if (ref.alias.empty()) ref.alias = from_name;
      ref.name = to_name;
    }
  });
}

int64_t MaxIntermediateResultBytes(engine::Session& session) {
  std::string v = session.GetVar("citus.max_intermediate_result_size");
  if (v.empty()) {
    v = std::string(GucDefault("citus.max_intermediate_result_size"));
  }
  int64_t kb = std::atoll(v.c_str());
  return kb < 0 ? -1 : kb * 1024;
}

std::vector<std::string> RowToCopyFields(const sql::Row& row) {
  std::vector<std::string> fields;
  fields.reserve(row.size());
  for (const auto& d : row) {
    fields.push_back(d.is_null() ? "\\N" : d.ToText());
  }
  return fields;
}

int64_t CopyRowsBytes(const std::vector<std::vector<std::string>>& rows) {
  int64_t bytes = 0;
  for (const auto& r : rows) {
    for (const auto& f : r) bytes += static_cast<int64_t>(f.size()) + 1;
  }
  return bytes;
}

IntermediateResult DistributedPlanner::AddStageRelation() {
  // A reference relation (one full-range shard) so the co-located pushdown
  // planner treats the rewritten query as a plain reference join. When it
  // holds repartitioned fragments the replicas are NOT identical — each
  // worker's shard holds only its bucket — which stays correct because the
  // rewritten query only ever joins the fragment against the co-located
  // shard whose interval produced it. The relation name is unique, so the
  // shard's id is only its ordinal within the statement: planning (an
  // EXPLAIN, a discarded CTE inline attempt) draws nothing from the
  // metadata's shard id sequence.
  CitusTable relation;
  relation.name = StrFormat(
      "citusx_repart_%llu",
      static_cast<unsigned long long>(++g_repart_counter));
  relation.is_reference = true;
  ShardInterval si;
  si.shard_id = stage_relations_.size() + 1;
  si.min_hash = INT32_MIN;
  si.max_hash = INT32_MAX;
  relation.shards.push_back(si);
  IntermediateResult ir;
  ir.logical = relation.name;
  ir.shard = relation.ShardName(si.shard_id);
  stage_relations_[relation.name] = std::move(relation);
  return ir;
}

void DropIntermediateResult(CitusExtension* ext, engine::Session& session,
                            const IntermediateResult& ir) {
  // Drop every placement concurrently: cleanup runs on the latency path of
  // each repartition join (success and failure alike), and a serial
  // round trip per worker would cost more than the shuffle it cleans up
  // after. DROP IF EXISTS is idempotent, so failures simply defer.
  sim::Simulation* sim = ext->node()->sim();
  auto done = std::make_shared<sim::Channel<int>>(sim);
  for (const std::string& w : ir.workers) {
    std::string worker = w;
    std::string shard = ir.shard;
    engine::Session* sess = &session;
    sim->Spawn(
        "citus:ir_drop",
        [ext, sess, worker, shard, done] {
          bool dropped = false;
          auto conn = ext->GetConnection(*sess, worker, {0, -1});
          if (conn.ok()) {
            auto r = (*conn)->conn->Query("DROP TABLE IF EXISTS " + shard);
            dropped = r.ok();
          }
          // Unreachable worker or failed drop: the maintenance daemon
          // retries once the worker is back.
          if (!dropped) ext->AddDeferredCleanup(worker, {shard});
          done->Send(1);
        },
        /*daemon=*/true);
  }
  for (size_t i = 0; i < ir.workers.size(); i++) {
    if (!done->Receive().has_value()) break;  // simulation stopping
  }
}

// ---- the join-order tier ----

Result<std::optional<DistributedPlan>> DistributedPlanner::PlanJoinOrder(
    engine::Session& session, const sql::SelectStmt& sel,
    const std::vector<sql::Datum>& params, const TableAnalysis& analysis) {
  // Scope: two or more distributed tables at the top level of the FROM
  // clause (reference tables ride along; occurrences under subqueries bail).
  if (analysis.distributed.size() < 2) {
    return std::optional<DistributedPlan>();
  }
  for (const CitusTable* t : analysis.distributed) {
    if (AppearsInSubquery(sel, t->name)) {
      return std::optional<DistributedPlan>();
    }
  }
  if (!GucEnabled(session, "citus.enable_repartition_joins")) {
    return Status::NotSupported(
        "the query requires repartitioning and "
        "citus.enable_repartition_joins is off");
  }

  // ---- join-order selection (§3.5 "minimizes network traffic") ----
  // Anchor on the largest table by tracked statistics; keep in place every
  // table co-located with it that is connected to the kept set through
  // distribution-column equijoins (transitively — the fixpoint below).
  const CitusTable* anchor = analysis.distributed[0];
  for (const CitusTable* t : analysis.distributed) {
    if (t->approx_rows > anchor->approx_rows) anchor = t;
  }
  std::vector<sql::ExprPtr> conjuncts;
  CollectConjuncts(sel, &conjuncts);
  std::vector<const CitusTable*> kept{anchor};
  auto in_kept = [&](const CitusTable* t) {
    return std::find(kept.begin(), kept.end(), t) != kept.end();
  };
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& c : conjuncts) {
      if (c->kind != sql::ExprKind::kBinary || c->bin_op != sql::BinOp::kEq) {
        continue;
      }
      const CitusTable* l = AnyDistColRef(*c->args[0], analysis);
      const CitusTable* r = AnyDistColRef(*c->args[1], analysis);
      if (l == nullptr || r == nullptr || l == r) continue;
      if (l->colocation_id != anchor->colocation_id ||
          r->colocation_id != anchor->colocation_id) {
        continue;
      }
      if (in_kept(l) && !in_kept(r)) {
        kept.push_back(r);
        grew = true;
      } else if (in_kept(r) && !in_kept(l)) {
        kept.push_back(l);
        grew = true;
      }
    }
  }

  std::set<std::string> kept_worker_set;
  for (const auto& s : anchor->shards) kept_worker_set.insert(s.placement);
  std::vector<std::string> kept_workers(kept_worker_set.begin(),
                                        kept_worker_set.end());

  // Per moved table: repartition along a kept table's intervals when a
  // usable join key exists and the table is large (traffic ~= size(moved)),
  // broadcast otherwise (traffic ~= size(moved) * workers).
  std::vector<MovePlan> moves;
  for (const CitusTable* t : analysis.distributed) {
    if (in_kept(t)) continue;
    MovePlan mp;
    mp.table = t;
    for (const auto& c : conjuncts) {
      if (c->kind != sql::ExprKind::kBinary || c->bin_op != sql::BinOp::kEq) {
        continue;
      }
      for (int side = 0; side < 2 && mp.target == nullptr; side++) {
        const sql::ExprPtr& m = c->args[static_cast<size_t>(side)];
        const sql::ExprPtr& o = c->args[static_cast<size_t>(1 - side)];
        // Moved side: a column of `t` — qualified, or `t`'s own unambiguous
        // distribution column (the common "distributed on the join key,
        // just not co-located" shape). Other side: a kept dist column.
        if (m->kind != sql::ExprKind::kColumnRef) continue;
        if (!m->table.empty()) {
          auto it = analysis.alias_map.find(m->table);
          if (it == analysis.alias_map.end() || it->second != t) continue;
        } else {
          if (m->column != t->dist_column) continue;
          bool ambiguous = false;
          for (const CitusTable* other : analysis.distributed) {
            if (other != t && other->dist_column == m->column) {
              ambiguous = true;
            }
          }
          if (ambiguous) continue;
        }
        const CitusTable* other = AnyDistColRef(*o, analysis);
        if (other != nullptr && !other->is_reference && in_kept(other)) {
          mp.join_col = m->column;
          mp.target = other;
        }
      }
      if (mp.target != nullptr) break;
    }
    bool preserved = PreservedInLeftJoin(sel, t, analysis);
    bool use_repartition = mp.target != nullptr &&
                           kept_worker_set.size() > 1 &&
                           (t->approx_rows >= 1000 || preserved);
    if (!use_repartition && preserved && kept_worker_set.size() > 1) {
      if (mp.target == nullptr) {
        // Broadcasting the preserved side of a LEFT JOIN would NULL-extend
        // its unmatched rows once per worker; without a repartition key the
        // join cannot be planned here.
        return std::optional<DistributedPlan>();
      }
      use_repartition = true;
    }
    if (!use_repartition) {
      mp.join_col.clear();
      mp.target = nullptr;
    }
    moves.push_back(std::move(mp));
  }
  if (moves.empty()) {
    // Everything is already co-located with the anchor; whatever made the
    // pushdown tier refuse, data movement will not fix it.
    return std::optional<DistributedPlan>();
  }

  // Each moved table becomes a stage relation on the kept workers; the
  // rewritten query reads them and plans as a co-located pushdown (every
  // remaining distributed table is kept, so it never lands here again).
  sql::SelectPtr rewritten = sel.Clone();
  std::vector<Stage> stages;
  for (MovePlan& mp : moves) {
    Stage stage;
    stage.result = AddStageRelation();
    stage.result.workers = kept_workers;
    RewriteTableRefs(*rewritten, mp.table->name, stage.result.logical);
    stage.move = std::move(mp);
    stages.push_back(std::move(stage));
  }
  TableAnalysis colocated =
      AnalyzeSelectTables(ext_->metadata(), *rewritten, &stage_relations_);
  CITUSX_ASSIGN_OR_RETURN(DistributedPlan plan,
                          PlanSelect(session, *rewritten, params, colocated));
  plan.stages = std::move(stages);
  return std::optional<DistributedPlan>(std::move(plan));
}

Status DistributedPlanner::RunStage(
    engine::Session& session, Stage& stage,
    const std::vector<sql::Datum>& params,
    std::vector<const IntermediateResult*>* created) {
  auto fault = [&](RepartitionPoint p) -> Status {
    if (ext_->repartition_fault_hook) {
      return ext_->repartition_fault_hook(stage.result.logical, p);
    }
    return Status::OK();
  };
  const int64_t max_bytes = MaxIntermediateResultBytes(session);
  sql::Schema schema;
  std::vector<std::vector<std::string>> copy_rows;
  if (stage.body != nullptr) {
    // A materialized CTE: run its body, enforce the session's cap in
    // COPY-text bytes (the unit the rows occupy on the wire), and keep the
    // coordinator's copy for coordinator-local steps.
    CITUSX_ASSIGN_OR_RETURN(engine::QueryResult rows,
                            Execute(session, std::move(*stage.body), params));
    copy_rows.reserve(rows.rows.size());
    for (const auto& row : rows.rows) copy_rows.push_back(RowToCopyFields(row));
    if (max_bytes >= 0 && CopyRowsBytes(copy_rows) > max_bytes) {
      return Status::ResourceExhausted(StrFormat(
          "materialized CTE \"%s\" exceeds citus.max_intermediate_result_size",
          stage.cte.c_str()));
    }
    engine::TempRelation kept;
    for (size_t c = 0; c < rows.column_names.size(); c++) {
      sql::ColumnDef col;
      col.name = rows.column_names[c].empty()
                     ? StrFormat("c%d", static_cast<int>(c))
                     : rows.column_names[c];
      col.type = rows.column_types[c] == sql::TypeId::kNull
                     ? sql::TypeId::kText
                     : rows.column_types[c];
      kept.column_names.push_back(col.name);
      kept.column_types.push_back(col.type);
      schema.columns.push_back(std::move(col));
    }
    kept.rows = std::move(rows.rows);
    stage_rows_[stage.result.logical] = std::move(kept);
  } else {
    engine::TableInfo* shell =
        ext_->node()->catalog().Find(stage.move.table->name);
    if (shell == nullptr) {
      return Status::NotFound("shell table missing: " + stage.move.table->name);
    }
    schema = shell->schema();
  }

  if (!stage.result.workers.empty()) {
    CITUSX_RETURN_IF_ERROR(
        CreateIntermediateResult(ext_, session, schema, stage.result));
    created->push_back(&stage.result);
    CITUSX_RETURN_IF_ERROR(fault(RepartitionPoint::kAfterCreate));
    if (stage.body != nullptr) {
      AdaptiveExecutor executor(ext_);
      std::vector<Task> copy_tasks;
      int index = 0;
      for (const std::string& w : stage.result.workers) {
        Task t;
        t.index = index++;
        t.worker = w;
        t.is_copy = true;
        t.copy_table = stage.result.shard;
        t.copy_rows = copy_rows;
        copy_tasks.push_back(std::move(t));
      }
      CITUSX_RETURN_IF_ERROR(
          executor.Execute(session, std::move(copy_tasks)).status());
    } else {
      CITUSX_RETURN_IF_ERROR(ShuffleWorkerToWorker(ext_, session, stage.move,
                                                   stage.result, max_bytes));
      ext_->metric_repartition_moves->Inc();
    }
    CITUSX_RETURN_IF_ERROR(fault(RepartitionPoint::kAfterShuffle));
  }
  if (stage.body != nullptr) ext_->metric_cte_materialized->Inc();
  return Status::OK();
}

}  // namespace citusx::citus
