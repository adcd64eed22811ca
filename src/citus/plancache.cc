#include "citus/plancache.h"

#include <set>

#include "citus/executor.h"
#include "common/str.h"
#include "engine/hooks.h"
#include "sql/deparser.h"

namespace citusx::citus {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

// Worker prepared-statement names must be unique per backend; a global
// counter keeps them unique across sessions and extensions.
int64_t g_next_plan_id = 1;

/// A statement clone with constants lifted into parameters.
struct Normalized {
  sql::Statement stmt;
  std::vector<sql::Datum> lifted;  // lifted constant values, in walk order
  int base_params = 0;
  int dist_param = -1;  // bound-param index of the dist-column value
};

bool CloneStatement(const sql::Statement& in, sql::Statement* out) {
  out->kind = in.kind;
  switch (in.kind) {
    case sql::Statement::Kind::kSelect:
      out->select = in.select->Clone();
      return true;
    case sql::Statement::Kind::kInsert: {
      auto ins = std::make_shared<sql::InsertStmt>();
      ins->table = in.insert->table;
      ins->columns = in.insert->columns;
      ins->on_conflict_do_nothing = in.insert->on_conflict_do_nothing;
      for (const auto& row : in.insert->values) {
        std::vector<ExprPtr> r;
        r.reserve(row.size());
        for (const auto& v : row) r.push_back(v->Clone());
        ins->values.push_back(std::move(r));
      }
      if (in.insert->select != nullptr) ins->select = in.insert->select->Clone();
      out->insert = std::move(ins);
      return true;
    }
    case sql::Statement::Kind::kUpdate: {
      auto upd = std::make_shared<sql::UpdateStmt>();
      upd->table = in.update->table;
      for (const auto& [col, e] : in.update->sets) {
        upd->sets.emplace_back(col, e->Clone());
      }
      if (in.update->where != nullptr) upd->where = in.update->where->Clone();
      out->update = std::move(upd);
      return true;
    }
    case sql::Statement::Kind::kDelete: {
      auto del = std::make_shared<sql::DeleteStmt>();
      del->table = in.del->table;
      if (in.del->where != nullptr) del->where = in.del->where->Clone();
      out->del = std::move(del);
      return true;
    }
    default:
      return false;
  }
}

/// Replace *slot (a non-null constant) with a parameter, recording its value.
void LiftSlot(ExprPtr* slot, Normalized* n) {
  if (*slot == nullptr || (*slot)->kind != ExprKind::kConst) return;
  if ((*slot)->value.is_null()) return;
  sql::Datum v = (*slot)->value;
  *slot = sql::MakeParam(n->base_params + static_cast<int>(n->lifted.size()));
  n->lifted.push_back(std::move(v));
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kLike:
    case BinOp::kNotLike:
    case BinOp::kILike:
      return true;
    default:
      return false;
  }
}

/// Lift constant comparison values (and IN-list items) out of the top-level
/// conjuncts of a WHERE clause. Only value positions are lifted — constants
/// elsewhere stay in the statement and thus in the cache key, so statements
/// differing there never share an entry.
void LiftWhereConsts(const ExprPtr& where, Normalized* n) {
  std::vector<ExprPtr> conjuncts;
  engine::SplitConjuncts(where, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c == nullptr) continue;
    if (c->kind == ExprKind::kBinary && IsComparison(c->bin_op)) {
      for (auto& a : c->args) LiftSlot(&a, n);
    } else if (c->kind == ExprKind::kIn) {
      for (size_t i = 1; i < c->args.size(); i++) LiftSlot(&c->args[i], n);
    }
  }
}

/// The parameter carrying the dist-column equality value, or -1.
int FindDistParam(const ExprPtr& where, const CitusTable& table) {
  std::vector<ExprPtr> conjuncts;
  engine::SplitConjuncts(where, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c == nullptr || c->kind != ExprKind::kBinary ||
        c->bin_op != BinOp::kEq) {
      continue;
    }
    ExprPtr col = c->args[0];
    ExprPtr val = c->args[1];
    auto is_dist_col = [&](const ExprPtr& e) {
      return e->kind == ExprKind::kColumnRef && e->column == table.dist_column;
    };
    if (!is_dist_col(col)) std::swap(col, val);
    if (!is_dist_col(col)) continue;
    if (val->kind == ExprKind::kParam) return val->param_index;
  }
  return -1;
}

/// Normalize `stmt` against `table` if its shape is cacheable: single-shard
/// CRUD with a dist-column equality on a constant or parameter. Mirrors the
/// fast-path planner's shape tests (planner.cc / dml.cc).
bool NormalizeStatement(const sql::Statement& stmt, const CitusTable& table,
                        int base_params, Normalized* out) {
  out->base_params = base_params;
  if (!CloneStatement(stmt, &out->stmt)) return false;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      sql::SelectStmt& s = *out->stmt.select;
      if (s.from.size() != 1 ||
          s.from[0]->kind != sql::TableRef::Kind::kTable ||
          s.from[0]->name != table.name) {
        return false;
      }
      if (!s.group_by.empty() || s.having != nullptr) return false;
      LiftWhereConsts(s.where, out);
      LiftSlot(&s.limit, out);
      LiftSlot(&s.offset, out);
      out->dist_param = FindDistParam(s.where, table);
      return out->dist_param >= 0;
    }
    case sql::Statement::Kind::kUpdate: {
      sql::UpdateStmt& u = *out->stmt.update;
      if (u.table != table.name) return false;
      for (auto& [col, e] : u.sets) LiftSlot(&e, out);
      LiftWhereConsts(u.where, out);
      out->dist_param = FindDistParam(u.where, table);
      return out->dist_param >= 0;
    }
    case sql::Statement::Kind::kDelete: {
      sql::DeleteStmt& d = *out->stmt.del;
      if (d.table != table.name) return false;
      LiftWhereConsts(d.where, out);
      out->dist_param = FindDistParam(d.where, table);
      return out->dist_param >= 0;
    }
    case sql::Statement::Kind::kInsert: {
      sql::InsertStmt& ins = *out->stmt.insert;
      if (ins.table != table.name || ins.select != nullptr ||
          ins.values.size() != 1) {
        return false;
      }
      int dist_pos = table.DistColumnPosition(ins.columns);
      auto& row = ins.values[0];
      if (dist_pos < 0 || dist_pos >= static_cast<int>(row.size())) {
        return false;
      }
      for (auto& v : row) LiftSlot(&v, out);
      const ExprPtr& dv = row[static_cast<size_t>(dist_pos)];
      if (dv->kind != ExprKind::kParam) return false;
      out->dist_param = dv->param_index;
      return true;
    }
    default:
      return false;
  }
}

std::shared_ptr<CachedDistPlan> BuildPlan(Normalized&& norm, std::string key,
                                          const CitusTable& table,
                                          uint64_t generation) {
  auto plan = std::make_shared<CachedDistPlan>();
  plan->generation = generation;
  plan->plan_id = g_next_plan_id++;
  plan->table = table.name;
  plan->dist_param = norm.dist_param;
  plan->kind = norm.stmt.kind;
  plan->is_write = norm.stmt.kind == sql::Statement::Kind::kSelect
                       ? norm.stmt.select->for_update
                       : true;
  plan->num_params = norm.base_params + static_cast<int>(norm.lifted.size());
  std::set<int> used;
  sql::ForEachExprSlot(norm.stmt, sql::Reach::kAll, [&](const ExprPtr& e) {
    sql::WalkExpr(e, [&](const Expr& x) {
      if (x.kind == ExprKind::kParam) used.insert(x.param_index);
    });
  });
  plan->use_prepared =
      static_cast<int>(used.size()) == plan->num_params &&
      (used.empty() ||
       (*used.begin() == 0 && *used.rbegin() == plan->num_params - 1));
  plan->normalized = std::make_shared<const sql::Statement>(std::move(norm.stmt));
  plan->key = std::move(key);
  return plan;
}

/// Normalize `stmt` if the session cache can serve it: its one relation is a
/// hash-distributed table and its shape passes NormalizeStatement.
bool NormalizeCacheable(const sql::Statement& stmt,
                        const std::vector<sql::Datum>& params,
                        const TableAnalysis& analysis, Normalized* out) {
  if (analysis.distributed.size() != 1 || !analysis.reference.empty() ||
      !analysis.local.empty()) {
    return false;
  }
  const CitusTable& table = *analysis.distributed[0];
  if (table.is_reference || table.shards.empty()) return false;
  return NormalizeStatement(stmt, table, static_cast<int>(params.size()), out);
}

}  // namespace

std::string CachedDistPlan::PrepareName(int shard_index) const {
  return StrFormat("citusx_p%lld_s%d", static_cast<long long>(plan_id),
                   shard_index);
}

Result<std::optional<DistributedPlan>> PlanFromCache(
    CitusExtension* ext, engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params, const TableAnalysis& analysis) {
  std::optional<DistributedPlan> not_handled;
  Normalized norm;
  if (!NormalizeCacheable(stmt, params, analysis, &norm)) return not_handled;

  // The planner's MX gate (CheckRelations) has already refused statements
  // on a node without current synced metadata. Cross-node invalidation
  // needs no extra plumbing: FinishSync bumps this node's generation, so the
  // snapshot check below drops every pre-sync plan.
  CitusSessionState& state = ext->SessionState(session);
  const uint64_t gen = ext->metadata().generation();
  std::string key = sql::DeparseStatement(norm.stmt, {});
  auto it = state.plan_cache.find(key);
  if (it != state.plan_cache.end() && it->second->generation != gen) {
    ext->metric_plancache_invalidation->Inc();
    state.plan_cache.erase(it);
    it = state.plan_cache.end();
  }
  const bool hit = it != state.plan_cache.end();
  std::vector<sql::Datum> bound = params;
  bound.insert(bound.end(), norm.lifted.begin(), norm.lifted.end());
  std::shared_ptr<CachedDistPlan> plan;
  if (hit) {
    plan = it->second;
    // Equal keys put every $n in the same place, whether it came from the
    // caller or from a lifted constant; only the count can differ (a caller
    // passing unused params), and then the planner takes the statement.
    if (plan->num_params != static_cast<int>(bound.size())) return not_handled;
  } else {
    plan = BuildPlan(std::move(norm), std::move(key), *analysis.distributed[0],
                     gen);
    state.plan_cache[plan->key] = plan;
    ext->metric_plancache_miss->Inc();
  }

  if (plan->dist_param >= static_cast<int>(bound.size())) return not_handled;
  const sql::Datum& dist_value = bound[static_cast<size_t>(plan->dist_param)];
  if (dist_value.is_null()) return not_handled;  // not routable: full planner
  CitusTable* table = ext->metadata().Find(plan->table);
  if (table == nullptr) return not_handled;  // unreachable: generation guard
  // A value that does not coerce, or whose hash no shard covers, goes to the
  // tiers, which treat it as they treat the uncached statement.
  Result<int> idx = table->ShardIndexForValue(dist_value);
  if (!idx.ok()) return not_handled;

  // Every plan-cache plan is a fast-path plan. A hit re-binds in
  // O(log shards); a miss pays the fast-path planner.
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext, PlannerTier::kFastPath, hit));
  if (hit) ext->metric_plancache_hit->Inc();

  const ShardInterval& shard = table->shards[static_cast<size_t>(*idx)];
  // The normalized statement deparsed against the pruned shard: with $n
  // placeholders for a worker-side PREPARE body, or with `values` as
  // literals.
  auto shard_sql = [&](const std::vector<sql::Datum>* values) {
    std::map<std::string, std::string> map = {
        {plan->table, table->ShardName(shard.shard_id)}};
    sql::DeparseOptions opts;
    opts.table_map = &map;
    opts.params = values;
    return sql::DeparseStatement(*plan->normalized, opts);
  };

  Task t;
  t.worker = shard.placement;
  t.colocation_id = table->colocation_id;
  t.shard_group = *idx;
  t.is_write = plan->is_write;
  if (plan->use_prepared) {
    t.prepare_name = plan->PrepareName(*idx);
    auto [pit, fresh] = plan->prepare_sql_by_shard.try_emplace(*idx);
    if (fresh) {
      pit->second = "PREPARE " + t.prepare_name + " AS " + shard_sql(nullptr);
    }
    t.prepare_sql = pit->second;
    std::string args;
    for (int i = 0; i < plan->num_params; i++) {
      if (i > 0) args += ", ";
      args += bound[static_cast<size_t>(i)].ToSqlLiteral();
    }
    t.execute_sql = "EXECUTE " + t.prepare_name +
                    (plan->num_params > 0 ? " (" + args + ")" : "");
  } else {
    t.sql = shard_sql(&bound);
  }

  DistributedPlan out;
  out.tier = PlannerTier::kFastPath;
  out.tasks.push_back(std::move(t));
  if (plan->kind == sql::Statement::Kind::kInsert) out.grows = table;
  return std::optional<DistributedPlan>(std::move(out));
}

bool PlanCacheContains(CitusExtension* ext, engine::Session& session,
                       const sql::Statement& stmt,
                       const std::vector<sql::Datum>& params,
                       const TableAnalysis& analysis) {
  Normalized norm;
  if (!ext->config().enable_plan_cache ||
      !NormalizeCacheable(stmt, params, analysis, &norm)) {
    return false;
  }
  CitusSessionState& state = ext->SessionState(session);
  auto it = state.plan_cache.find(sql::DeparseStatement(norm.stmt, {}));
  return it != state.plan_cache.end() &&
         it->second->generation == ext->metadata().generation();
}

}  // namespace citusx::citus
