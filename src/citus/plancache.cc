#include "citus/plancache.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
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
std::atomic<int64_t> g_next_plan_id{1};

// Template sentinels (see DeparseOptions::param_markers): \x01 marks the
// table name, \x02<n>\x02 marks parameter n.
constexpr char kTableSentinel = '\x01';
constexpr char kParamSentinel = '\x02';

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

/// Every parameter index referenced by the (normalized) statement.
void CollectExprParams(const ExprPtr& e, std::set<int>* out) {
  sql::WalkExpr(e, [out](const Expr& x) {
    if (x.kind == ExprKind::kParam) out->insert(x.param_index);
  });
}

std::set<int> CollectParamIndices(const sql::Statement& stmt) {
  std::set<int> out;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      const sql::SelectStmt& s = *stmt.select;
      for (const auto& t : s.targets) CollectExprParams(t.expr, &out);
      CollectExprParams(s.where, &out);
      for (const auto& g : s.group_by) CollectExprParams(g, &out);
      CollectExprParams(s.having, &out);
      for (const auto& o : s.order_by) CollectExprParams(o.expr, &out);
      CollectExprParams(s.limit, &out);
      CollectExprParams(s.offset, &out);
      break;
    }
    case sql::Statement::Kind::kInsert:
      for (const auto& row : stmt.insert->values) {
        for (const auto& v : row) CollectExprParams(v, &out);
      }
      break;
    case sql::Statement::Kind::kUpdate:
      for (const auto& [col, e] : stmt.update->sets) {
        CollectExprParams(e, &out);
      }
      CollectExprParams(stmt.update->where, &out);
      break;
    case sql::Statement::Kind::kDelete:
      CollectExprParams(stmt.del->where, &out);
      break;
    default:
      break;
  }
  return out;
}

/// Split the sentinel-marked deparse into chunks and slots. Leaves
/// has_template false on a malformed marker sequence.
void ParseTemplate(const std::string& s, CachedDistPlan* plan) {
  std::vector<std::string> chunks;
  std::vector<int> slots;
  std::string cur;
  for (size_t i = 0; i < s.size(); i++) {
    char c = s[i];
    if (c == kTableSentinel) {
      chunks.push_back(cur);
      cur.clear();
      slots.push_back(-1);
      continue;
    }
    if (c == kParamSentinel) {
      size_t j = i + 1;
      std::string digits;
      while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) {
        digits.push_back(s[j++]);
      }
      if (digits.empty() || j >= s.size() || s[j] != kParamSentinel) return;
      int idx = std::atoi(digits.c_str());
      if (idx < 0 || idx >= plan->num_params) return;
      chunks.push_back(cur);
      cur.clear();
      slots.push_back(idx);
      i = j;
      continue;
    }
    cur.push_back(c);
  }
  chunks.push_back(std::move(cur));
  plan->chunks = std::move(chunks);
  plan->slots = std::move(slots);
  plan->has_template = true;
}

/// Interleave the template chunks with the pruned shard name and parameter
/// values — as $n placeholders (for the worker-side PREPARE body) or as
/// literals (direct execution).
std::string RenderTemplate(const CachedDistPlan& plan,
                           const std::string& shard_name,
                           const std::vector<sql::Datum>& bound,
                           bool params_as_dollar) {
  std::string out = plan.chunks[0];
  for (size_t i = 0; i < plan.slots.size(); i++) {
    int slot = plan.slots[i];
    if (slot < 0) {
      out += shard_name;
    } else if (params_as_dollar) {
      out += StrFormat("$%d", slot + 1);
    } else {
      out += bound[static_cast<size_t>(slot)].ToSqlLiteral();
    }
    out += plan.chunks[i + 1];
  }
  return out;
}

std::shared_ptr<CachedDistPlan> BuildPlan(Normalized&& norm, std::string key,
                                          const CitusTable& table,
                                          uint64_t generation) {
  auto plan = std::make_shared<CachedDistPlan>();
  plan->generation = generation;
  plan->plan_id = g_next_plan_id++;
  plan->table = table.name;
  plan->dist_col_type = table.dist_col_type;
  plan->colocation_id = table.colocation_id;
  plan->dist_param = norm.dist_param;
  plan->kind = norm.stmt.kind;
  plan->is_write = norm.stmt.kind == sql::Statement::Kind::kSelect
                       ? norm.stmt.select->for_update
                       : true;
  plan->base_params = norm.base_params;
  plan->num_params = norm.base_params + static_cast<int>(norm.lifted.size());
  std::set<int> used = CollectParamIndices(norm.stmt);
  bool dense =
      static_cast<int>(used.size()) == plan->num_params &&
      (used.empty() ||
       (*used.begin() == 0 && *used.rbegin() == plan->num_params - 1));
  plan->normalized = std::make_shared<const sql::Statement>(std::move(norm.stmt));
  // If the plain deparse already contains a sentinel byte (a pathological
  // string literal), splicing would be ambiguous — keep the fallback path.
  if (key.find(kTableSentinel) == std::string::npos &&
      key.find(kParamSentinel) == std::string::npos) {
    std::map<std::string, std::string> tmap = {
        {plan->table, std::string(1, kTableSentinel)}};
    sql::DeparseOptions opts;
    opts.table_map = &tmap;
    opts.param_markers = true;
    ParseTemplate(sql::DeparseStatement(*plan->normalized, opts), plan.get());
  }
  plan->use_prepared = dense && plan->has_template;
  plan->key = std::move(key);
  return plan;
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
  if (analysis.distributed.size() != 1 || !analysis.reference.empty() ||
      !analysis.local.empty()) {
    return not_handled;
  }
  const CitusTable* table0 = analysis.distributed[0];
  if (table0->is_reference || table0->shards.empty()) return not_handled;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete:
      break;
    default:
      return not_handled;
  }

  // MX belt-and-braces: the planner gate already rejects statements on a
  // node without current synced metadata before the cache is consulted;
  // re-check here so a cached plan can never route from an unsynced copy
  // if a future caller reaches the cache directly. Cross-node
  // invalidation needs no extra plumbing — FinishSync bumps this node's
  // generation, so the snapshot checks below drop every pre-sync plan.
  if (!ext->MxReady()) {
    return ext->MxStaleRejection("cached distributed plan on node " +
                                 ext->node()->name());
  }
  CitusSessionState& state = ext->SessionState(session);
  const uint64_t gen = ext->metadata().generation();
  engine::PreparedStatement* prep = session.active_prepared();

  std::shared_ptr<CachedDistPlan> plan;
  std::vector<sql::Datum> bound;
  bool hit = false;

  // Fast lane: an EXECUTE whose prepared statement already carries the plan
  // skips normalization and the key lookup entirely.
  if (prep != nullptr && prep->generic_plan != nullptr) {
    auto ref = std::static_pointer_cast<PreparedPlanRef>(prep->generic_plan);
    if (ref->plan->generation == gen) {
      plan = ref->plan;
      bound = params;
      bound.insert(bound.end(), ref->lifted.begin(), ref->lifted.end());
      hit = true;
    } else {
      ext->metric_plancache_invalidation->Inc();
      // Only drop the map entry if it is still this plan (another statement
      // may have rebuilt the shape already).
      auto mit = state.plan_cache.find(ref->plan->key);
      if (mit != state.plan_cache.end() && mit->second == ref->plan) {
        state.plan_cache.erase(mit);
      }
      prep->generic_plan.reset();
    }
  }

  if (plan == nullptr) {
    Normalized norm;
    if (!NormalizeStatement(stmt, *table0, static_cast<int>(params.size()),
                            &norm)) {
      return not_handled;
    }
    std::string key = sql::DeparseStatement(norm.stmt, {});
    auto it = state.plan_cache.find(key);
    if (it != state.plan_cache.end() && it->second->generation != gen) {
      ext->metric_plancache_invalidation->Inc();
      state.plan_cache.erase(it);
      it = state.plan_cache.end();
    }
    if (it != state.plan_cache.end()) {
      plan = it->second;
      // Same key but a different parameter layout (caller passed unused
      // params): don't risk mis-binding, fall through to the planner.
      if (plan->base_params != static_cast<int>(params.size()) ||
          plan->num_params !=
              static_cast<int>(params.size() + norm.lifted.size())) {
        return not_handled;
      }
      hit = true;
    } else {
      plan = BuildPlan(std::move(norm), std::move(key), *table0, gen);
      state.plan_cache[plan->key] = plan;
      ext->metric_plancache_miss->Inc();
    }
    bound = params;
    bound.insert(bound.end(), norm.lifted.begin(), norm.lifted.end());
    if (prep != nullptr) {
      auto ref = std::make_shared<PreparedPlanRef>();
      ref->plan = plan;
      ref->lifted = std::move(norm.lifted);
      prep->generic_plan = std::move(ref);
    }
  }

  if (plan->dist_param < 0 ||
      plan->dist_param >= static_cast<int>(bound.size())) {
    return not_handled;
  }
  const sql::Datum& dist_value = bound[static_cast<size_t>(plan->dist_param)];
  if (dist_value.is_null()) return not_handled;  // not routable: full planner
  auto coerced = dist_value.CastTo(plan->dist_col_type);
  if (!coerced.ok()) return not_handled;

  CitusTable* table = ext->metadata().Find(plan->table);
  if (table == nullptr) return not_handled;  // unreachable: generation guard
  int idx = table->ShardIndexForHash(coerced->PartitionHash());
  if (idx < 0) return Status::Internal("no shard for hash value");

  // Every plan-cache plan is a fast-path plan. A hit re-binds in
  // O(log shards); a miss pays the fast-path planner.
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext, PlannerTier::kFastPath, hit));
  if (hit) ext->metric_plancache_hit->Inc();

  const ShardInterval& shard = table->shards[static_cast<size_t>(idx)];
  std::string shard_name = table->ShardName(shard.shard_id);

  Task t;
  t.worker = shard.placement;
  t.colocation_id = table->colocation_id;
  t.shard_group = idx;
  t.is_write = plan->is_write;
  if (plan->use_prepared) {
    t.prepare_name = plan->PrepareName(idx);
    auto pit = plan->prepare_sql_by_shard.find(idx);
    if (pit == plan->prepare_sql_by_shard.end()) {
      pit = plan->prepare_sql_by_shard
                .emplace(idx, "PREPARE " + t.prepare_name + " AS " +
                                  RenderTemplate(*plan, shard_name, bound,
                                                 /*params_as_dollar=*/true))
                .first;
    }
    t.prepare_sql = pit->second;
    std::string args;
    for (int i = 0; i < plan->num_params; i++) {
      if (i > 0) args += ", ";
      args += bound[static_cast<size_t>(i)].ToSqlLiteral();
    }
    t.execute_sql = "EXECUTE " + t.prepare_name +
                    (plan->num_params > 0 ? " (" + args + ")" : "");
  } else if (plan->has_template) {
    t.sql = RenderTemplate(*plan, shard_name, bound, /*params_as_dollar=*/false);
  } else {
    std::map<std::string, std::string> map = {{plan->table, shard_name}};
    sql::DeparseOptions opts;
    opts.table_map = &map;
    opts.params = &bound;
    t.sql = sql::DeparseStatement(*plan->normalized, opts);
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
  if (!ext->config().enable_plan_cache) return false;
  if (analysis.distributed.size() != 1 || !analysis.reference.empty() ||
      !analysis.local.empty()) {
    return false;
  }
  Normalized norm;
  if (!NormalizeStatement(stmt, *analysis.distributed[0],
                          static_cast<int>(params.size()), &norm)) {
    return false;
  }
  CitusSessionState& state = ext->SessionState(session);
  auto it = state.plan_cache.find(sql::DeparseStatement(norm.stmt, {}));
  return it != state.plan_cache.end() &&
         it->second->generation == ext->metadata().generation();
}

}  // namespace citusx::citus
