#include "citus/planner.h"

#include <algorithm>

#include "citus/plancache.h"
#include "engine/hooks.h"
#include "obs/trace.h"
#include "sql/deparser.h"
#include "sql/eval.h"
#include "sql/parser.h"

namespace citusx::citus {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectStmt;

constexpr const char* kIntermediateName = "citusx_intermediate";

}  // namespace

TableAnalysis AnalyzeSelectTables(const CitusMetadata& metadata,
                                  const sql::SelectStmt& sel,
                                  const StageRelations* stages) {
  TableAnalysis out;
  sql::ForEachFromItem(
      sel, sql::Reach::kSubqueries, [&](const sql::TableRef& ref) {
        if (ref.kind != sql::TableRef::Kind::kTable) return;
        const CitusTable* t = nullptr;
        if (stages != nullptr) {
          auto stage = stages->find(ref.name);
          if (stage != stages->end()) t = &stage->second;
        }
        const bool is_stage = t != nullptr;
        if (!is_stage) t = metadata.Find(ref.name);
        std::string alias = ref.alias.empty() ? ref.name : ref.alias;
        if (t == nullptr) {
          out.local.push_back(ref.name);
          return;
        }
        out.alias_map[alias] = t;
        auto& vec = t->is_reference ? out.reference : out.distributed;
        bool present = false;
        for (const auto* existing : vec) present |= existing == t;
        if (!present) {
          vec.push_back(t);
          if (is_stage) out.stages++;
        }
      });
  return out;
}

TableAnalysis AnalyzeTables(const CitusMetadata& metadata,
                            const sql::Statement& stmt) {
  TableAnalysis out;
  auto add_table = [&](const std::string& name) {
    const CitusTable* t = metadata.Find(name);
    if (t == nullptr) {
      out.local.push_back(name);
      return;
    }
    out.alias_map[name] = t;
    auto& vec = t->is_reference ? out.reference : out.distributed;
    bool present = false;
    for (const auto* existing : vec) present |= existing == t;
    if (!present) vec.push_back(t);
  };
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return AnalyzeSelectTables(metadata, *stmt.select);
    case sql::Statement::Kind::kInsert:
      add_table(stmt.insert->table);
      if (stmt.insert->select != nullptr) {
        TableAnalysis sub = AnalyzeSelectTables(metadata, *stmt.insert->select);
        for (const auto* t : sub.distributed) {
          bool present = false;
          for (const auto* e : out.distributed) present |= e == t;
          if (!present) out.distributed.push_back(t);
        }
        for (const auto* t : sub.reference) out.reference.push_back(t);
        for (const auto& l : sub.local) out.local.push_back(l);
        for (const auto& [a, t] : sub.alias_map) out.alias_map[a] = t;
      }
      return out;
    case sql::Statement::Kind::kUpdate:
      add_table(stmt.update->table);
      return out;
    case sql::Statement::Kind::kDelete:
      add_table(stmt.del->table);
      return out;
    default:
      return out;
  }
}

std::map<std::string, std::string> ShardGroupTableMap(
    const TableAnalysis& analysis, int shard_index) {
  std::map<std::string, std::string> map;
  for (const auto* t : analysis.distributed) {
    map[t->name] =
        t->ShardName(t->shards[static_cast<size_t>(shard_index)].shard_id);
  }
  for (const auto* t : analysis.reference) {
    map[t->name] = t->ShardName(t->shards[0].shard_id);
  }
  return map;
}

void CollectConjuncts(const sql::SelectStmt& sel,
                      std::vector<sql::ExprPtr>* out) {
  engine::SplitConjuncts(sel.where, out);
  sql::ForEachFromItem(
      sel, sql::Reach::kOwnLevel, [&](const sql::TableRef& ref) {
        if (ref.kind == sql::TableRef::Kind::kJoin) {
          engine::SplitConjuncts(ref.on, out);
        }
      });
}

namespace {

// True if `e` is a column reference to `table`'s distribution column
// (qualifier resolved through the analysis alias map).
bool IsDistColRef(const Expr& e, const CitusTable& table,
                  const TableAnalysis& analysis) {
  if (e.kind != ExprKind::kColumnRef) return false;
  if (e.column != table.dist_column) return false;
  if (e.table.empty()) {
    // Unqualified: accept only if no *other* dist table shares the name.
    for (const auto* t : analysis.distributed) {
      if (t != &table && t->dist_column == e.column) return false;
    }
    return true;
  }
  auto it = analysis.alias_map.find(e.table);
  return it != analysis.alias_map.end() && it->second == &table;
}

bool ExprIsConstOrParam(const ExprPtr& e) {
  bool pure = true;
  sql::WalkExpr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::kColumnRef || x.kind == ExprKind::kAgg ||
        x.kind == ExprKind::kStar ||
        (x.kind == ExprKind::kFunc && x.func_name == "random")) {
      pure = false;
    }
  });
  return pure;
}

}  // namespace

const CitusTable* AnyDistColRef(const sql::Expr& e,
                                const TableAnalysis& analysis) {
  for (const auto* t : analysis.distributed) {
    if (IsDistColRef(e, *t, analysis)) return t;
  }
  return nullptr;
}

// Transitive distribution-column restrictions: conjuncts `a.dc = b.dc`
// merge equivalence classes; `dc = const` pins a class to a value. Returns
// the restriction value per dist table (all or nothing per table).
std::map<const CitusTable*, sql::Datum> ComputeDistRestrictions(
    const sql::SelectStmt& sel, const TableAnalysis& analysis,
    const std::vector<sql::Datum>& params) {
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(sel, &conjuncts);
  std::map<const CitusTable*, const CitusTable*> parent;
  for (const auto* t : analysis.distributed) parent[t] = t;
  std::function<const CitusTable*(const CitusTable*)> find =
      [&](const CitusTable* t) {
        while (parent[t] != t) t = parent[t] = parent[parent[t]];
        return t;
      };
  std::map<const CitusTable*, sql::Datum> class_value;
  auto assign = [&](const CitusTable* t, const sql::Datum& v) {
    const CitusTable* root = find(t);
    if (class_value.find(root) == class_value.end()) class_value[root] = v;
  };
  // First pass: unions; second pass: constants (order-independent result
  // requires two passes so unions come first).
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
    const CitusTable* a = AnyDistColRef(*c->args[0], analysis);
    const CitusTable* b = AnyDistColRef(*c->args[1], analysis);
    if (a != nullptr && b != nullptr && a != b) parent[find(a)] = find(b);
  }
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
    ExprPtr col = c->args[0], val = c->args[1];
    const CitusTable* t = AnyDistColRef(*col, analysis);
    if (t == nullptr) {
      std::swap(col, val);
      t = AnyDistColRef(*col, analysis);
    }
    if (t == nullptr || !ExprIsConstOrParam(val)) continue;
    sql::EvalContext ec;
    ec.params = &params;
    auto v = sql::Eval(*val, ec);
    if (v.ok() && !v->is_null()) assign(t, *v);
  }
  std::map<const CitusTable*, sql::Datum> out;
  for (const auto* t : analysis.distributed) {
    auto it = class_value.find(find(t));
    if (it != class_value.end()) out[t] = it->second;
  }
  return out;
}

Result<std::vector<std::string>> ShardCreationDdl(engine::Node* node,
                                                  const CitusTable& table,
                                                  uint64_t shard_id) {
  engine::TableInfo* info = node->catalog().Find(table.name);
  if (info == nullptr) {
    return Status::NotFound("shell table missing: " + table.name);
  }
  sql::Statement create;
  create.kind = sql::Statement::Kind::kCreateTable;
  create.create_table = std::make_shared<sql::CreateTableStmt>();
  create.create_table->table = table.name;
  create.create_table->schema = info->schema();
  if (table.columnar_shards) {
    // Columnar shards (no primary-key index support, like Citus columnar).
    create.create_table->access_method = "columnar";
  } else {
    create.create_table->primary_key = info->primary_key;
  }
  std::map<std::string, std::string> map = {
      {table.name, table.ShardName(shard_id)}};
  sql::DeparseOptions opts;
  opts.table_map = &map;
  std::vector<std::string> ddl;
  ddl.push_back(sql::DeparseStatement(create, opts));
  for (const auto& post : table.post_ddl) {
    auto parsed = sql::Parse(post);
    if (!parsed.ok()) continue;
    // Index names must be unique per shard: rewrite them too.
    std::map<std::string, std::string> post_map = map;
    if (parsed->kind == sql::Statement::Kind::kCreateIndex) {
      post_map[parsed->create_index->index] =
          parsed->create_index->index + "_" + std::to_string(shard_id);
    }
    sql::DeparseOptions post_opts;
    post_opts.table_map = &post_map;
    ddl.push_back(sql::DeparseStatement(*parsed, post_opts));
  }
  return ddl;
}

// ---------------------------------------------------------------------------
// SELECT planning
// ---------------------------------------------------------------------------

namespace {

// Can this select, leaving aside its FROM subqueries, run entirely on each
// shard group without a merge step beyond concatenation? True when it has no
// aggregates/grouping, or when the GROUP BY includes a distribution column
// (§3.5 logical pushdown; the VeniceDB pattern from §5).
bool LevelPushdownSafe(const SelectStmt& sel, const CitusMetadata& metadata,
                       std::string* reason) {
  TableAnalysis analysis = AnalyzeSelectTables(metadata, sel);
  if (analysis.distributed.empty()) return true;  // reference/local only
  bool has_agg = !sel.group_by.empty() || sel.having != nullptr;
  for (const auto& t : sel.targets) has_agg |= sql::ContainsAggregate(t.expr);
  if (has_agg) {
    bool group_has_dist = false;
    for (const auto& g : sel.group_by) {
      // Positional GROUP BY resolves through the target list.
      ExprPtr expr = g;
      if (g->kind == ExprKind::kConst && sql::IsIntegral(g->value.type())) {
        int pos = static_cast<int>(g->value.int_value());
        if (pos >= 1 && pos <= static_cast<int>(sel.targets.size())) {
          expr = sel.targets[static_cast<size_t>(pos - 1)].expr;
        }
      }
      group_has_dist |= AnyDistColRef(*expr, analysis) != nullptr;
    }
    if (!group_has_dist) {
      *reason = "subquery requires a merge step (GROUP BY without the "
                "distribution column)";
      return false;
    }
  }
  if (sel.limit != nullptr || sel.offset != nullptr) {
    *reason = "LIMIT in a subquery cannot be pushed down";
    return false;
  }
  return true;
}

// LevelPushdownSafe over every FROM subquery of `sel`, at every depth.
bool FromSubqueriesPushdownSafe(const SelectStmt& sel,
                                const CitusMetadata& metadata,
                                std::string* reason) {
  return !sql::AnyFromItem(
      sel, sql::Reach::kSubqueries, [&](const sql::TableRef& ref) {
        return ref.kind == sql::TableRef::Kind::kSubquery &&
               !LevelPushdownSafe(*ref.subquery, metadata, reason);
      });
}

}  // namespace

bool SubqueryPushdownSafe(const SelectStmt& sel, const CitusMetadata& metadata,
                          std::string* reason) {
  return LevelPushdownSafe(sel, metadata, reason) &&
         FromSubqueriesPushdownSafe(sel, metadata, reason);
}

// All distributed tables must be joined on their distribution columns
// (connected via equality conjuncts) and share a co-location group.
bool CheckColocatedJoins(const SelectStmt& sel, const TableAnalysis& analysis,
                         const CitusMetadata& metadata, std::string* reason) {
  if (analysis.distributed.size() <= 1) {
    // Single dist table at the top level; subqueries checked separately.
    return true;
  }
  int colocation = analysis.distributed[0]->colocation_id;
  for (const auto* t : analysis.distributed) {
    if (t->colocation_id != colocation) {
      *reason = "tables are not co-located";
      return false;
    }
  }
  // Union-find over dist tables connected by dist-col equality conjuncts.
  std::map<const CitusTable*, const CitusTable*> parent;
  for (const auto* t : analysis.distributed) parent[t] = t;
  std::function<const CitusTable*(const CitusTable*)> find =
      [&](const CitusTable* t) {
        while (parent[t] != t) t = parent[t] = parent[parent[t]];
        return t;
      };
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(sel, &conjuncts);
  // Also consider conjuncts inside FROM subqueries joined at this level?
  // (Handled by requiring subquery safety separately.)
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
    const CitusTable* a = AnyDistColRef(*c->args[0], analysis);
    const CitusTable* b = AnyDistColRef(*c->args[1], analysis);
    if (a != nullptr && b != nullptr && a != b) parent[find(a)] = find(b);
  }
  const CitusTable* root = find(analysis.distributed[0]);
  for (const auto* t : analysis.distributed) {
    if (find(t) != root) {
      *reason = "tables are not joined on their distribution columns";
      return false;
    }
  }
  return true;
}

namespace {

// Partial-aggregate splitting for the pushdown planner: rewrites a cloned
// top-level select into (worker query, master query).
struct AggSplit {
  SelectStmt worker;  // targets: group exprs g0.. then partials p0..
  SelectStmt master;  // over kIntermediateName
  std::vector<std::string> final_names;
  Status error;
  bool ok = false;
};

ExprPtr IntermediateCol(int i) {
  return sql::MakeColumnRef("", StrFormat("c%d", i));
}

// Build the master-side merge expression for one aggregate call over
// intermediate columns starting at `col`. Returns number of columns used.
int BuildMergeAgg(const Expr& agg, int col, ExprPtr* out) {
  const std::string& f = agg.func_name;
  if (f == "count") {
    *out = sql::MakeAgg("sum", {IntermediateCol(col)});
    // Empty input: sum over no rows is NULL but count must be 0.
    *out = sql::MakeFunc("coalesce",
                         {*out, sql::MakeConst(sql::Datum::Int8(0))});
    return 1;
  }
  if (f == "sum" || f == "min" || f == "max") {
    *out = sql::MakeAgg(f, {IntermediateCol(col)});
    return 1;
  }
  if (f == "avg") {
    // avg = sum(partial_sums) / sum(partial_counts), NULL when count = 0.
    ExprPtr total = sql::MakeAgg("sum", {IntermediateCol(col)});
    ExprPtr count = sql::MakeAgg("sum", {IntermediateCol(col + 1)});
    ExprPtr cond = sql::MakeBinary(
        BinOp::kGt,
        sql::MakeFunc("coalesce",
                      {count->Clone(), sql::MakeConst(sql::Datum::Int8(0))}),
        sql::MakeConst(sql::Datum::Int8(0)));
    auto div = sql::MakeBinary(
        BinOp::kDiv, sql::MakeCast(std::move(total), sql::TypeId::kFloat8),
        std::move(count));
    auto c = std::make_shared<Expr>();
    c->kind = ExprKind::kCase;
    c->case_has_else = false;
    c->args = {std::move(cond), std::move(div)};
    *out = std::move(c);
    return 2;
  }
  *out = nullptr;
  return 0;
}

// Rewrite an expression for the master query: group-expr subtrees become
// intermediate column refs, aggregate calls become merge aggregates.
Status RewriteForMaster(ExprPtr& e, const std::vector<std::string>& group_repr,
                        const std::vector<std::string>& agg_repr,
                        const std::vector<int>& agg_first_col,
                        const std::vector<ExprPtr>& agg_originals) {
  if (e == nullptr) return Status::OK();
  std::string repr = sql::DeparseExpr(*e);
  for (size_t i = 0; i < group_repr.size(); i++) {
    if (repr == group_repr[i]) {
      e = IntermediateCol(static_cast<int>(i));
      return Status::OK();
    }
  }
  if (e->kind == ExprKind::kAgg) {
    for (size_t i = 0; i < agg_repr.size(); i++) {
      if (repr == agg_repr[i]) {
        ExprPtr merged;
        BuildMergeAgg(*agg_originals[i], agg_first_col[i], &merged);
        if (merged == nullptr) {
          return Status::NotSupported("cannot merge aggregate " +
                                      e->func_name);
        }
        e = std::move(merged);
        return Status::OK();
      }
    }
    return Status::Internal("aggregate not collected: " + repr);
  }
  if (e->kind == ExprKind::kColumnRef) {
    return Status::NotSupported(
        "column must appear in GROUP BY for distributed aggregation: " +
        e->column);
  }
  for (auto& a : e->args) {
    CITUSX_RETURN_IF_ERROR(RewriteForMaster(a, group_repr, agg_repr,
                                            agg_first_col, agg_originals));
  }
  return Status::OK();
}

// Collects distinct aggregate calls; `reprs` caches each collected call's
// deparsed text (parallel to `out`) so every expression is deparsed once
// instead of re-deparsing all existing entries per candidate.
void CollectAggCalls(const ExprPtr& e, std::vector<ExprPtr>* out,
                     std::vector<std::string>* reprs) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kAgg) {
    std::string repr = sql::DeparseExpr(*e);
    for (const auto& existing : *reprs) {
      if (existing == repr) return;
    }
    out->push_back(e);
    reprs->push_back(std::move(repr));
    return;
  }
  for (const auto& a : e->args) CollectAggCalls(a, out, reprs);
}

Result<AggSplit> SplitAggregates(const SelectStmt& original) {
  AggSplit split;
  SelectStmt sel = *original.Clone();
  // Resolve positional GROUP BY first.
  std::vector<ExprPtr> groups;
  for (const auto& g : sel.group_by) {
    ExprPtr expr = g;
    if (g->kind == ExprKind::kConst && sql::IsIntegral(g->value.type())) {
      int pos = static_cast<int>(g->value.int_value());
      if (pos < 1 || pos > static_cast<int>(sel.targets.size())) {
        return Status::InvalidArgument("GROUP BY position out of range");
      }
      expr = sel.targets[static_cast<size_t>(pos - 1)].expr->Clone();
    }
    groups.push_back(expr);
  }
  // Collect distinct aggregate calls from targets, having, order by.
  std::vector<ExprPtr> aggs;
  std::vector<std::string> agg_repr;
  for (const auto& t : sel.targets) CollectAggCalls(t.expr, &aggs, &agg_repr);
  CollectAggCalls(sel.having, &aggs, &agg_repr);
  for (const auto& o : sel.order_by) CollectAggCalls(o.expr, &aggs, &agg_repr);
  for (const auto& a : aggs) {
    if (a->agg_distinct) {
      return Status::NotSupported(
          "DISTINCT aggregates require grouping by the distribution column");
    }
  }
  if (original.distinct) {
    return Status::NotSupported(
        "SELECT DISTINCT with distributed aggregation is not supported");
  }
  // Worker query: SELECT g0..gk, partials FROM <same> GROUP BY g0..gk.
  split.worker.from = sel.from;
  split.worker.where = sel.where;
  split.worker.group_by = groups;
  std::vector<std::string> group_repr;
  for (size_t i = 0; i < groups.size(); i++) {
    split.worker.targets.push_back(
        sql::SelectItem{groups[i]->Clone(), StrFormat("g%zu", i)});
    group_repr.push_back(sql::DeparseExpr(*groups[i]));
  }
  std::vector<int> agg_first_col;
  int next_col = static_cast<int>(groups.size());
  for (const auto& a : aggs) {
    agg_first_col.push_back(next_col);
    if (a->func_name == "avg") {
      // Partial: sum(x), count(x).
      split.worker.targets.push_back(sql::SelectItem{
          sql::MakeAgg("sum", {a->args[0]->Clone()}), StrFormat("p%d", next_col)});
      split.worker.targets.push_back(sql::SelectItem{
          sql::MakeAgg("count", {a->args[0]->Clone()}),
          StrFormat("p%d", next_col + 1)});
      next_col += 2;
    } else {
      split.worker.targets.push_back(
          sql::SelectItem{a->Clone(), StrFormat("p%d", next_col)});
      next_col += 1;
    }
  }
  // Master query over the intermediate relation.
  split.master.from.push_back(std::make_shared<sql::TableRef>());
  split.master.from[0]->kind = sql::TableRef::Kind::kTable;
  split.master.from[0]->name = kIntermediateName;
  for (size_t i = 0; i < sel.targets.size(); i++) {
    // Output naming must survive the split: an unaliased column target is
    // named after its column (Postgres semantics), not the intermediate
    // slot — a materialized CTE's schema is built from these names and its
    // referencing queries bind against them.
    std::string name = sel.targets[i].alias;
    if (name.empty() && sel.targets[i].expr != nullptr &&
        sel.targets[i].expr->kind == ExprKind::kColumnRef) {
      name = sel.targets[i].expr->column;
    }
    ExprPtr expr = sel.targets[i].expr;  // already cloned
    CITUSX_RETURN_IF_ERROR(
        RewriteForMaster(expr, group_repr, agg_repr, agg_first_col, aggs));
    split.master.targets.push_back(sql::SelectItem{expr, name});
    split.final_names.push_back(name);
  }
  for (size_t i = 0; i < groups.size(); i++) {
    split.master.group_by.push_back(IntermediateCol(static_cast<int>(i)));
  }
  if (sel.having != nullptr) {
    ExprPtr having = sel.having;
    CITUSX_RETURN_IF_ERROR(
        RewriteForMaster(having, group_repr, agg_repr, agg_first_col, aggs));
    split.master.having = having;
  }
  for (const auto& o : sel.order_by) {
    sql::OrderByItem item;
    item.desc = o.desc;
    item.expr = o.expr;
    bool positional = item.expr->kind == ExprKind::kConst &&
                      sql::IsIntegral(item.expr->value.type());
    if (!positional) {
      // Resolve target-alias / target-expression references to positions
      // (ORDER BY revenue where revenue is an output alias).
      for (size_t i = 0; i < sel.targets.size(); i++) {
        const auto& t = sel.targets[i];
        bool alias_match = !t.alias.empty() &&
                           item.expr->kind == ExprKind::kColumnRef &&
                           item.expr->table.empty() &&
                           item.expr->column == t.alias;
        if (alias_match || engine::ExprEquals(item.expr, t.expr)) {
          item.expr =
              sql::MakeConst(sql::Datum::Int8(static_cast<int64_t>(i) + 1));
          positional = true;
          break;
        }
      }
    }
    if (!positional) {
      CITUSX_RETURN_IF_ERROR(RewriteForMaster(item.expr, group_repr, agg_repr,
                                              agg_first_col, aggs));
    }
    split.master.order_by.push_back(item);
  }
  split.master.limit = sel.limit;
  split.master.offset = sel.offset;
  split.ok = true;
  return split;
}

}  // namespace

// ---------------------------------------------------------------------------
// DistributedPlanner
// ---------------------------------------------------------------------------

const char* TierLabel(PlannerTier tier) {
  switch (tier) {
    case PlannerTier::kFastPath:
      return "fast path";
    case PlannerTier::kRouter:
      return "router";
    case PlannerTier::kPushdown:
      return "pushdown";
    case PlannerTier::kJoinOrder:
      return "join-order";
  }
  return "";
}

Status ChargeTier(CitusExtension* ext, PlannerTier tier, bool cache_hit) {
  const auto& cost = ext->node()->cost();
  sim::Time cpu = 0;
  obs::Counter* planned = nullptr;
  switch (tier) {
    case PlannerTier::kFastPath:
      cpu = cache_hit ? cost.plan_cached_bind : cost.plan_fast_path;
      planned = ext->metric_fast_path;
      break;
    case PlannerTier::kRouter:
      cpu = cost.plan_router;
      planned = ext->metric_router;
      break;
    case PlannerTier::kPushdown:
      cpu = cost.plan_pushdown;
      planned = ext->metric_pushdown;
      break;
    case PlannerTier::kJoinOrder:
      if (!ext->node()->cpu().Consume(cost.plan_pushdown)) {
        return Status::Cancelled("simulation stopping");
      }
      cpu = cost.plan_join_order;
      planned = ext->metric_join_order;
      break;
  }
  if (!ext->node()->cpu().Consume(cpu)) {
    return Status::Cancelled("simulation stopping");
  }
  planned->Inc();
  return Status::OK();
}

namespace {

// The Custom Scan label of a tier's plans.
const char* ScanLabel(PlannerTier tier) {
  switch (tier) {
    case PlannerTier::kFastPath:
      return "Fast Path Router";
    case PlannerTier::kRouter:
      return "Router";
    default:
      return "Adaptive";
  }
}

// One stage's EXPLAIN line: what fills which intermediate result, where.
std::string StageLine(const Stage& stage) {
  std::string what =
      stage.body != nullptr ? "Materialize CTE " + stage.cte
      : stage.move.target == nullptr
          ? "Broadcast " + stage.move.table->name
          : StrFormat("Repartition %s on %s along %s",
                      stage.move.table->name.c_str(),
                      stage.move.join_col.c_str(),
                      stage.move.target->name.c_str());
  std::string where;
  for (const std::string& w : stage.result.workers) {
    where += (where.empty() ? " on " : ", ") + w;
  }
  return "Stage: " + what + " into " + stage.result.logical +
         (where.empty() ? " (kept on the coordinator)" : where);
}

// EXPLAIN's rendering of a plan: a Custom Scan line with the tier's label
// and the task count, then the stages (a CTE's with its body's plan), the
// tasks and the coordinator step.
void ExplainPlan(const DistributedPlan& plan, const char* cached_tag,
                 const std::vector<sql::Datum>& params,
                 std::vector<std::string>* lines) {
  auto add = [&](const std::string& s) { lines->push_back(s); };
  auto nest = [&](const DistributedPlan& inner, const char* indent) {
    std::vector<std::string> sub;
    ExplainPlan(inner, "", params, &sub);
    for (size_t i = 0; i < sub.size(); i++) {
      add(indent + std::string(i == 0 ? "->  " : "    ") + sub[i]);
    }
  };
  if (plan.source != nullptr) {
    add("Custom Scan (Citus INSERT ... SELECT)  Modify on " + plan.modifies +
        " (pull to coordinator)");
    nest(*plan.source, "  ");
    return;
  }
  add(StrFormat("Custom Scan (Citus %s)  Task Count: %zu%s",
                ScanLabel(plan.tier), plan.tasks.size(), cached_tag));
  for (const Stage& stage : plan.stages) {
    add("  " + StageLine(stage));
    if (stage.body != nullptr) nest(*stage.body, "    ");
  }
  if (!plan.modifies.empty()) add("  Modify on " + plan.modifies);
  if (plan.tasks.size() == 1) {
    add("  Task: " + plan.tasks[0].sql);
    add("  Placement: " + plan.tasks[0].worker);
  } else if (!plan.tasks.empty()) {
    add("  Sample Task: " + plan.tasks[0].sql);
  }
  if (plan.merge != nullptr) {
    sql::DeparseOptions opts;
    opts.params = &params;
    add("  Merge: " + sql::DeparseSelect(*plan.merge, opts));
  }
}

engine::QueryResult QueryPlanResult(const std::vector<std::string>& lines) {
  engine::QueryResult out;
  out.column_names = {"QUERY PLAN"};
  out.column_types = {sql::TypeId::kText};
  for (const auto& l : lines) out.rows.push_back({sql::Datum::Text(l)});
  out.command_tag = "EXPLAIN";
  return out;
}

double MsOf(sim::Time t) { return static_cast<double>(t) / 1e6; }

}  // namespace

Result<bool> DistributedPlanner::CheckRelations(const TableAnalysis& analysis) {
  // MX routing gate: a non-authority node may coordinate distributed
  // queries only with a fully synced metadata copy. The shell-registry
  // check closes the wrong-answer hole where a stale copy no longer (or
  // never) lists a distributed table and the statement would otherwise
  // fall through to the empty local shell.
  if (!ext_->IsMetadataAuthority()) {
    bool touches_distributed = analysis.HasCitusTables();
    for (const std::string& name : analysis.local) {
      touches_distributed |= ext_->IsShellTable(name);
    }
    if (touches_distributed && !ext_->MxReady()) {
      return ext_->MxStaleRejection(StrFormat(
          "node %s has no current synced metadata (version %llu, synced "
          "%s, highest observed %llu)",
          ext_->node()->name().c_str(),
          static_cast<unsigned long long>(ext_->metadata().cluster_version()),
          ext_->metadata().mx_synced() ? "yes" : "no",
          static_cast<unsigned long long>(
              ext_->metadata().known_cluster_version())));
    }
  }
  if (!analysis.HasCitusTables()) return false;
  if (!analysis.local.empty()) {
    return Status::NotSupported(
        "joining distributed tables with local tables is not supported");
  }
  return true;
}

Result<std::optional<engine::QueryResult>> DistributedPlanner::PlanAndExecute(
    engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params) {
  CITUSX_ASSIGN_OR_RETURN(std::optional<engine::QueryResult> view,
                          MaybeExecuteStatView(ext_, session, stmt, params));
  if (view.has_value()) return view;
  // MX receiver guard (§3.10): statements arriving from a peer whose synced
  // metadata is older than ours may be routed to shards we no longer hold
  // (e.g. after a move). Reject before any analysis — shard-level SQL does
  // not reference logical tables, so this check is its only protection.
  CITUSX_RETURN_IF_ERROR(ext_->CheckPeerMetadataVersion(session));
  // Plan with the EXPLAIN flags stripped: DML deparsing would otherwise
  // carry the EXPLAIN prefix into the task SQL.
  sql::Statement inner = stmt;
  inner.is_explain = false;
  inner.is_analyze = false;
  const bool explain_only = stmt.is_explain && !stmt.is_analyze;
  std::optional<DistributedPlan> plan;
  int inlined = 0;
  bool cached = false;
  if (stmt.kind == sql::Statement::Kind::kSelect && stmt.select != nullptr &&
      NeedsCteRewrite(ext_->metadata(), *stmt.select)) {
    // CTE / trivial-subquery pass. Must run before AnalyzeTables: a WITH
    // name is not a relation, but table analysis would misread it as a
    // local table and reject the distributed-join combination.
    CITUSX_ASSIGN_OR_RETURN(
        plan, PlanWithCtes(session, *stmt.select, params, &inlined));
  } else {
    TableAnalysis analysis = AnalyzeTables(ext_->metadata(), stmt);
    CITUSX_ASSIGN_OR_RETURN(bool distributed, CheckRelations(analysis));
    if (!distributed) return std::optional<engine::QueryResult>();
    if (explain_only) {
      // "(cached)" marks shapes the session's plan cache would serve
      // without planning (mirrors EXPLAIN's "(cached plan)" note).
      cached = PlanCacheContains(ext_, session, inner, params, analysis);
    } else if (!stmt.is_explain && ext_->config().enable_plan_cache) {
      // Single-shard CRUD statements go through the distributed plan cache:
      // a hit skips planning (binary-search pruning + parameter re-binding),
      // a miss plans once and caches; other shapes plan through the tiers.
      CITUSX_ASSIGN_OR_RETURN(
          plan, PlanFromCache(ext_, session, stmt, params, analysis));
    }
    if (!plan.has_value()) {
      CITUSX_ASSIGN_OR_RETURN(plan, Plan(session, inner, params, analysis));
    }
  }
  if (explain_only) {
    // EXPLAIN renders the plan and dispatches nothing.
    std::vector<std::string> lines;
    ExplainPlan(*plan, cached ? " (cached)" : "", params, &lines);
    return std::optional<engine::QueryResult>(QueryPlanResult(lines));
  }
  if (inlined > 0) ext_->metric_cte_inlined->Inc(inlined);
  if (stmt.is_analyze) {
    CITUSX_ASSIGN_OR_RETURN(
        engine::QueryResult r,
        ExplainAnalyze(session, inner, params, std::move(*plan)));
    return std::optional<engine::QueryResult>(std::move(r));
  }
  sim::Time started = ext_->node()->sim()->now();
  const int64_t dispatched = ext_->SessionState(session).tasks_dispatched;
  const PlannerTier tier = plan->tier;
  CITUSX_ASSIGN_OR_RETURN(engine::QueryResult result,
                          Execute(session, std::move(*plan), params));
  sql::DeparseOptions nopts;
  nopts.normalize = true;
  ext_->RecordStatement(
      sql::DeparseStatement(stmt, nopts), TierLabel(tier),
      ext_->node()->sim()->now() - started,
      ext_->SessionState(session).tasks_dispatched - dispatched);
  return std::optional<engine::QueryResult>(std::move(result));
}

Result<engine::QueryResult> DistributedPlanner::ExplainAnalyze(
    engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params, DistributedPlan plan) {
  sim::Simulation* sim = ext_->node()->sim();
  obs::TraceCollector* tracer = ext_->node()->tracer();
  const int64_t dispatched = ext_->SessionState(session).tasks_dispatched;

  // Root span: the whole distributed query on the coordinator. Its context
  // is planted in the session variable so the adaptive executor parents its
  // task spans under it and propagates them to the workers.
  obs::TraceId trace = 0;
  obs::SpanId root = 0;
  std::string saved_ctx;
  if (tracer != nullptr) {
    trace = tracer->NewTraceId();
    root = tracer->StartSpan(trace, 0, "distributed query",
                             ext_->node()->name(), sim->now());
    sql::DeparseOptions sopts;
    sopts.params = &params;
    tracer->SetAttr(root, "sql", sql::DeparseStatement(stmt, sopts));
    saved_ctx = session.GetVar("citusx.trace_ctx");
    session.SetVar("citusx.trace_ctx", obs::FormatTraceContext(trace, root));
  }

  sim::Time started = sim->now();
  const PlannerTier tier = plan.tier;
  std::vector<std::string> stage_lines;
  for (const Stage& stage : plan.stages) {
    stage_lines.push_back("  " + StageLine(stage));
  }
  Result<engine::QueryResult> result = Execute(session, std::move(plan), params);
  sim::Time elapsed = sim->now() - started;
  if (tracer != nullptr) {
    session.SetVar("citusx.trace_ctx", saved_ctx);
    if (result.ok()) {
      tracer->SetRows(root, result->rows.empty()
                                ? result->rows_affected
                                : static_cast<int64_t>(result->rows.size()));
    }
    tracer->EndSpan(root, sim->now());
  }
  if (!result.ok()) return result.status();

  int64_t root_rows = result->rows.empty()
                          ? result->rows_affected
                          : static_cast<int64_t>(result->rows.size());
  std::vector<std::string> lines;
  auto add = [&](const std::string& s) { lines.push_back(s); };
  add(StrFormat("Custom Scan (Citus %s)  (actual time=%.3f ms, rows=%lld)",
                ScanLabel(tier), MsOf(elapsed),
                static_cast<long long>(root_rows)));
  add(std::string("  Planner Tier: ") + TierLabel(tier));
  for (const std::string& l : stage_lines) add(l);
  if (tracer == nullptr) {
    add(StrFormat("  Task Count: %lld (tracing disabled: node not in a "
                  "cluster)",
                  static_cast<long long>(
                      ext_->SessionState(session).tasks_dispatched -
                      dispatched)));
    return QueryPlanResult(lines);
  }

  // Render the span tree: task spans are children of the root, worker
  // execution spans are children of their task.
  std::vector<obs::Span> spans = tracer->TraceSpans(trace);
  std::map<obs::SpanId, std::vector<const obs::Span*>> children;
  for (const auto& s : spans) {
    if (s.id != root) children[s.parent_id].push_back(&s);
  }
  std::vector<const obs::Span*> task_spans;
  for (const obs::Span* s : children[root]) {
    if (s->name == "task") task_spans.push_back(s);
  }
  add(StrFormat("  Task Count: %zu", task_spans.size()));
  for (const obs::Span* task : task_spans) {
    auto attr = [&](const char* key) -> std::string {
      auto it = task->attrs.find(key);
      return it == task->attrs.end() ? std::string() : it->second;
    };
    std::string group = attr("shard_group");
    add(StrFormat("  ->  Task on %s%s  (time=%.3f ms, rows=%lld)",
                  attr("worker").c_str(),
                  group.empty() ? ""
                                : StrFormat(" (shard group %s)", group.c_str())
                                      .c_str(),
                  MsOf(task->duration()),
                  static_cast<long long>(task->rows)));
    std::string sql = attr("sql");
    if (!sql.empty()) add("        Query: " + sql);
    for (const obs::Span* w : children[task->id]) {
      if (w->name != "worker execution") continue;
      add(StrFormat("        ->  Worker Execution on %s  (time=%.3f ms, "
                    "rows=%lld)",
                    w->node.c_str(), MsOf(w->duration()),
                    static_cast<long long>(w->rows)));
      // Vectorized-executor pipelines nest under the worker execution,
      // each with its morsel/worker fan-out; no pipeline children means
      // the fragment ran on the volcano path.
      for (const obs::Span* p : children[w->id]) {
        if (p->name != "pipeline") continue;
        auto pattr = [&](const char* key) -> std::string {
          auto it = p->attrs.find(key);
          return it == p->attrs.end() ? std::string() : it->second;
        };
        std::string pruned = pattr("pruned_stripes");
        add(StrFormat("              ->  Pipeline [%s]  (time=%.3f ms, "
                      "rows=%lld, morsels=%s, workers=%s%s)",
                      pattr("ops").c_str(), MsOf(p->duration()),
                      static_cast<long long>(p->rows), pattr("morsels").c_str(),
                      pattr("workers").c_str(),
                      pruned.empty()
                          ? ""
                          : StrFormat(", pruned=%s", pruned.c_str()).c_str()));
      }
    }
  }
  return QueryPlanResult(lines);
}

Result<DistributedPlan> DistributedPlanner::Plan(
    engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params, const TableAnalysis& analysis) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return PlanSelect(session, *stmt.select, params, analysis);
    case sql::Statement::Kind::kInsert:
      return stmt.insert->select != nullptr
                 ? PlanInsertSelect(session, *stmt.insert, params)
                 : PlanInsert(*stmt.insert, params);
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete:
      return PlanModify(stmt, params);
    default:
      return Status::Internal("unexpected statement in distributed planner");
  }
}

Result<engine::QueryResult> DistributedPlanner::Execute(
    engine::Session& session, DistributedPlan plan,
    const std::vector<sql::Datum>& params) {
  if (plan.tier == PlannerTier::kJoinOrder && !plan.stages.empty()) {
    ext_->metric_repartition_joins->Inc();
  }
  std::vector<const IntermediateResult*> created;
  Result<engine::QueryResult> result = [&]() -> Result<engine::QueryResult> {
    for (Stage& stage : plan.stages) {
      CITUSX_RETURN_IF_ERROR(RunStage(session, stage, params, &created));
    }
    Result<engine::QueryResult> out = ExecuteTasks(session, plan, params);
    if (!created.empty() && ext_->repartition_fault_hook) {
      Status late = ext_->repartition_fault_hook(
          created.front()->logical, RepartitionPoint::kBeforeCleanup);
      if (out.ok() && !late.ok()) return late;
    }
    return out;
  }();
  for (const IntermediateResult* ir : created) {
    DropIntermediateResult(ext_, session, *ir);
  }
  return result;
}

Result<engine::QueryResult> DistributedPlanner::ExecuteTasks(
    engine::Session& session, DistributedPlan& plan,
    const std::vector<sql::Datum>& params) {
  std::vector<engine::QueryResult> results;
  if (plan.source != nullptr) {
    // INSERT .. SELECT through the coordinator (§3.8): run the SELECT, then
    // COPY its rows into the target table.
    CITUSX_ASSIGN_OR_RETURN(
        engine::QueryResult rows,
        Execute(session, std::move(*plan.source), params));
    std::vector<std::vector<std::string>> text_rows;
    text_rows.reserve(rows.rows.size());
    for (const auto& row : rows.rows) text_rows.push_back(RowToCopyFields(row));
    sql::CopyStmt copy;
    copy.table = plan.modifies;
    copy.columns = plan.copy_columns;
    CITUSX_ASSIGN_OR_RETURN(
        std::optional<engine::QueryResult> copied,
        ProcessDistributedCopy(ext_, session, copy, text_rows));
    if (!copied.has_value()) {
      return Status::Internal("distributed COPY did not handle the target");
    }
    results.push_back(std::move(*copied));
  } else {
    AdaptiveExecutor executor(ext_);
    CITUSX_ASSIGN_OR_RETURN(results,
                            executor.Execute(session, std::move(plan.tasks)));
  }
  engine::QueryResult out;
  switch (plan.step) {
    case CoordinatorStep::kFirstResult:
      out = std::move(results[0]);
      break;
    case CoordinatorStep::kSumRowsAffected:
      for (const auto& r : results) out.rows_affected += r.rows_affected;
      out.command_tag = StrFormat("%s %lld", plan.command.c_str(),
                                  static_cast<long long>(out.rows_affected));
      break;
    case CoordinatorStep::kMerge: {
      engine::TempRelation temp;
      if (!results.empty()) {
        temp.column_types = results[0].column_types;
        for (size_t i = 0; i < results[0].column_names.size(); i++) {
          temp.column_names.push_back(StrFormat("c%zu", i));
        }
      }
      for (auto& r : results) {
        for (auto& row : r.rows) temp.rows.push_back(std::move(row));
      }
      std::map<std::string, const engine::TempRelation*> relations = {
          {kIntermediateName, &temp}};
      for (const auto& [name, rows] : stage_rows_) relations[name] = &rows;
      CITUSX_ASSIGN_OR_RETURN(
          out, engine::RunLocalSelect(session, *plan.merge, params,
                                      &relations));
      const std::vector<std::string>& names =
          plan.column_names.empty() && !results.empty()
              ? results[0].column_names
              : plan.column_names;
      for (size_t i = 0; i < out.column_names.size() && i < names.size();
           i++) {
        if (!names[i].empty()) out.column_names[i] = names[i];
      }
      break;
    }
  }
  if (plan.grows != nullptr) plan.grows->approx_rows += out.rows_affected;
  return out;
}

Result<DistributedPlan> DistributedPlanner::PlanSelect(
    engine::Session& session, const sql::SelectStmt& sel,
    const std::vector<sql::Datum>& params, const TableAnalysis& analysis) {
  DistributedPlan plan;
  sql::DeparseOptions opts;
  opts.params = &params;

  // ---- Tier 1/2: fast path & router ----
  // All distributed tables restricted to the same co-located shard group
  // (restrictions propagate through dist-column equijoins)?
  std::map<const CitusTable*, sql::Datum> restrictions =
      ComputeDistRestrictions(sel, analysis, params);
  bool routable = true;
  int shard_index = -1;
  std::string target_worker;
  for (const auto* t : analysis.distributed) {
    auto rit = restrictions.find(t);
    if (rit == restrictions.end()) {
      routable = false;
      break;
    }
    Result<int> idx = t->ShardIndexForValue(rit->second);
    if (!idx.ok() || (shard_index >= 0 && *idx != shard_index)) {
      routable = false;
      break;
    }
    if (analysis.distributed.size() > 1 &&
        t->colocation_id != analysis.distributed[0]->colocation_id) {
      routable = false;
      break;
    }
    shard_index = *idx;
    target_worker = t->shards[static_cast<size_t>(*idx)].placement;
  }
  // Reference-table-only query: prefer the local replica; when this node
  // holds none (replicas trimmed), route to the first replica holder. Stage
  // relations have no replicas: they are placed where the task runs.
  const std::vector<std::string>* replicas = nullptr;
  for (const auto* t : analysis.reference) {
    if (replicas == nullptr && !t->replica_nodes.empty()) {
      replicas = &t->replica_nodes;
    }
  }
  if (analysis.distributed.empty()) {
    routable = true;
    shard_index = 0;
    target_worker = ext_->node()->name();
    if (replicas != nullptr &&
        std::find(replicas->begin(), replicas->end(), target_worker) ==
            replicas->end()) {
      target_worker = replicas->front();
    }
  }
  if (routable) {
    bool is_fast_path = analysis.distributed.size() == 1 &&
                        analysis.reference.empty() && sel.from.size() == 1 &&
                        sel.from[0]->kind == sql::TableRef::Kind::kTable &&
                        sel.group_by.empty() && sel.having == nullptr;
    plan.tier = is_fast_path ? PlannerTier::kFastPath : PlannerTier::kRouter;
    CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
    auto map = ShardGroupTableMap(analysis, shard_index);
    opts.table_map = &map;
    Task task;
    task.worker = target_worker;
    task.colocation_id = analysis.distributed.empty()
                             ? 0
                             : analysis.distributed[0]->colocation_id;
    task.shard_group = analysis.distributed.empty() ? -1 : shard_index;
    task.sql = sql::DeparseSelect(sel, opts);
    task.is_write = sel.for_update;
    // Reference-table reads can run against any replica: list the other
    // holders as failover targets in case the routed node is down.
    if (analysis.distributed.empty() && replicas != nullptr &&
        !sel.for_update) {
      for (const std::string& replica : *replicas) {
        if (replica != target_worker) {
          task.fallback_workers.push_back(replica);
        }
      }
    }
    plan.tasks.push_back(std::move(task));
    return plan;
  }

  // ---- Tier 3: logical pushdown ----
  std::string reason;
  bool colocated = CheckColocatedJoins(sel, analysis, ext_->metadata(), &reason);
  bool subqueries_safe =
      FromSubqueriesPushdownSafe(sel, ext_->metadata(), &reason);
  if (!colocated || !subqueries_safe || analysis.distributed.empty()) {
    // ---- Tier 4: logical join order (repartition/broadcast) ----
    CITUSX_ASSIGN_OR_RETURN(std::optional<DistributedPlan> join,
                            PlanJoinOrder(session, sel, params, analysis));
    if (!join.has_value()) {
      return Status::NotSupported(
          "cannot plan distributed query: " +
          (reason.empty() ? std::string("unsupported query shape") : reason));
    }
    join->tier = PlannerTier::kJoinOrder;
    CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, join->tier));
    return std::move(*join);
  }
  plan.tier = PlannerTier::kPushdown;
  CITUSX_RETURN_IF_ERROR(ChargeTier(ext_, plan.tier));
  plan.step = CoordinatorStep::kMerge;
  // Determine merge requirements of the top level.
  bool has_agg = !sel.group_by.empty() || sel.having != nullptr;
  for (const auto& t : sel.targets) has_agg |= sql::ContainsAggregate(t.expr);
  bool group_has_dist = false;
  for (const auto& g : sel.group_by) {
    ExprPtr expr = g;
    if (g->kind == ExprKind::kConst && sql::IsIntegral(g->value.type())) {
      int pos = static_cast<int>(g->value.int_value());
      if (pos >= 1 && pos <= static_cast<int>(sel.targets.size())) {
        expr = sel.targets[static_cast<size_t>(pos - 1)].expr;
      }
    }
    group_has_dist |= AnyDistColRef(*expr, analysis) != nullptr;
  }

  SelectStmt worker;
  const bool merge_aggregates = has_agg && !group_has_dist;
  if (merge_aggregates) {
    // Partial aggregation with a coordinator merge step.
    CITUSX_ASSIGN_OR_RETURN(AggSplit split, SplitAggregates(sel));
    worker = std::move(split.worker);
    plan.merge = std::make_shared<SelectStmt>(std::move(split.master));
    plan.column_names = std::move(split.final_names);
  } else {
    // Full pushdown: the worker query is the original query (per shard
    // group); the master concatenates, re-sorts, re-applies LIMIT/DISTINCT.
    worker = *sel.Clone();
    int visible = static_cast<int>(worker.targets.size());
    // ORDER BY must be computable from the worker output: resolve to
    // positions, appending hidden sort targets when necessary.
    std::vector<sql::OrderByItem> master_order;
    for (auto& o : worker.order_by) {
      int slot = -1;
      if (o.expr->kind == ExprKind::kConst &&
          sql::IsIntegral(o.expr->value.type())) {
        slot = static_cast<int>(o.expr->value.int_value()) - 1;
      } else {
        for (int i = 0; i < visible; i++) {
          const auto& t = worker.targets[static_cast<size_t>(i)];
          if ((!t.alias.empty() && o.expr->kind == ExprKind::kColumnRef &&
               o.expr->table.empty() && o.expr->column == t.alias) ||
              engine::ExprEquals(o.expr, t.expr)) {
            slot = i;
            break;
          }
        }
      }
      if (slot < 0) {
        if (worker.distinct) {
          return Status::NotSupported(
              "ORDER BY expressions must appear in the DISTINCT list");
        }
        worker.targets.push_back(sql::SelectItem{o.expr->Clone(), ""});
        slot = static_cast<int>(worker.targets.size()) - 1;
      }
      // A visible slot sorts by output position; a hidden one is not an
      // output column, so the merge sorts by the gathered column itself.
      sql::OrderByItem item;
      item.expr = slot < visible ? sql::MakeConst(sql::Datum::Int8(slot + 1))
                                 : IntermediateCol(slot);
      item.desc = o.desc;
      master_order.push_back(item);
    }
    // Push LIMIT (+offset) to workers; master re-applies exactly.
    sql::EvalContext ec;
    ec.params = &params;
    if (worker.limit != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum lim, sql::Eval(*worker.limit, ec));
      int64_t worker_limit = lim.is_null() ? -1 : lim.AsInt64();
      if (worker.offset != nullptr && worker_limit >= 0) {
        CITUSX_ASSIGN_OR_RETURN(sql::Datum off, sql::Eval(*worker.offset, ec));
        worker_limit += off.is_null() ? 0 : off.AsInt64();
      }
      if (worker_limit >= 0) {
        worker.limit = sql::MakeConst(sql::Datum::Int8(worker_limit));
      }
    }
    worker.offset = nullptr;
    auto master = std::make_shared<SelectStmt>();
    master->from.push_back(std::make_shared<sql::TableRef>());
    master->from[0]->kind = sql::TableRef::Kind::kTable;
    master->from[0]->name = kIntermediateName;
    for (int i = 0; i < visible; i++) {
      master->targets.push_back(sql::SelectItem{IntermediateCol(i), ""});
    }
    master->distinct = sel.distinct;
    master->order_by = master_order;
    master->limit = sel.limit != nullptr ? sel.limit->Clone() : nullptr;
    master->offset = sel.offset != nullptr ? sel.offset->Clone() : nullptr;
    plan.merge = std::move(master);
  }
  const CitusTable* rep = analysis.distributed[0];
  for (size_t i = 0; i < rep->shards.size(); i++) {
    auto map = ShardGroupTableMap(analysis, static_cast<int>(i));
    opts.table_map = &map;
    Task task;
    task.index = static_cast<int>(i);
    task.worker = rep->shards[i].placement;
    task.colocation_id = rep->colocation_id;
    task.shard_group = static_cast<int>(i);
    task.sql = sql::DeparseSelect(worker, opts);
    task.is_write = !merge_aggregates && sel.for_update;
    plan.tasks.push_back(std::move(task));
  }
  return plan;
}

}  // namespace citusx::citus
