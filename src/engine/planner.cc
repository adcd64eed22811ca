#include "engine/planner.h"

#include "engine/hooks.h"

#include <algorithm>
#include <set>

#include "common/str.h"
#include "sql/deparser.h"
#include "sql/parser.h"

namespace citusx::engine {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::TypeId;

// ---- scopes ----

struct ScopeColumn {
  std::string qualifier;  // table alias (or name); empty for derived
  std::string name;
  TypeId type = TypeId::kNull;
};

struct Scope {
  std::vector<ScopeColumn> cols;

  // Returns slot or -1; sets *ambiguous when multiple candidates match.
  int Find(const std::string& qualifier, const std::string& name,
           bool* ambiguous) const {
    int found = -1;
    *ambiguous = false;
    for (size_t i = 0; i < cols.size(); i++) {
      if (!qualifier.empty() && cols[i].qualifier != qualifier) continue;
      if (cols[i].name != name) continue;
      if (found >= 0) {
        *ambiguous = true;
        return found;
      }
      found = static_cast<int>(i);
    }
    return found;
  }

  std::vector<TypeId> Types() const {
    std::vector<TypeId> out;
    for (const auto& c : cols) out.push_back(c.type);
    return out;
  }
};

Scope ConcatScopes(const Scope& a, const Scope& b) {
  Scope out = a;
  out.cols.insert(out.cols.end(), b.cols.begin(), b.cols.end());
  return out;
}

// Bind column references in `e` against `scope`. Column refs inside the tree
// get their slot assigned (previous bindings are overwritten).
Status BindExpr(const ExprPtr& e, const Scope& scope) {
  if (e == nullptr) return Status::OK();
  if (e->kind == ExprKind::kColumnRef) {
    bool ambiguous = false;
    int slot = scope.Find(e->table, e->column, &ambiguous);
    if (ambiguous) {
      return Status::InvalidArgument("column reference is ambiguous: " +
                                     e->column);
    }
    if (slot < 0) {
      return Status::InvalidArgument(
          "column \"" + (e->table.empty() ? e->column
                                          : e->table + "." + e->column) +
          "\" does not exist");
    }
    e->slot = slot;
    return Status::OK();
  }
  if (e->kind == ExprKind::kStar) {
    return Status::InvalidArgument("* is not allowed in this context");
  }
  for (const auto& a : e->args) CITUSX_RETURN_IF_ERROR(BindExpr(a, scope));
  return Status::OK();
}

// True if all column refs in e can be bound in scope (non-mutating check).
bool CanBind(const ExprPtr& e, const Scope& scope) {
  if (e == nullptr) return true;
  bool ok = true;
  sql::WalkExpr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::kColumnRef) {
      bool amb = false;
      if (scope.Find(x.table, x.column, &amb) < 0) ok = false;
    }
  });
  return ok;
}

bool HasColumnRefs(const ExprPtr& e) {
  return sql::ExprContains(
      e, [](const Expr& x) { return x.kind == ExprKind::kColumnRef; });
}

std::string DeriveName(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return e.column;
    case ExprKind::kFunc:
    case ExprKind::kAgg:
      return e.func_name;
    case ExprKind::kCast:
      return DeriveName(*e.args[0]);
    default:
      return "?column?";
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const auto& c : conjuncts) {
    out = out == nullptr ? c : sql::MakeBinary(BinOp::kAnd, out, c);
  }
  return out;
}

// ---- per-table access path selection ----

struct PlannedRel {
  ExecNodePtr node;
  Scope scope;
};

// Referenced columns of a base table (the columns a columnar or
// vectorized heap scan reads): computed from every expression slot of the
// statement's own level, join ONs included, by qualifier/name matching.
std::vector<int> ReferencedColumns(const sql::SelectStmt& stmt,
                                   const std::string& qualifier,
                                   const sql::Schema& schema) {
  std::set<int> used;
  bool star = false;
  sql::ForEachExprSlot(stmt, sql::Reach::kOwnLevel, [&](const ExprPtr& e) {
    sql::WalkExpr(e, [&](const Expr& x) {
      if (x.kind == ExprKind::kStar) star = true;
      if (x.kind == ExprKind::kColumnRef &&
          (x.table.empty() || x.table == qualifier)) {
        int c = schema.FindColumn(x.column);
        if (c >= 0) used.insert(c);
      }
    });
  });
  if (star) return {};  // all columns
  return {used.begin(), used.end()};
}

// Build the best scan for `table` given filter conjuncts bound against its
// scope. Consumes `conjuncts`.
Result<ExecNodePtr> BuildScan(TableInfo* table, const Scope& scope,
                              std::vector<ExprPtr> conjuncts,
                              const std::vector<int>& projection,
                              bool lock_rows, bool emit_rowid) {
  // Classify conjuncts: equality col=value, range on col, like/ilike.
  struct Equality {
    int col;
    ExprPtr value;
    size_t conjunct_idx;
  };
  std::vector<Equality> equalities;
  struct RangeCond {
    int col;
    ExprPtr value;
    BinOp op;
    size_t conjunct_idx;
  };
  std::vector<RangeCond> ranges;
  for (size_t i = 0; i < conjuncts.size(); i++) {
    const ExprPtr& c = conjuncts[i];
    if (c->kind != ExprKind::kBinary) continue;
    BinOp op = c->bin_op;
    bool is_eq = op == BinOp::kEq;
    bool is_range = op == BinOp::kLt || op == BinOp::kLe || op == BinOp::kGt ||
                    op == BinOp::kGe;
    if (!is_eq && !is_range) continue;
    ExprPtr col_side = c->args[0], val_side = c->args[1];
    bool flipped = false;
    if (col_side->kind != ExprKind::kColumnRef ||
        HasColumnRefs(val_side)) {
      std::swap(col_side, val_side);
      flipped = true;
    }
    if (col_side->kind != ExprKind::kColumnRef || HasColumnRefs(val_side)) {
      continue;
    }
    int slot = col_side->slot;
    if (is_eq) {
      equalities.push_back(Equality{slot, val_side, i});
    } else {
      BinOp effective = op;
      if (flipped) {
        // value OP col  ==>  col OP' value
        effective = op == BinOp::kLt   ? BinOp::kGt
                    : op == BinOp::kLe ? BinOp::kGe
                    : op == BinOp::kGt ? BinOp::kLt
                                       : BinOp::kLe;
      }
      ranges.push_back(RangeCond{slot, val_side, effective, i});
    }
  }

  if (!table->is_columnar()) {
    // 1) Longest equality prefix over any B-tree index (unique first).
    IndexInfo* best_index = nullptr;
    std::vector<ExprPtr> best_keys;
    std::set<size_t> best_used;
    int best_score = 0;
    for (const auto& idx : table->indexes) {
      if (idx->btree == nullptr) continue;
      std::vector<ExprPtr> keys;
      std::set<size_t> used;
      for (int key_col : idx->btree->key_columns()) {
        bool found = false;
        for (const auto& eq : equalities) {
          if (eq.col == key_col) {
            keys.push_back(eq.value);
            used.insert(eq.conjunct_idx);
            found = true;
            break;
          }
        }
        if (!found) break;
      }
      if (keys.empty()) continue;
      int score = static_cast<int>(keys.size()) * 2;
      if (idx->unique &&
          keys.size() == idx->btree->key_columns().size()) {
        score += 100;
      }
      if (score > best_score) {
        best_score = score;
        best_index = idx.get();
        best_keys = std::move(keys);
        best_used = std::move(used);
      }
    }
    if (best_index != nullptr) {
      auto scan = std::make_unique<IndexScanNode>();
      scan->table = table;
      scan->index = best_index->btree.get();
      scan->equal_keys = std::move(best_keys);
      // Index entries can be stale (they reference version chains, not
      // versions), so the full predicate is always rechecked.
      scan->filter = AndAll(conjuncts);
      scan->lock_rows = lock_rows;
      scan->emit_rowid = emit_rowid;
      return ExecNodePtr(std::move(scan));
    }
    // 2) Trigram GIN for LIKE/ILIKE '%literal%'.
    for (size_t i = 0; i < conjuncts.size(); i++) {
      const ExprPtr& c = conjuncts[i];
      if (c->kind != ExprKind::kBinary ||
          (c->bin_op != BinOp::kLike && c->bin_op != BinOp::kILike)) {
        continue;
      }
      if (c->args[1]->kind != ExprKind::kConst) continue;
      auto trigrams = storage::GinTrgmIndex::PatternTrigrams(
          c->args[1]->value.ToText());
      if (trigrams.empty()) continue;
      for (const auto& idx : table->indexes) {
        if (idx->gin == nullptr) continue;
        if (!ExprEquals(idx->expression, c->args[0])) continue;
        auto scan = std::make_unique<GinScanNode>();
        scan->table = table;
        scan->index = idx->gin.get();
        scan->pattern = c->args[1];
        scan->filter = AndAll(conjuncts);  // full recheck
        scan->emit_rowid = emit_rowid;
        if (lock_rows) break;  // gin scans don't lock; fall through to seq
        return ExecNodePtr(std::move(scan));
      }
    }
    // 3) Range scan on the first column of an index.
    for (const auto& idx : table->indexes) {
      if (idx->btree == nullptr) continue;
      int first_col = idx->btree->key_columns()[0];
      ExprPtr lo, hi;
      bool lo_inc = true, hi_inc = true;
      std::set<size_t> used;
      for (const auto& r : ranges) {
        if (r.col != first_col) continue;
        if ((r.op == BinOp::kGt || r.op == BinOp::kGe) && lo == nullptr) {
          lo = r.value;
          lo_inc = r.op == BinOp::kGe;
          used.insert(r.conjunct_idx);
        } else if ((r.op == BinOp::kLt || r.op == BinOp::kLe) &&
                   hi == nullptr) {
          hi = r.value;
          hi_inc = r.op == BinOp::kLe;
          used.insert(r.conjunct_idx);
        }
      }
      if (lo == nullptr && hi == nullptr) continue;
      auto scan = std::make_unique<IndexScanNode>();
      scan->table = table;
      scan->index = idx->btree.get();
      scan->range_lo = lo;
      scan->range_hi = hi;
      scan->lo_inclusive = lo_inc;
      scan->hi_inclusive = hi_inc;
      // Keep range conjuncts in the residual too: index entries may be stale.
      scan->filter = AndAll(conjuncts);
      scan->lock_rows = lock_rows;
      scan->emit_rowid = emit_rowid;
      return ExecNodePtr(std::move(scan));
    }
  }
  // 4) Sequential scan.
  auto scan = std::make_unique<SeqScanNode>();
  scan->table = table;
  scan->filter = AndAll(conjuncts);
  scan->lock_rows = lock_rows;
  scan->emit_rowid = emit_rowid;
  scan->projection = projection;
  return ExecNodePtr(std::move(scan));
}

// ---- the planner ----

class SelectPlanner {
 public:
  SelectPlanner(const sql::SelectStmt& stmt, const PlannerInput& input)
      : stmt_(stmt), input_(input) {}

  Result<ExecNodePtr> Plan();

 private:
  Result<PlannedRel> PlanTableRef(const sql::TableRef& ref,
                                  std::vector<ExprPtr>* conjuncts);
  Result<PlannedRel> PlanBaseTable(const sql::TableRef& ref,
                                   std::vector<ExprPtr>* conjuncts);
  Result<PlannedRel> JoinRels(PlannedRel left, PlannedRel right,
                              sql::JoinType type,
                              std::vector<ExprPtr> join_conjuncts);

  // Rewrites expr for evaluation above the aggregation node: group exprs
  // become column refs, aggregate calls get result slots.
  Status RewriteForAgg(const ExprPtr& e, const Scope& input_scope,
                       const std::vector<ExprPtr>& bound_groups,
                       std::vector<AggSpec>* aggs, bool inside_agg);

  const sql::SelectStmt& stmt_;
  const PlannerInput& input_;
};

Result<PlannedRel> SelectPlanner::PlanBaseTable(
    const sql::TableRef& ref, std::vector<ExprPtr>* conjuncts) {
  std::string qualifier = ref.alias.empty() ? ref.name : ref.alias;
  // Temp relations (distributed intermediate results) take precedence.
  if (input_.temp_relations != nullptr) {
    auto it = input_.temp_relations->find(ref.name);
    if (it != input_.temp_relations->end()) {
      const TempRelation* rel = it->second;
      PlannedRel out;
      for (size_t i = 0; i < rel->column_names.size(); i++) {
        out.scope.cols.push_back(
            ScopeColumn{qualifier, rel->column_names[i], rel->column_types[i]});
      }
      auto node = std::make_unique<TempScanNode>();
      node->relation = rel;
      // Pull applicable conjuncts into the scan filter.
      std::vector<ExprPtr> mine;
      for (auto it2 = conjuncts->begin(); it2 != conjuncts->end();) {
        if (CanBind(*it2, out.scope)) {
          CITUSX_RETURN_IF_ERROR(BindExpr(*it2, out.scope));
          mine.push_back(*it2);
          it2 = conjuncts->erase(it2);
        } else {
          ++it2;
        }
      }
      node->filter = AndAll(mine);
      for (const auto& c : out.scope.cols) {
        node->output_names.push_back(c.name);
        node->output_types.push_back(c.type);
      }
      out.node = std::move(node);
      return out;
    }
  }
  CITUSX_ASSIGN_OR_RETURN(TableInfo * table, input_.catalog->Get(ref.name));
  PlannedRel out;
  for (const auto& col : table->schema().columns) {
    out.scope.cols.push_back(ScopeColumn{qualifier, col.name, col.type});
  }
  std::vector<ExprPtr> mine;
  for (auto it = conjuncts->begin(); it != conjuncts->end();) {
    if (CanBind(*it, out.scope)) {
      CITUSX_RETURN_IF_ERROR(BindExpr(*it, out.scope));
      mine.push_back(*it);
      it = conjuncts->erase(it);
    } else {
      ++it;
    }
  }
  std::vector<int> projection =
      ReferencedColumns(stmt_, qualifier, table->schema());
  CITUSX_ASSIGN_OR_RETURN(
      ExecNodePtr node,
      BuildScan(table, out.scope, std::move(mine), projection,
                stmt_.for_update, /*emit_rowid=*/false));
  for (const auto& c : out.scope.cols) {
    node->output_names.push_back(c.name);
    node->output_types.push_back(c.type);
  }
  out.node = std::move(node);
  return out;
}

Result<PlannedRel> SelectPlanner::JoinRels(PlannedRel left, PlannedRel right,
                                           sql::JoinType type,
                                           std::vector<ExprPtr> join_conjuncts) {
  Scope combined = ConcatScopes(left.scope, right.scope);
  // Find equi-join keys: conjunct a = b with a from one side only, b from
  // the other.
  std::vector<ExprPtr> left_keys, right_keys, residual;
  for (const auto& c : join_conjuncts) {
    bool is_equi = false;
    if (c->kind == ExprKind::kBinary && c->bin_op == BinOp::kEq) {
      const ExprPtr& a = c->args[0];
      const ExprPtr& b = c->args[1];
      if (CanBind(a, left.scope) && CanBind(b, right.scope) &&
          HasColumnRefs(a) && HasColumnRefs(b)) {
        CITUSX_RETURN_IF_ERROR(BindExpr(a, left.scope));
        CITUSX_RETURN_IF_ERROR(BindExpr(b, right.scope));
        left_keys.push_back(a);
        right_keys.push_back(b);
        is_equi = true;
      } else if (CanBind(b, left.scope) && CanBind(a, right.scope) &&
                 HasColumnRefs(a) && HasColumnRefs(b)) {
        CITUSX_RETURN_IF_ERROR(BindExpr(b, left.scope));
        CITUSX_RETURN_IF_ERROR(BindExpr(a, right.scope));
        left_keys.push_back(b);
        right_keys.push_back(a);
        is_equi = true;
      }
    }
    if (!is_equi) {
      CITUSX_RETURN_IF_ERROR(BindExpr(c, combined));
      residual.push_back(c);
    }
  }
  PlannedRel out;
  out.scope = combined;
  std::vector<std::string> names;
  std::vector<TypeId> types;
  for (const auto& c : combined.cols) {
    names.push_back(c.name);
    types.push_back(c.type);
  }
  if (!left_keys.empty()) {
    auto join = std::make_unique<HashJoinNode>();
    join->left = std::move(left.node);
    join->right = std::move(right.node);
    join->left_keys = std::move(left_keys);
    join->right_keys = std::move(right_keys);
    join->residual = AndAll(residual);
    join->join_type = type;
    join->output_names = std::move(names);
    join->output_types = std::move(types);
    out.node = std::move(join);
  } else {
    auto join = std::make_unique<NestLoopJoinNode>();
    join->left = std::move(left.node);
    join->right = std::move(right.node);
    join->predicate = AndAll(residual);
    join->join_type = type;
    join->output_names = std::move(names);
    join->output_types = std::move(types);
    out.node = std::move(join);
  }
  return out;
}

Result<PlannedRel> SelectPlanner::PlanTableRef(
    const sql::TableRef& ref, std::vector<ExprPtr>* conjuncts) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      return PlanBaseTable(ref, conjuncts);
    case sql::TableRef::Kind::kSubquery: {
      CITUSX_ASSIGN_OR_RETURN(ExecNodePtr sub,
                              PlanSelect(*ref.subquery, input_));
      PlannedRel out;
      for (size_t i = 0; i < sub->output_names.size(); i++) {
        out.scope.cols.push_back(ScopeColumn{
            ref.alias, sub->output_names[i], sub->output_types[i]});
      }
      // Applicable conjuncts become a FilterNode above the subquery.
      std::vector<ExprPtr> mine;
      for (auto it = conjuncts->begin(); it != conjuncts->end();) {
        if (CanBind(*it, out.scope)) {
          CITUSX_RETURN_IF_ERROR(BindExpr(*it, out.scope));
          mine.push_back(*it);
          it = conjuncts->erase(it);
        } else {
          ++it;
        }
      }
      if (!mine.empty()) {
        auto filter = std::make_unique<FilterNode>();
        filter->predicate = AndAll(mine);
        filter->output_names = sub->output_names;
        filter->output_types = sub->output_types;
        filter->input = std::move(sub);
        sub = std::move(filter);
      }
      out.node = std::move(sub);
      return out;
    }
    case sql::TableRef::Kind::kJoin: {
      CITUSX_ASSIGN_OR_RETURN(PlannedRel left,
                              PlanTableRef(*ref.left, conjuncts));
      // WHERE filters a LEFT JOIN's output, so none of its conjuncts goes
      // below the nullable side: there it would drop rows the join then
      // NULL-extends. They stay for the filter above the join.
      std::vector<ExprPtr> none;
      CITUSX_ASSIGN_OR_RETURN(
          PlannedRel right,
          PlanTableRef(*ref.right, ref.join_type == sql::JoinType::kLeft
                                       ? &none
                                       : conjuncts));
      std::vector<ExprPtr> on_conjuncts;
      SplitConjuncts(ref.on, &on_conjuncts);
      // For INNER joins, WHERE conjuncts spanning both sides can join here.
      if (ref.join_type == sql::JoinType::kInner) {
        Scope combined = ConcatScopes(left.scope, right.scope);
        for (auto it = conjuncts->begin(); it != conjuncts->end();) {
          if (CanBind(*it, combined)) {
            on_conjuncts.push_back(*it);
            it = conjuncts->erase(it);
          } else {
            ++it;
          }
        }
      }
      return JoinRels(std::move(left), std::move(right), ref.join_type,
                      std::move(on_conjuncts));
    }
  }
  return Status::Internal("bad table ref");
}

Status SelectPlanner::RewriteForAgg(const ExprPtr& e, const Scope& input_scope,
                                    const std::vector<ExprPtr>& bound_groups,
                                    std::vector<AggSpec>* aggs,
                                    bool inside_agg) {
  if (e == nullptr) return Status::OK();
  // Whole-subtree match against a GROUP BY expression?
  if (!inside_agg) {
    for (size_t i = 0; i < bound_groups.size(); i++) {
      if (ExprEquals(e, bound_groups[i])) {
        // Rewrite in place into a column ref over the agg output.
        std::string name = DeriveName(*e);
        e->kind = ExprKind::kColumnRef;
        e->args.clear();
        e->table.clear();
        e->column = name;
        e->slot = static_cast<int>(i);
        return Status::OK();
      }
    }
  }
  if (e->kind == ExprKind::kAgg && !inside_agg) {
    // Bind the argument against the pre-aggregation scope and register.
    AggSpec spec;
    spec.func = e->func_name;
    spec.distinct = e->agg_distinct;
    if (!e->agg_star && !e->args.empty()) {
      CITUSX_RETURN_IF_ERROR(BindExpr(e->args[0], input_scope));
      spec.arg = e->args[0];
    }
    // Dedupe identical aggregate calls.
    int found = -1;
    for (size_t i = 0; i < aggs->size(); i++) {
      std::string other =
          (*aggs)[i].func + "/" + ((*aggs)[i].distinct ? "d" : "") +
          ((*aggs)[i].arg != nullptr ? sql::DeparseExpr(*(*aggs)[i].arg) : "*");
      std::string mine = spec.func + "/" + (spec.distinct ? "d" : "") +
                         (spec.arg != nullptr ? sql::DeparseExpr(*spec.arg)
                                              : "*");
      if (other == mine) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      aggs->push_back(spec);
      found = static_cast<int>(aggs->size()) - 1;
    }
    e->slot = static_cast<int>(bound_groups.size()) + found;
    return Status::OK();
  }
  if (e->kind == ExprKind::kColumnRef) {
    if (inside_agg) return BindExpr(e, input_scope);
    return Status::InvalidArgument(
        "column \"" + e->column +
        "\" must appear in the GROUP BY clause or be used in an aggregate "
        "function");
  }
  for (const auto& a : e->args) {
    CITUSX_RETURN_IF_ERROR(RewriteForAgg(a, input_scope, bound_groups, aggs,
                                         inside_agg ||
                                             e->kind == ExprKind::kAgg));
  }
  return Status::OK();
}

Result<ExecNodePtr> SelectPlanner::Plan() {
  // 1. Plan FROM with WHERE conjunct pushdown.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(stmt_.where, &conjuncts);

  PlannedRel rel;
  if (stmt_.from.empty()) {
    rel.node = std::make_unique<OneRowNode>();
  } else {
    CITUSX_ASSIGN_OR_RETURN(rel, PlanTableRef(*stmt_.from[0], &conjuncts));
    for (size_t i = 1; i < stmt_.from.size(); i++) {
      CITUSX_ASSIGN_OR_RETURN(PlannedRel next,
                              PlanTableRef(*stmt_.from[i], &conjuncts));
      // Conjuncts spanning exactly these relations become join conditions.
      Scope combined = ConcatScopes(rel.scope, next.scope);
      std::vector<ExprPtr> joinable;
      for (auto it = conjuncts.begin(); it != conjuncts.end();) {
        if (CanBind(*it, combined)) {
          joinable.push_back(*it);
          it = conjuncts.erase(it);
        } else {
          ++it;
        }
      }
      CITUSX_ASSIGN_OR_RETURN(
          rel, JoinRels(std::move(rel), std::move(next), sql::JoinType::kInner,
                        std::move(joinable)));
    }
  }
  if (!conjuncts.empty()) {
    // Bind leftovers against the full scope (errors if truly unresolvable).
    for (const auto& c : conjuncts) {
      CITUSX_RETURN_IF_ERROR(BindExpr(c, rel.scope));
    }
    auto filter = std::make_unique<FilterNode>();
    filter->predicate = AndAll(conjuncts);
    filter->output_names = rel.node->output_names;
    filter->output_types = rel.node->output_types;
    filter->input = std::move(rel.node);
    rel.node = std::move(filter);
  }

  // 2. Expand SELECT * and clone targets (planning mutates expressions).
  std::vector<sql::SelectItem> targets;
  for (const auto& t : stmt_.targets) {
    if (t.expr->kind == ExprKind::kStar) {
      for (size_t i = 0; i < rel.scope.cols.size(); i++) {
        const auto& c = rel.scope.cols[i];
        if (!t.expr->table.empty() && c.qualifier != t.expr->table) continue;
        sql::SelectItem item;
        item.expr = sql::MakeColumnRef(c.qualifier, c.name);
        item.alias = c.name;
        targets.push_back(std::move(item));
      }
      continue;
    }
    sql::SelectItem item;
    item.expr = t.expr->Clone();
    item.alias = t.alias;
    targets.push_back(std::move(item));
  }

  // 3. Aggregation.
  bool has_agg = !stmt_.group_by.empty();
  for (const auto& t : targets) has_agg = has_agg || sql::ContainsAggregate(t.expr);
  if (stmt_.having != nullptr) has_agg = true;

  Scope project_scope = rel.scope;  // the scope targets are bound against
  ExprPtr having;
  std::vector<TypeId> pre_agg_types = rel.scope.Types();
  if (has_agg) {
    // Resolve GROUP BY items (positional or expressions).
    std::vector<ExprPtr> groups;
    for (const auto& g : stmt_.group_by) {
      ExprPtr expr = g->Clone();
      if (expr->kind == ExprKind::kConst &&
          sql::IsIntegral(expr->value.type())) {
        int pos = static_cast<int>(expr->value.int_value());
        if (pos < 1 || pos > static_cast<int>(targets.size())) {
          return Status::InvalidArgument("GROUP BY position out of range");
        }
        expr = targets[static_cast<size_t>(pos - 1)].expr->Clone();
      }
      CITUSX_RETURN_IF_ERROR(BindExpr(expr, rel.scope));
      groups.push_back(std::move(expr));
    }
    std::vector<AggSpec> aggs;
    for (auto& t : targets) {
      CITUSX_RETURN_IF_ERROR(
          RewriteForAgg(t.expr, rel.scope, groups, &aggs, false));
    }
    if (stmt_.having != nullptr) {
      having = stmt_.having->Clone();
      CITUSX_RETURN_IF_ERROR(
          RewriteForAgg(having, rel.scope, groups, &aggs, false));
    }
    auto agg = std::make_unique<AggNode>();
    agg->group_exprs = groups;
    agg->aggs = aggs;
    // Output layout: group values then agg results.
    Scope agg_scope;
    for (size_t i = 0; i < groups.size(); i++) {
      agg_scope.cols.push_back(
          ScopeColumn{"", StrFormat("g%zu", i),
                      sql::InferType(*groups[i], pre_agg_types)});
    }
    for (size_t i = 0; i < aggs.size(); i++) {
      TypeId t = TypeId::kInt8;
      if (aggs[i].func == "avg") {
        t = TypeId::kFloat8;
      } else if (aggs[i].arg != nullptr) {
        t = sql::InferType(*aggs[i].arg, pre_agg_types);
        if (aggs[i].func == "count") t = TypeId::kInt8;
      }
      agg_scope.cols.push_back(ScopeColumn{"", StrFormat("a%zu", i), t});
    }
    for (const auto& c : agg_scope.cols) {
      agg->output_names.push_back(c.name);
      agg->output_types.push_back(c.type);
    }
    agg->input = std::move(rel.node);
    rel.node = std::move(agg);
    rel.scope = agg_scope;
    project_scope = agg_scope;
  } else {
    for (auto& t : targets) {
      CITUSX_RETURN_IF_ERROR(BindExpr(t.expr, rel.scope));
    }
  }

  if (having != nullptr) {
    auto filter = std::make_unique<FilterNode>();
    filter->predicate = having;
    filter->output_names = rel.node->output_names;
    filter->output_types = rel.node->output_types;
    filter->input = std::move(rel.node);
    rel.node = std::move(filter);
  }

  // 4. Projection (plus hidden sort columns).
  std::vector<ExprPtr> project_exprs;
  std::vector<std::string> project_names;
  std::vector<TypeId> scope_types = project_scope.Types();
  for (const auto& t : targets) {
    project_exprs.push_back(t.expr);
    project_names.push_back(t.alias.empty() ? DeriveName(*t.expr) : t.alias);
  }
  int visible = static_cast<int>(project_exprs.size());

  // Resolve ORDER BY into sort slots over the projection output.
  std::vector<int> sort_slots;
  std::vector<bool> sort_desc;
  for (const auto& item : stmt_.order_by) {
    ExprPtr expr = item.expr->Clone();
    int slot = -1;
    if (expr->kind == ExprKind::kConst && sql::IsIntegral(expr->value.type())) {
      int pos = static_cast<int>(expr->value.int_value());
      if (pos < 1 || pos > visible) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      slot = pos - 1;
    } else if (expr->kind == ExprKind::kColumnRef && expr->table.empty()) {
      for (int i = 0; i < visible; i++) {
        if (project_names[static_cast<size_t>(i)] == expr->column) {
          slot = i;
          break;
        }
      }
    }
    if (slot < 0) {
      for (int i = 0; i < visible; i++) {
        if (ExprEquals(expr, project_exprs[static_cast<size_t>(i)])) {
          slot = i;
          break;
        }
      }
    }
    if (slot < 0) {
      // Hidden sort column computed from the projection input scope.
      if (has_agg) {
        std::vector<AggSpec> dummy;  // new aggs after agg node not allowed
        auto* agg_node = dynamic_cast<AggNode*>(
            having != nullptr
                ? static_cast<FilterNode*>(rel.node.get())->input.get()
                : rel.node.get());
        std::vector<AggSpec>* aggs =
            agg_node != nullptr ? &agg_node->aggs : &dummy;
        CITUSX_RETURN_IF_ERROR(RewriteForAgg(
            expr, project_scope /*unused for agg*/,
            agg_node != nullptr ? agg_node->group_exprs
                                : std::vector<ExprPtr>{},
            aggs, false));
      } else {
        CITUSX_RETURN_IF_ERROR(BindExpr(expr, project_scope));
      }
      if (stmt_.distinct) {
        return Status::NotSupported(
            "ORDER BY expressions must appear in the select list with "
            "DISTINCT");
      }
      project_exprs.push_back(expr);
      project_names.push_back("<sort>");
      slot = static_cast<int>(project_exprs.size()) - 1;
    }
    sort_slots.push_back(slot);
    sort_desc.push_back(item.desc);
  }

  auto project = std::make_unique<ProjectNode>();
  project->exprs = project_exprs;
  for (size_t i = 0; i < project_exprs.size(); i++) {
    project->output_names.push_back(project_names[i]);
    project->output_types.push_back(
        sql::InferType(*project_exprs[i], scope_types));
  }
  project->input = std::move(rel.node);
  ExecNodePtr top = std::move(project);

  if (stmt_.distinct) {
    auto d = std::make_unique<DistinctNode>();
    d->output_names = top->output_names;
    d->output_types = top->output_types;
    d->input = std::move(top);
    top = std::move(d);
  }

  if (!sort_slots.empty()) {
    auto sort = std::make_unique<SortNode>();
    sort->sort_slots = sort_slots;
    sort->desc = sort_desc;
    sort->output_names = top->output_names;
    sort->output_types = top->output_types;
    sort->input = std::move(top);
    top = std::move(sort);
  }
  if (static_cast<int>(top->output_names.size()) > visible) {
    auto strip = std::make_unique<StripColumnsNode>();
    strip->keep = visible;
    strip->output_names.assign(top->output_names.begin(),
                               top->output_names.begin() + visible);
    strip->output_types.assign(top->output_types.begin(),
                               top->output_types.begin() + visible);
    strip->input = std::move(top);
    top = std::move(strip);
  }

  if (stmt_.limit != nullptr || stmt_.offset != nullptr) {
    auto limit = std::make_unique<LimitNode>();
    sql::EvalContext ec;
    ec.params = input_.params;
    if (stmt_.limit != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*stmt_.limit, ec));
      if (!v.is_null()) limit->limit = v.AsInt64();
    }
    if (stmt_.offset != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*stmt_.offset, ec));
      if (!v.is_null()) limit->offset = v.AsInt64();
    }
    limit->output_names = top->output_names;
    limit->output_types = top->output_types;
    limit->input = std::move(top);
    top = std::move(limit);
  }
  return top;
}

}  // namespace

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->args[0], out);
    SplitConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

bool ExprEquals(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return sql::DeparseExpr(*a) == sql::DeparseExpr(*b);
}

Result<ExecNodePtr> PlanSelect(const sql::SelectStmt& stmt,
                               const PlannerInput& input) {
  // Clone first: planning mutates expression slots.
  sql::SelectPtr cloned = stmt.Clone();
  // WITH support by substitution: every CTE folds into its references as a
  // subquery (our dialect has no volatile functions or recursive CTEs, so
  // materialization fences cannot change results — only reuse work, which a
  // single-node plan re-derives instead).
  if (HasCtes(*cloned)) InlineCtes(cloned.get(), nullptr);
  SelectPlanner planner(*cloned, input);
  CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan, planner.Plan());
  // The cloned statement owns expressions referenced by the plan; keep it
  // alive by attaching it. (Simplest ownership: a wrapper node.)
  struct OwnerNode : ExecNode {
    ExecNodePtr inner;
    sql::SelectPtr owned;
    Status Execute(ExecContext& ctx, const RowSink& sink) override {
      return inner->Execute(ctx, sink);
    }
    const ExecNode* explain_child() const override { return inner.get(); }
  };
  auto owner = std::make_unique<OwnerNode>();
  owner->output_names = plan->output_names;
  owner->output_types = plan->output_types;
  owner->inner = std::move(plan);
  owner->owned = std::move(cloned);
  return ExecNodePtr(std::move(owner));
}

Result<QueryResult> ExplainStatement(const sql::Statement& stmt,
                                     const PlannerInput& input) {
  std::string text;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan, PlanSelect(*stmt.select, input));
      text = ExplainPlan(*plan);
      break;
    }
    case sql::Statement::Kind::kInsert:
      text = "Insert on " + stmt.insert->table + "\n";
      if (stmt.insert->select != nullptr) {
        CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan,
                                PlanSelect(*stmt.insert->select, input));
        text += ExplainPlan(*plan);
      }
      break;
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete: {
      // Describe the qualifying scan by planning the WHERE as a SELECT.
      const std::string& table = stmt.kind == sql::Statement::Kind::kUpdate
                                     ? stmt.update->table
                                     : stmt.del->table;
      const sql::ExprPtr& where = stmt.kind == sql::Statement::Kind::kUpdate
                                      ? stmt.update->where
                                      : stmt.del->where;
      text = (stmt.kind == sql::Statement::Kind::kUpdate ? "Update on "
                                                         : "Delete on ") +
             table + "\n";
      sql::SelectStmt sel;
      sel.targets.push_back(sql::SelectItem{sql::MakeStar(), ""});
      auto ref = std::make_shared<sql::TableRef>();
      ref->kind = sql::TableRef::Kind::kTable;
      ref->name = table;
      sel.from.push_back(ref);
      sel.where = where;
      CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan, PlanSelect(sel, input));
      text += ExplainPlan(*plan);
      break;
    }
    default:
      return Status::NotSupported("EXPLAIN supports SELECT/DML only");
  }
  QueryResult out;
  out.column_names = {"QUERY PLAN"};
  out.column_types = {sql::TypeId::kText};
  for (const auto& line : SplitString(text, '\n')) {
    if (!line.empty()) out.rows.push_back({sql::Datum::Text(line)});
  }
  out.command_tag = "EXPLAIN";
  return out;
}

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const PlannerInput& input, ExecContext& ctx) {
  // A generic (cached) plan for a prepared statement skips the full planner
  // cost; only parameter binding is charged (PostgreSQL plancache analog).
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(
      input.cached_plan ? ctx.cost->plan_cached_bind : ctx.cost->plan_local));
  CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan, PlanSelect(stmt, input));
  // The batch (vectorized) executor gets first claim on the planned tree;
  // it declines plan shapes it does not cover (nullopt), leaving the
  // volcano path below as both the fallback and the differential oracle.
  if (ctx.vectorize && ctx.batch_exec != nullptr && *ctx.batch_exec) {
    CITUSX_ASSIGN_OR_RETURN(std::optional<QueryResult> batched,
                            (*ctx.batch_exec)(*plan, ctx));
    if (batched.has_value()) return std::move(*batched);
  }
  return CollectRows(*plan, ctx);
}

Status CoerceRowToSchema(const sql::Schema& schema, sql::Row* row) {
  for (size_t i = 0; i < row->size(); i++) {
    const auto& col = schema.columns[i];
    sql::Datum& d = (*row)[i];
    if (d.is_null()) {
      if (col.not_null) {
        return Status::InvalidArgument(
            "null value in column \"" + col.name + "\" violates not-null "
            "constraint");
      }
      continue;
    }
    if (d.type() != col.type) {
      CITUSX_ASSIGN_OR_RETURN(d, d.CastTo(col.type));
    }
  }
  return Status::OK();
}

Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                  const PlannerInput& input, ExecContext& ctx) {
  CITUSX_ASSIGN_OR_RETURN(TableInfo * table, input.catalog->Get(stmt.table));
  const sql::Schema& schema = table->schema();
  // Map provided columns to schema positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (int i = 0; i < schema.num_columns(); i++) positions.push_back(i);
  } else {
    for (const auto& c : stmt.columns) {
      int pos = schema.FindColumn(c);
      if (pos < 0) {
        return Status::InvalidArgument("column \"" + c + "\" does not exist");
      }
      positions.push_back(pos);
    }
  }
  // Table-level shared lock (DDL excludes DML).
  CITUSX_RETURN_IF_ERROR(
      ctx.locks->Acquire(LockTag{table->oid, LockTag::kTableRid}, ctx.txn,
                         LockMode::kShared));

  auto make_full_row = [&](sql::Row provided) -> Result<sql::Row> {
    sql::Row full(static_cast<size_t>(schema.num_columns()));
    std::vector<bool> set(static_cast<size_t>(schema.num_columns()), false);
    for (size_t i = 0; i < positions.size(); i++) {
      full[static_cast<size_t>(positions[i])] = std::move(provided[i]);
      set[static_cast<size_t>(positions[i])] = true;
    }
    for (int i = 0; i < schema.num_columns(); i++) {
      if (set[static_cast<size_t>(i)]) continue;
      const auto& col = schema.columns[static_cast<size_t>(i)];
      if (!col.default_expr.empty()) {
        CITUSX_ASSIGN_OR_RETURN(sql::ExprPtr def,
                                sql::ParseExpression(col.default_expr));
        auto ec = ctx.EvalCtx(nullptr);
        CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*def, ec));
        full[static_cast<size_t>(i)] = std::move(v);
      }
    }
    CITUSX_RETURN_IF_ERROR(CoerceRowToSchema(schema, &full));
    return full;
  };

  int64_t inserted_count = 0;
  if (stmt.select != nullptr) {
    CITUSX_ASSIGN_OR_RETURN(ExecNodePtr plan, PlanSelect(*stmt.select, input));
    CITUSX_RETURN_IF_ERROR(
        plan->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
          if (row.size() != positions.size()) {
            return Status::InvalidArgument(
                "INSERT has a different number of target columns");
          }
          CITUSX_ASSIGN_OR_RETURN(sql::Row full, make_full_row(std::move(row)));
          bool inserted = false;
          CITUSX_RETURN_IF_ERROR(InsertRowWithIndexes(
              ctx, table, std::move(full), stmt.on_conflict_do_nothing,
              &inserted));
          if (inserted) inserted_count++;
          return true;
        }));
  } else {
    for (const auto& value_row : stmt.values) {
      if (value_row.size() != positions.size()) {
        return Status::InvalidArgument(
            "INSERT has a different number of target columns");
      }
      sql::Row provided;
      auto ec = ctx.EvalCtx(nullptr);
      for (const auto& e : value_row) {
        CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*e, ec));
        provided.push_back(std::move(v));
      }
      CITUSX_ASSIGN_OR_RETURN(sql::Row full, make_full_row(std::move(provided)));
      bool inserted = false;
      CITUSX_RETURN_IF_ERROR(InsertRowWithIndexes(
          ctx, table, std::move(full), stmt.on_conflict_do_nothing, &inserted));
      if (inserted) inserted_count++;
    }
  }
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  QueryResult result;
  result.rows_affected = inserted_count;
  result.command_tag = StrFormat("INSERT 0 %lld",
                                 static_cast<long long>(inserted_count));
  return result;
}

namespace {

// Plan the target-table scan for UPDATE/DELETE: locked, with rowid.
Result<ExecNodePtr> PlanDmlScan(TableInfo* table, const sql::ExprPtr& where) {
  std::vector<sql::ExprPtr> conjuncts;
  sql::ExprPtr where_clone = where != nullptr ? where->Clone() : nullptr;
  SplitConjuncts(where_clone, &conjuncts);
  // Bind conjuncts against the table scope.
  sql::Schema const& schema = table->schema();
  for (auto& c : conjuncts) {
    Status st = Status::OK();
    sql::WalkExprMut(c, [&](sql::Expr& x) {
      if (x.kind == sql::ExprKind::kColumnRef) {
        int pos = schema.FindColumn(x.column);
        if (pos < 0) {
          st = Status::InvalidArgument("column \"" + x.column +
                                       "\" does not exist");
        }
        x.slot = pos;
      }
    });
    CITUSX_RETURN_IF_ERROR(st);
  }
  // Index selection: equality on any btree prefix.
  for (const auto& idx : table->indexes) {
    if (idx->btree == nullptr) continue;
    std::vector<sql::ExprPtr> keys;
    std::set<size_t> used;
    for (int key_col : idx->btree->key_columns()) {
      bool found = false;
      for (size_t i = 0; i < conjuncts.size(); i++) {
        const auto& c = conjuncts[i];
        if (c->kind != sql::ExprKind::kBinary || c->bin_op != sql::BinOp::kEq) {
          continue;
        }
        sql::ExprPtr col_side = c->args[0], val_side = c->args[1];
        if (col_side->kind != sql::ExprKind::kColumnRef ||
            HasColumnRefs(val_side)) {
          std::swap(col_side, val_side);
        }
        if (col_side->kind != sql::ExprKind::kColumnRef ||
            HasColumnRefs(val_side)) {
          continue;
        }
        if (col_side->slot == key_col) {
          keys.push_back(val_side);
          used.insert(i);
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    if (keys.empty()) continue;
    auto scan = std::make_unique<IndexScanNode>();
    scan->table = table;
    scan->index = idx->btree.get();
    scan->equal_keys = std::move(keys);
    // Full recheck: index entries may be stale.
    sql::ExprPtr res;
    for (const auto& r : conjuncts) {
      res = res == nullptr ? r : sql::MakeBinary(sql::BinOp::kAnd, res, r);
    }
    scan->filter = res;
    scan->lock_rows = true;
    scan->emit_rowid = true;
    return ExecNodePtr(std::move(scan));
  }
  auto scan = std::make_unique<SeqScanNode>();
  scan->table = table;
  sql::ExprPtr all;
  for (const auto& c : conjuncts) {
    all = all == nullptr ? c : sql::MakeBinary(sql::BinOp::kAnd, all, c);
  }
  scan->filter = all;
  scan->lock_rows = true;
  scan->emit_rowid = true;
  return ExecNodePtr(std::move(scan));
}

}  // namespace

Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt,
                                  const PlannerInput& input, ExecContext& ctx) {
  CITUSX_ASSIGN_OR_RETURN(TableInfo * table, input.catalog->Get(stmt.table));
  if (table->is_columnar()) {
    return Status::NotSupported("UPDATE is not supported on columnar tables");
  }
  const sql::Schema& schema = table->schema();
  CITUSX_RETURN_IF_ERROR(
      ctx.locks->Acquire(LockTag{table->oid, LockTag::kTableRid}, ctx.txn,
                         LockMode::kShared));
  // Bind SET expressions against the table scope.
  std::vector<std::pair<int, sql::ExprPtr>> sets;
  for (const auto& [col, expr] : stmt.sets) {
    int pos = schema.FindColumn(col);
    if (pos < 0) {
      return Status::InvalidArgument("column \"" + col + "\" does not exist");
    }
    sql::ExprPtr bound = expr->Clone();
    Status st = Status::OK();
    sql::WalkExprMut(bound, [&](sql::Expr& x) {
      if (x.kind == sql::ExprKind::kColumnRef) {
        int p = schema.FindColumn(x.column);
        if (p < 0) {
          st = Status::InvalidArgument("column \"" + x.column +
                                       "\" does not exist");
        }
        x.slot = p;
      }
    });
    CITUSX_RETURN_IF_ERROR(st);
    sets.emplace_back(pos, std::move(bound));
  }
  CITUSX_ASSIGN_OR_RETURN(ExecNodePtr scan,
                          PlanDmlScan(table, stmt.where));
  // Collect matching (row, rid) pairs first, then apply.
  std::vector<std::pair<sql::Row, storage::RowId>> matches;
  CITUSX_RETURN_IF_ERROR(scan->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    storage::RowId rid = static_cast<storage::RowId>(row.back().int_value());
    row.pop_back();
    matches.emplace_back(std::move(row), rid);
    return true;
  }));
  int64_t updated = 0;
  for (auto& [row, rid] : matches) {
    sql::Row new_row = row;
    auto ec = ctx.EvalCtx(&row);
    for (const auto& [pos, expr] : sets) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*expr, ec));
      new_row[static_cast<size_t>(pos)] = std::move(v);
    }
    CITUSX_RETURN_IF_ERROR(CoerceRowToSchema(schema, &new_row));
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_insert));
    CITUSX_RETURN_IF_ERROR(table->heap->TouchRow(rid, /*dirty=*/true)
                               ? Status::OK()
                               : Status::Cancelled("simulation stopping"));
    CITUSX_RETURN_IF_ERROR(
        table->heap->UpdateRow(rid, new_row, ctx.txn, *ctx.txns));
    CITUSX_RETURN_IF_ERROR(IndexNewVersion(ctx, table, rid, row, new_row));
    updated++;
  }
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  QueryResult result;
  result.rows_affected = updated;
  result.command_tag = StrFormat("UPDATE %lld", static_cast<long long>(updated));
  return result;
}

Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt,
                                  const PlannerInput& input, ExecContext& ctx) {
  CITUSX_ASSIGN_OR_RETURN(TableInfo * table, input.catalog->Get(stmt.table));
  if (table->is_columnar()) {
    return Status::NotSupported("DELETE is not supported on columnar tables");
  }
  CITUSX_RETURN_IF_ERROR(
      ctx.locks->Acquire(LockTag{table->oid, LockTag::kTableRid}, ctx.txn,
                         LockMode::kShared));
  CITUSX_ASSIGN_OR_RETURN(ExecNodePtr scan,
                          PlanDmlScan(table, stmt.where));
  std::vector<storage::RowId> rids;
  CITUSX_RETURN_IF_ERROR(scan->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    rids.push_back(static_cast<storage::RowId>(row.back().int_value()));
    return true;
  }));
  int64_t deleted = 0;
  for (storage::RowId rid : rids) {
    CITUSX_RETURN_IF_ERROR(table->heap->TouchRow(rid, /*dirty=*/true)
                               ? Status::OK()
                               : Status::Cancelled("simulation stopping"));
    CITUSX_RETURN_IF_ERROR(table->heap->DeleteRow(rid, ctx.txn, *ctx.txns));
    deleted++;
  }
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  QueryResult result;
  result.rows_affected = deleted;
  result.command_tag =
      StrFormat("DELETE %lld", static_cast<long long>(deleted));
  return result;
}

}  // namespace citusx::engine
