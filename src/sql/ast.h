// Abstract syntax tree for the SQL dialect (a PostgreSQL subset).
//
// The tree is produced by the parser, consumed by the local planner and by
// the Citus distributed planner, and can be rendered back to SQL text by the
// deparser (with shard-name substitution) for execution on worker nodes.
#ifndef CITUSX_SQL_AST_H_
#define CITUSX_SQL_AST_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sql/datum.h"
#include "sql/types.h"

namespace citusx::sql {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind {
  kConst,      // literal value
  kColumnRef,  // table.column or column
  kParam,      // $n
  kStar,       // * (only in COUNT(*) and SELECT *)
  kBinary,
  kUnary,
  kFunc,       // scalar function call
  kAgg,        // aggregate call
  kCase,       // CASE WHEN ... THEN ... [ELSE ...] END
  kCast,       // expr::type or CAST(expr AS type)
  kIn,         // expr IN (v1, v2, ...)
  kIsNull,     // expr IS [NOT] NULL
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kLike, kNotLike, kILike,
  kConcat,        // ||
  kJsonGet,       // -> (field or element, returns jsonb)
  kJsonGetText,   // ->> (returns text)
};

enum class UnOp { kNot, kNeg };

/// One AST expression node (PostgreSQL-style tagged node).
struct Expr {
  ExprKind kind;

  // kConst
  Datum value;

  // kColumnRef
  std::string table;   // qualifier, may be empty
  std::string column;
  int slot = -1;       // resolved input-row index (set by the binder)

  // kParam
  int param_index = 0;  // 0-based ($1 -> 0)

  // kBinary / kUnary
  BinOp bin_op = BinOp::kEq;
  UnOp un_op = UnOp::kNot;

  // kFunc / kAgg
  std::string func_name;    // lowercased
  bool agg_distinct = false;
  bool agg_star = false;    // count(*)

  // kCast
  TypeId cast_type = TypeId::kNull;

  // kCase: args = [when1, then1, when2, then2, ..., else?]
  bool case_has_else = false;

  // kIsNull
  bool is_not_null = false;  // IS NOT NULL

  // children: kBinary -> [lhs, rhs]; kUnary/kCast -> [child];
  // kIn -> [needle, item1, ...]; kFunc/kAgg -> arguments.
  std::vector<ExprPtr> args;

  ExprPtr Clone() const;
};

// ---- Convenience constructors ----

ExprPtr MakeConst(Datum d);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeParam(int index);
ExprPtr MakeBinary(BinOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeUnary(UnOp op, ExprPtr child);
ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeAgg(std::string name, std::vector<ExprPtr> args,
                bool distinct = false, bool star = false);
ExprPtr MakeCast(ExprPtr child, TypeId type);
ExprPtr MakeStar();

/// Visit every node in an expression tree (pre-order).
void WalkExpr(const ExprPtr& e, const std::function<void(const Expr&)>& fn);

/// Mutable pre-order walk.
void WalkExprMut(ExprPtr& e, const std::function<void(Expr&)>& fn);

/// True if any node in the tree satisfies `pred`.
bool ExprContains(const ExprPtr& e, const std::function<bool(const Expr&)>& pred);

/// True if the tree contains an aggregate call.
bool ContainsAggregate(const ExprPtr& e);

// ---- FROM clause ----

struct SelectStmt;
using SelectPtr = std::shared_ptr<SelectStmt>;

enum class JoinType { kInner, kLeft };

struct TableRef;
using TableRefPtr = std::shared_ptr<TableRef>;

struct TableRef {
  enum class Kind { kTable, kSubquery, kJoin };
  Kind kind = Kind::kTable;

  // kTable
  std::string name;
  std::string alias;  // also used by kSubquery

  // kSubquery
  SelectPtr subquery;

  // kJoin
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr on;

  TableRefPtr Clone() const;
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // output column name; may be empty (derived)
};

struct OrderByItem {
  ExprPtr expr;
  bool desc = false;
};

/// One WITH-clause entry: `name AS [MATERIALIZED | NOT MATERIALIZED] (query)`.
struct CteDef {
  std::string name;
  SelectPtr query;
  /// PostgreSQL 12 inlining hint: kDefault lets the planner decide,
  /// kMaterialized forces an intermediate result, kNotMaterialized forces
  /// folding the CTE into the referencing query.
  enum class Hint { kDefault, kMaterialized, kNotMaterialized };
  Hint hint = Hint::kDefault;
};

struct SelectStmt {
  std::vector<CteDef> ctes;  // WITH clause, in declaration order
  bool distinct = false;
  std::vector<SelectItem> targets;
  std::vector<TableRefPtr> from;  // comma-separated items (implicit cross join)
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  ExprPtr limit;
  ExprPtr offset;
  bool for_update = false;

  SelectPtr Clone() const;
};

// ---- DML / DDL / utility statements ----

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> values;  // VALUES rows
  SelectPtr select;                          // INSERT .. SELECT
  bool on_conflict_do_nothing = false;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> sets;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct CreateTableStmt {
  std::string table;
  Schema schema;
  std::vector<std::string> primary_key;  // composite PK column names
  bool if_not_exists = false;
  std::string access_method;  // "" = heap, "columnar" = columnar storage
};

enum class IndexMethod { kBtree, kGinTrgm };

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::vector<std::string> columns;  // btree key columns
  ExprPtr expression;                // expression index (gin_trgm over text)
  IndexMethod method = IndexMethod::kBtree;
  bool unique = false;
  bool if_not_exists = false;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct TruncateStmt {
  std::vector<std::string> tables;
};

struct CopyStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = all
};

enum class TxnOp {
  kBegin,
  kCommit,
  kRollback,
  kPrepare,          // PREPARE TRANSACTION 'gid'
  kCommitPrepared,   // COMMIT PREPARED 'gid'
  kRollbackPrepared  // ROLLBACK PREPARED 'gid'
};

struct TxnStmt {
  TxnOp op;
  std::string gid;  // for prepared-transaction ops
};

struct SetStmt {
  std::string name;
  std::string value;
};

/// CALL proc(args) — stored procedure invocation (§3.8 delegation).
struct CallStmt {
  std::string procedure;
  std::vector<ExprPtr> args;
};

struct Statement;

/// PREPARE name [(type, ...)] AS <select|insert|update|delete>.
struct PrepareStmt {
  std::string name;
  std::vector<TypeId> param_types;  // declared types; may be empty
  std::shared_ptr<Statement> body;
};

/// EXECUTE name [(arg, ...)].
struct ExecuteStmt {
  std::string name;
  std::vector<ExprPtr> args;
};

/// DEALLOCATE name | DEALLOCATE ALL.
struct DeallocateStmt {
  std::string name;  // empty = ALL
};

/// A parsed SQL statement.
struct Statement {
  enum class Kind {
    kSelect,
    kInsert,
    kUpdate,
    kDelete,
    kCreateTable,
    kCreateIndex,
    kDropTable,
    kTruncate,
    kCopy,
    kTxn,
    kSet,
    kCall,
    kPrepare,     // PREPARE name AS <stmt>
    kExecute,     // EXECUTE name(args)
    kDeallocate,  // DEALLOCATE name
    kDiscard,     // DISCARD ALL — reset session state (pooler reset query)
  };
  Kind kind;

  /// EXPLAIN <statement>: plan and describe instead of executing.
  bool is_explain = false;
  /// EXPLAIN ANALYZE <statement>: execute too, reporting actual timings.
  bool is_analyze = false;

  SelectPtr select;
  std::shared_ptr<InsertStmt> insert;
  std::shared_ptr<UpdateStmt> update;
  std::shared_ptr<DeleteStmt> del;
  std::shared_ptr<CreateTableStmt> create_table;
  std::shared_ptr<CreateIndexStmt> create_index;
  std::shared_ptr<DropTableStmt> drop_table;
  std::shared_ptr<TruncateStmt> truncate;
  std::shared_ptr<CopyStmt> copy;
  std::shared_ptr<TxnStmt> txn;
  std::shared_ptr<SetStmt> set;
  std::shared_ptr<CallStmt> call;
  std::shared_ptr<PrepareStmt> prepare;
  std::shared_ptr<ExecuteStmt> execute;
  std::shared_ptr<DeallocateStmt> deallocate;
};

// ---- Statement walks ----
//
// The one place that knows which FROM items and expression slots a
// statement holds and where a WITH name is in scope. Every pass that asks
// what a statement contains calls these two walks; only the deparser and
// the binder switch on TableRef kinds themselves, because they render and
// bind each kind. They are templates because the distributed planner walks
// every client statement with them.

/// How far a walk goes below the walked SELECT's own FROM tree (its joins,
/// their ON clauses, and its subqueries as items).
enum class Reach {
  kOwnLevel,
  kSubqueries,  // also inside FROM subqueries, at every depth
  kAll,         // also inside WITH bodies, at every depth
};

/// Where a visited FROM item sits: how many FROM subqueries and WITH bodies
/// enclose it, and which WITH names are in scope there. An entry's name is
/// in scope in the entries after it and in its SELECT's FROM; a subquery
/// sees every name its parent sees. A scope lives only while its item is
/// visited.
class FromScope {
 public:
  FromScope(const std::vector<CteDef>* ctes, size_t bound,
            const FromScope* outer, int depth)
      : ctes_(ctes), bound_(bound), outer_(outer), depth_(depth) {}

  /// 0 for the walked SELECT's own FROM items.
  int depth() const { return depth_; }

  /// True when `name` names a WITH entry here rather than a relation.
  bool Binds(const std::string& name) const;

  /// Puts the first `count` entries of this level's WITH list in scope.
  void set_bound(size_t count) { bound_ = count; }

 private:
  const std::vector<CteDef>* ctes_;  // the first bound_ entries are in scope
  size_t bound_;
  const FromScope* outer_;
  int depth_;
};

namespace walk_internal {

template <typename S>
using RefOf = std::conditional_t<std::is_const_v<S>, const TableRef, TableRef>;
template <typename R>
using SelectOf =
    std::conditional_t<std::is_const_v<R>, const SelectStmt, SelectStmt>;

template <typename R, typename Pred>
decltype(auto) Visit(Pred& pred, R& ref, const FromScope& scope) {
  if constexpr (std::is_invocable_v<Pred&, R&, const FromScope&>) {
    return pred(ref, scope);
  } else {
    return pred(ref);
  }
}

template <typename S, typename Pred>
bool AnyInSelect(S& sel, Reach reach, const FromScope* outer, int depth,
                 Pred& pred);

template <typename R, typename Pred>
bool AnyInRef(R& ref, Reach reach, const FromScope& scope, Pred& pred) {
  // The kind is read before the visit, so a visitor that turns a table into
  // a subquery (CTE substitution) is not walked into the body it placed.
  const TableRef::Kind kind = ref.kind;
  if (Visit(pred, ref, scope)) return true;
  switch (kind) {
    case TableRef::Kind::kTable:
      return false;
    case TableRef::Kind::kSubquery:
      return reach != Reach::kOwnLevel && ref.subquery != nullptr &&
             AnyInSelect(static_cast<SelectOf<R>&>(*ref.subquery), reach,
                         &scope, scope.depth() + 1, pred);
    case TableRef::Kind::kJoin:
      return AnyInRef(static_cast<R&>(*ref.left), reach, scope, pred) ||
             AnyInRef(static_cast<R&>(*ref.right), reach, scope, pred);
  }
  return false;
}

template <typename S, typename Pred>
bool AnyInSelect(S& sel, Reach reach, const FromScope* outer, int depth,
                 Pred& pred) {
  FromScope scope(&sel.ctes, 0, outer, depth);
  if (reach == Reach::kAll) {
    for (size_t i = 0; i < sel.ctes.size(); i++) {
      scope.set_bound(i);  // a body sees the entries before it
      if (sel.ctes[i].query != nullptr &&
          AnyInSelect(static_cast<S&>(*sel.ctes[i].query), reach, &scope,
                      depth + 1, pred)) {
        return true;
      }
    }
  }
  scope.set_bound(sel.ctes.size());
  for (const TableRefPtr& f : sel.from) {
    if (f != nullptr &&
        AnyInRef(static_cast<RefOf<S>&>(*f), reach, scope, pred)) {
      return true;
    }
  }
  return false;
}

}  // namespace walk_internal

/// Calls `pred(ref, scope)` (or `pred(ref)`) on the FROM items of `sel` in
/// pre-order until one returns true, and returns whether one did. WITH
/// bodies come first, in declaration order, then the FROM list left to
/// right; a join comes before its left and right children. `reach` says
/// whether subqueries and WITH bodies are entered. The visitor may rewrite
/// the item it is given; the walk enters what the item held before.
template <typename Select, typename Pred>
  requires std::is_same_v<std::remove_const_t<Select>, SelectStmt>
bool AnyFromItem(Select& sel, Reach reach, Pred&& pred) {
  return walk_internal::AnyInSelect(sel, reach, nullptr, 0, pred);
}
/// The same over one FROM item and what it contains (the item at depth 0).
template <typename Pred>
bool AnyFromItem(const TableRef& ref, Reach reach, Pred&& pred) {
  return walk_internal::AnyInRef(ref, reach, FromScope(nullptr, 0, nullptr, 0),
                                 pred);
}

/// AnyFromItem for a visitor that returns nothing: visits every item.
template <typename Select, typename Fn>
void ForEachFromItem(Select& sel, Reach reach, Fn&& fn) {
  AnyFromItem(sel, reach, [&fn](auto& ref, const FromScope& scope) {
    walk_internal::Visit(fn, ref, scope);
    return false;
  });
}

/// Calls `fn(expr)` on every non-null expression slot of `sel`: its targets,
/// the ON of every join in its FROM tree, WHERE, GROUP BY, HAVING, ORDER BY,
/// LIMIT and OFFSET, and, as `reach` asks, the slots of its FROM subqueries
/// and WITH bodies (the bodies first, each subquery where it sits in FROM).
template <typename Fn>
void ForEachExprSlot(const SelectStmt& sel, Reach reach, Fn&& fn) {
  auto slot = [&fn](const ExprPtr& e) {
    if (e != nullptr) fn(e);
  };
  if (reach == Reach::kAll) {
    for (const CteDef& c : sel.ctes) {
      if (c.query != nullptr) ForEachExprSlot(*c.query, reach, fn);
    }
  }
  for (const SelectItem& t : sel.targets) slot(t.expr);
  ForEachFromItem(sel, Reach::kOwnLevel, [&](const TableRef& ref) {
    if (ref.kind == TableRef::Kind::kJoin) {
      slot(ref.on);
    } else if (ref.kind == TableRef::Kind::kSubquery &&
               reach != Reach::kOwnLevel && ref.subquery != nullptr) {
      ForEachExprSlot(*ref.subquery, reach, fn);
    }
  });
  slot(sel.where);
  for (const ExprPtr& g : sel.group_by) slot(g);
  slot(sel.having);
  for (const OrderByItem& o : sel.order_by) slot(o.expr);
  slot(sel.limit);
  slot(sel.offset);
}

/// The same over a statement: a SELECT's slots, an INSERT's VALUES rows and
/// source SELECT, an UPDATE's SET values and WHERE, a DELETE's WHERE.
template <typename Fn>
void ForEachExprSlot(const Statement& stmt, Reach reach, Fn&& fn) {
  auto slot = [&fn](const ExprPtr& e) {
    if (e != nullptr) fn(e);
  };
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      if (stmt.select != nullptr) ForEachExprSlot(*stmt.select, reach, fn);
      return;
    case Statement::Kind::kInsert:
      for (const auto& row : stmt.insert->values) {
        for (const ExprPtr& v : row) slot(v);
      }
      if (stmt.insert->select != nullptr) {
        ForEachExprSlot(*stmt.insert->select, reach, fn);
      }
      return;
    case Statement::Kind::kUpdate:
      for (const auto& set : stmt.update->sets) slot(set.second);
      slot(stmt.update->where);
      return;
    case Statement::Kind::kDelete:
      slot(stmt.del->where);
      return;
    default:
      return;
  }
}

}  // namespace citusx::sql

#endif  // CITUSX_SQL_AST_H_
