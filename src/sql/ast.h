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

}  // namespace citusx::sql

#endif  // CITUSX_SQL_AST_H_
