#include "sql/deparser.h"

#include "common/str.h"

namespace citusx::sql {

namespace {

std::string MapTable(const std::string& name, const DeparseOptions& opts) {
  if (opts.table_map != nullptr) {
    auto it = opts.table_map->find(name);
    if (it != opts.table_map->end()) return it->second;
  }
  return name;
}

const char* BinOpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
    case BinOp::kLike:
      return "LIKE";
    case BinOp::kNotLike:
      return "NOT LIKE";
    case BinOp::kILike:
      return "ILIKE";
    case BinOp::kConcat:
      return "||";
    case BinOp::kJsonGet:
      return "->";
    case BinOp::kJsonGetText:
      return "->>";
  }
  return "?";
}

std::string DeparseTableRef(const TableRef& ref, const DeparseOptions& opts) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      std::string out = MapTable(ref.name, opts);
      if (!ref.alias.empty() && ref.alias != ref.name) {
        out += " AS " + ref.alias;
      } else if (opts.table_map != nullptr && ref.alias.empty() &&
                 out != ref.name) {
        // Keep the logical name visible as an alias so that qualified column
        // references (orders.o_orderkey) still resolve on the worker.
        out += " AS " + ref.name;
      }
      return out;
    }
    case TableRef::Kind::kSubquery: {
      std::string out = "(";
      out += DeparseSelect(*ref.subquery, opts);
      out += ") AS ";
      out += ref.alias;
      return out;
    }
    case TableRef::Kind::kJoin: {
      std::string out = DeparseTableRef(*ref.left, opts);
      out += ref.join_type == JoinType::kLeft ? " LEFT JOIN " : " JOIN ";
      out += DeparseTableRef(*ref.right, opts);
      out += " ON " + DeparseExpr(*ref.on, opts);
      return out;
    }
  }
  return "";
}

}  // namespace

std::string DeparseExpr(const Expr& e, const DeparseOptions& opts) {
  switch (e.kind) {
    case ExprKind::kConst:
      if (opts.normalize) return "?";
      return e.value.ToSqlLiteral();
    case ExprKind::kColumnRef:
      if (!e.table.empty()) return e.table + "." + e.column;
      return e.column;
    case ExprKind::kParam: {
      if (opts.normalize) return "?";
      if (opts.params != nullptr &&
          e.param_index < static_cast<int>(opts.params->size())) {
        return (*opts.params)[static_cast<size_t>(e.param_index)]
            .ToSqlLiteral();
      }
      return StrFormat("$%d", e.param_index + 1);
    }
    case ExprKind::kStar:
      return e.table.empty() ? "*" : e.table + ".*";
    case ExprKind::kBinary: {
      std::string out = "(";
      out += DeparseExpr(*e.args[0], opts);
      out += " ";
      out += BinOpText(e.bin_op);
      out += " ";
      out += DeparseExpr(*e.args[1], opts);
      out += ")";
      return out;
    }
    case ExprKind::kUnary:
      if (e.un_op == UnOp::kNot) {
        return "(NOT " + DeparseExpr(*e.args[0], opts) + ")";
      }
      return "(-" + DeparseExpr(*e.args[0], opts) + ")";
    case ExprKind::kFunc: {
      // extract_year(x) round-trips as a plain function call; the parser's
      // function path accepts it, so no need to reconstruct EXTRACT syntax.
      std::string out = e.func_name + "(";
      for (size_t i = 0; i < e.args.size(); i++) {
        if (i > 0) out += ", ";
        out += e.args[i] ? DeparseExpr(*e.args[i], opts) : "NULL";
      }
      return out + ")";
    }
    case ExprKind::kAgg: {
      std::string out = e.func_name + "(";
      if (e.agg_distinct) out += "DISTINCT ";
      if (e.agg_star) {
        out += "*";
      } else {
        for (size_t i = 0; i < e.args.size(); i++) {
          if (i > 0) out += ", ";
          out += DeparseExpr(*e.args[i], opts);
        }
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t n = e.args.size();
      size_t pairs = e.case_has_else ? (n - 1) / 2 : n / 2;
      for (size_t i = 0; i < pairs; i++) {
        out += " WHEN " + DeparseExpr(*e.args[2 * i], opts);
        out += " THEN " + DeparseExpr(*e.args[2 * i + 1], opts);
      }
      if (e.case_has_else) out += " ELSE " + DeparseExpr(*e.args[n - 1], opts);
      return out + " END";
    }
    case ExprKind::kCast: {
      std::string type_name = TypeName(e.cast_type);
      return "CAST(" + DeparseExpr(*e.args[0], opts) + " AS " + type_name +
             ")";
    }
    case ExprKind::kIn: {
      std::string out = DeparseExpr(*e.args[0], opts) + " IN (";
      for (size_t i = 1; i < e.args.size(); i++) {
        if (i > 1) out += ", ";
        out += DeparseExpr(*e.args[i], opts);
      }
      return "(" + out + "))";
    }
    case ExprKind::kIsNull: {
      std::string out = "(";
      out += DeparseExpr(*e.args[0], opts);
      out += e.is_not_null ? " IS NOT NULL)" : " IS NULL)";
      return out;
    }
  }
  return "";
}

std::string DeparseSelect(const SelectStmt& s, const DeparseOptions& opts) {
  std::string out;
  if (!s.ctes.empty()) {
    out += "WITH ";
    for (size_t i = 0; i < s.ctes.size(); i++) {
      if (i > 0) out += ", ";
      out += s.ctes[i].name + " AS ";
      if (s.ctes[i].hint == CteDef::Hint::kMaterialized) {
        out += "MATERIALIZED ";
      } else if (s.ctes[i].hint == CteDef::Hint::kNotMaterialized) {
        out += "NOT MATERIALIZED ";
      }
      out += "(";
      out += DeparseSelect(*s.ctes[i].query, opts);
      out += ")";
    }
    out += " ";
  }
  out += "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < s.targets.size(); i++) {
    if (i > 0) out += ", ";
    out += DeparseExpr(*s.targets[i].expr, opts);
    if (!s.targets[i].alias.empty()) out += " AS " + s.targets[i].alias;
  }
  if (!s.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < s.from.size(); i++) {
      if (i > 0) out += ", ";
      out += DeparseTableRef(*s.from[i], opts);
    }
  }
  if (s.where) out += " WHERE " + DeparseExpr(*s.where, opts);
  if (!s.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); i++) {
      if (i > 0) out += ", ";
      out += DeparseExpr(*s.group_by[i], opts);
    }
  }
  if (s.having) out += " HAVING " + DeparseExpr(*s.having, opts);
  if (!s.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); i++) {
      if (i > 0) out += ", ";
      out += DeparseExpr(*s.order_by[i].expr, opts);
      if (s.order_by[i].desc) out += " DESC";
    }
  }
  if (s.limit) out += " LIMIT " + DeparseExpr(*s.limit, opts);
  if (s.offset) out += " OFFSET " + DeparseExpr(*s.offset, opts);
  if (s.for_update) out += " FOR UPDATE";
  return out;
}

std::string DeparseStatement(const Statement& stmt,
                             const DeparseOptions& opts) {
  if (stmt.is_explain) {
    Statement inner = stmt;
    inner.is_explain = false;
    inner.is_analyze = false;
    return std::string("EXPLAIN ") + (stmt.is_analyze ? "ANALYZE " : "") +
           DeparseStatement(inner, opts);
  }
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return DeparseSelect(*stmt.select, opts);
    case Statement::Kind::kInsert: {
      const auto& ins = *stmt.insert;
      std::string out = "INSERT INTO " + MapTable(ins.table, opts);
      if (!ins.columns.empty()) {
        out += " (" + JoinStrings(ins.columns, ", ") + ")";
      }
      if (ins.select) {
        out += " " + DeparseSelect(*ins.select, opts);
      } else {
        out += " VALUES ";
        for (size_t r = 0; r < ins.values.size(); r++) {
          if (r > 0) out += ", ";
          out += "(";
          for (size_t i = 0; i < ins.values[r].size(); i++) {
            if (i > 0) out += ", ";
            out += DeparseExpr(*ins.values[r][i], opts);
          }
          out += ")";
        }
      }
      if (ins.on_conflict_do_nothing) out += " ON CONFLICT DO NOTHING";
      return out;
    }
    case Statement::Kind::kUpdate: {
      const auto& up = *stmt.update;
      std::string out = "UPDATE " + MapTable(up.table, opts) + " SET ";
      for (size_t i = 0; i < up.sets.size(); i++) {
        if (i > 0) out += ", ";
        out += up.sets[i].first + " = " + DeparseExpr(*up.sets[i].second, opts);
      }
      if (up.where) out += " WHERE " + DeparseExpr(*up.where, opts);
      return out;
    }
    case Statement::Kind::kDelete: {
      const auto& del = *stmt.del;
      std::string out = "DELETE FROM " + MapTable(del.table, opts);
      if (del.where) out += " WHERE " + DeparseExpr(*del.where, opts);
      return out;
    }
    case Statement::Kind::kCreateTable: {
      const auto& ct = *stmt.create_table;
      std::string out = "CREATE TABLE ";
      if (ct.if_not_exists) out += "IF NOT EXISTS ";
      out += MapTable(ct.table, opts) + " (";
      for (size_t i = 0; i < ct.schema.columns.size(); i++) {
        const auto& c = ct.schema.columns[i];
        if (i > 0) out += ", ";
        out += c.name + " " + TypeName(c.type);
        if (c.not_null && !c.primary_key) out += " NOT NULL";
      }
      if (!ct.primary_key.empty()) {
        out += ", PRIMARY KEY (" + JoinStrings(ct.primary_key, ", ") + ")";
      }
      out += ")";
      if (!ct.access_method.empty() && ct.access_method != "heap") {
        out += " USING " + ct.access_method;
      }
      return out;
    }
    case Statement::Kind::kCreateIndex: {
      const auto& ci = *stmt.create_index;
      std::string out = "CREATE ";
      if (ci.unique) out += "UNIQUE ";
      out += "INDEX ";
      if (ci.if_not_exists) out += "IF NOT EXISTS ";
      // Index names must be rewritten per shard too (same map).
      out += MapTable(ci.index, opts) + " ON " + MapTable(ci.table, opts);
      if (ci.method == IndexMethod::kGinTrgm) out += " USING gin_trgm";
      out += " (";
      if (ci.expression) {
        out += DeparseExpr(*ci.expression, opts);
      } else {
        out += JoinStrings(ci.columns, ", ");
      }
      return out + ")";
    }
    case Statement::Kind::kDropTable: {
      std::string out = "DROP TABLE ";
      if (stmt.drop_table->if_exists) out += "IF EXISTS ";
      return out + MapTable(stmt.drop_table->table, opts);
    }
    case Statement::Kind::kTruncate: {
      std::vector<std::string> names;
      for (const auto& t : stmt.truncate->tables) {
        names.push_back(MapTable(t, opts));
      }
      return "TRUNCATE " + JoinStrings(names, ", ");
    }
    case Statement::Kind::kCopy: {
      std::string out = "COPY " + MapTable(stmt.copy->table, opts);
      if (!stmt.copy->columns.empty()) {
        out += " (" + JoinStrings(stmt.copy->columns, ", ") + ")";
      }
      return out + " FROM STDIN";
    }
    case Statement::Kind::kTxn: {
      switch (stmt.txn->op) {
        case TxnOp::kBegin:
          return "BEGIN";
        case TxnOp::kCommit:
          return "COMMIT";
        case TxnOp::kRollback:
          return "ROLLBACK";
        case TxnOp::kPrepare:
          return "PREPARE TRANSACTION " + QuoteSqlLiteral(stmt.txn->gid);
        case TxnOp::kCommitPrepared:
          return "COMMIT PREPARED " + QuoteSqlLiteral(stmt.txn->gid);
        case TxnOp::kRollbackPrepared:
          return "ROLLBACK PREPARED " + QuoteSqlLiteral(stmt.txn->gid);
      }
      return "";
    }
    case Statement::Kind::kSet:
      return "SET " + stmt.set->name + " = " +
             QuoteSqlLiteral(stmt.set->value);
    case Statement::Kind::kCall: {
      std::string out = "CALL " + stmt.call->procedure + "(";
      for (size_t i = 0; i < stmt.call->args.size(); i++) {
        if (i > 0) out += ", ";
        out += DeparseExpr(*stmt.call->args[i], opts);
      }
      return out + ")";
    }
    case Statement::Kind::kPrepare: {
      const auto& p = *stmt.prepare;
      std::string out = "PREPARE " + p.name;
      if (!p.param_types.empty()) {
        out += " (";
        for (size_t i = 0; i < p.param_types.size(); i++) {
          if (i > 0) out += ", ";
          out += TypeName(p.param_types[i]);
        }
        out += ")";
      }
      return out + " AS " + DeparseStatement(*p.body, opts);
    }
    case Statement::Kind::kExecute: {
      std::string out = "EXECUTE " + stmt.execute->name;
      if (!stmt.execute->args.empty()) {
        out += " (";
        for (size_t i = 0; i < stmt.execute->args.size(); i++) {
          if (i > 0) out += ", ";
          out += DeparseExpr(*stmt.execute->args[i], opts);
        }
        out += ")";
      }
      return out;
    }
    case Statement::Kind::kDeallocate:
      return stmt.deallocate->name.empty()
                 ? "DEALLOCATE ALL"
                 : "DEALLOCATE " + stmt.deallocate->name;
    case Statement::Kind::kDiscard:
      return "DISCARD ALL";
  }
  return "";
}

}  // namespace citusx::sql
