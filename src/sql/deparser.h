// Deparser: renders an AST back to SQL text.
//
// This is how the Citus layer talks to worker nodes: a distributed plan's
// tasks are per-shard SQL strings produced by deparsing the original query
// with logical table names rewritten to shard names (e.g. orders ->
// orders_102008), exactly as described in §3.5 of the paper.
#ifndef CITUSX_SQL_DEPARSER_H_
#define CITUSX_SQL_DEPARSER_H_

#include <map>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace citusx::sql {

struct DeparseOptions {
  /// Logical-name -> physical-name rewrites applied to every table reference.
  const std::map<std::string, std::string>* table_map = nullptr;
  /// If set, $n parameters are substituted with these values as literals.
  const std::vector<Datum>* params = nullptr;
  /// Render every constant (and parameter) as '?', producing the normalized
  /// statement shape used as the citus_stat_statements key.
  bool normalize = false;
};

std::string DeparseExpr(const Expr& e, const DeparseOptions& opts = {});
std::string DeparseSelect(const SelectStmt& s, const DeparseOptions& opts = {});
std::string DeparseStatement(const Statement& stmt,
                             const DeparseOptions& opts = {});

}  // namespace citusx::sql

#endif  // CITUSX_SQL_DEPARSER_H_
