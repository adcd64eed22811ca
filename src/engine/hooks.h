// The extension hook API (paper §3.1). The Citus layer installs itself into
// a node exclusively through these seams, mirroring PostgreSQL's extension
// points:
//  - planner hook        -> planner_hook (may take over SELECT/DML planning;
//                           stands in for planner_hook + CustomScan)
//  - utility hook        -> utility_hook (DDL) and copy_hook (COPY)
//  - transaction callbacks -> pre_commit / post_commit / post_abort
//  - UDFs                -> udfs registry (callable from SELECT)
//  - CALL handler        -> call_hook (stored-procedure delegation)
//  - background workers  -> background_workers (maintenance daemon)
#ifndef CITUSX_ENGINE_HOOKS_H_
#define CITUSX_ENGINE_HOOKS_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/exec.h"
#include "sql/ast.h"

namespace citusx::engine {

class Session;
class Node;

/// A user-defined function callable as SELECT f(args).
using Udf =
    std::function<Result<sql::Datum>(Session&, const std::vector<sql::Datum>&)>;

/// A stored procedure callable as CALL p(args).
using Procedure = std::function<Result<QueryResult>(
    Session&, const std::vector<sql::Datum>&)>;

struct ExtensionHooks {
  /// Consulted before local planning of SELECT/INSERT/UPDATE/DELETE.
  /// Return a result to take over; nullopt to fall through.
  std::function<Result<std::optional<QueryResult>>(
      Session&, const sql::Statement&, const std::vector<sql::Datum>&)>
      planner_hook;

  /// Consulted for DDL/TRUNCATE utility statements.
  std::function<Result<std::optional<QueryResult>>(Session&,
                                                   const sql::Statement&)>
      utility_hook;

  /// Consulted for COPY with the already-framed input rows.
  std::function<Result<std::optional<QueryResult>>(
      Session&, const sql::CopyStmt&,
      const std::vector<std::vector<std::string>>&)>
      copy_hook;

  /// Consulted for CALL (stored-procedure delegation, §3.8).
  std::function<Result<std::optional<QueryResult>>(
      Session&, const sql::CallStmt&, const std::vector<sql::Datum>&)>
      call_hook;

  /// Transaction callbacks (§3.7). pre_commit failing aborts the local
  /// transaction.
  std::function<Status(Session&)> pre_commit;
  std::function<void(Session&)> post_commit;
  std::function<void(Session&)> post_abort;

  /// Fired when the node comes back up after a crash (Node::Restart), so
  /// an extension can invalidate state it must not trust across a restart
  /// (e.g. the Citus MX synced-metadata marker).
  std::function<void(Node&)> on_restart;

  /// SELECT-able UDFs (create_distributed_table etc.).
  std::map<std::string, Udf> udfs;

  /// Background workers started with the node (maintenance daemon).
  std::vector<std::pair<std::string, std::function<void(Node&)>>>
      background_workers;
};

// ---------------------------------------------------------------------------
// Extension support API.
//
// Everything an extension may call back into the engine for lives here; the
// Citus layer includes engine/hooks.h and nothing else from engine/ (the
// layering rule is enforced by tools/cituslint). When an extension needs a
// new engine capability, extend this surface rather than reaching into
// engine internals.

/// Split an expression into top-level AND conjuncts.
void SplitConjuncts(const sql::ExprPtr& e, std::vector<sql::ExprPtr>* out);

/// Structural expression equality (by deparse text).
bool ExprEquals(const sql::ExprPtr& a, const sql::ExprPtr& b);

/// Fold WITH-clause entries into the queries that reference them, turning
/// each reference into a FROM subquery (pg12 cte_inline.c semantics for a
/// dialect without volatile functions or recursive CTEs). Applied recursively
/// through subqueries and nested CTE bodies; `should_inline` selects which
/// definitions fold (inline everything by passing nullptr). Definitions that
/// fold are removed from their WITH list; the rest stay, in order, with
/// already-inlined earlier siblings substituted into their bodies. Returns
/// the number of definitions inlined.
int InlineCtes(sql::SelectStmt* stmt,
               const std::function<bool(const sql::CteDef&)>& should_inline);

/// True for `SELECT * FROM t` with nothing else: the shape produced by
/// mechanical query generators and view expansions, safe to collapse into a
/// direct table reference.
bool IsTrivialWrapper(const sql::SelectStmt& s);

/// Flatten trivial FROM subqueries — `(SELECT * FROM t) AS x` with no
/// WHERE/GROUP BY/HAVING/ORDER BY/LIMIT/OFFSET/DISTINCT/WITH — into direct
/// table references that keep the subquery alias. Applied through every
/// subquery and WITH body; a pulled-up reference keeps its alias, so it never
/// makes the subquery around it trivial in turn. Returns the number of
/// subqueries pulled up.
int PullUpTrivialSubqueries(sql::SelectStmt* stmt);

/// True if `stmt` or any nested subquery/CTE body carries a WITH clause.
bool HasCtes(const sql::SelectStmt& stmt);

/// Plan and run a SELECT against the local engine inside the session's
/// current transaction. `temp_relations` (optional) are in-memory relations
/// resolvable by name before the catalog — how extensions execute a "master
/// query" over gathered intermediate results (pg: reading a tuplestore
/// behind a scan node).
Result<QueryResult> RunLocalSelect(
    Session& session, const sql::SelectStmt& stmt,
    const std::vector<sql::Datum>& params,
    const std::map<std::string, const TempRelation*>* temp_relations = nullptr);

// The batch-executor seam: an extension layer (src/exec, installed by the
// Citus extension) may register a BatchExecutor on a Node
// (Node::set_batch_executor); local SELECT execution then offers every
// planned tree to it before falling back to the volcano path. Like the Citus
// layer, src/exec includes engine/hooks.h and nothing else from engine/.

}  // namespace citusx::engine

// The Session and Node surfaces are part of the extension-visible API: every
// hook receives a Session&, and background workers receive a Node&. Pulled in
// at the end (not the top) because engine/node.h itself includes this header
// — Node holds an ExtensionHooks by value, so the struct definition above
// must come first on that inclusion path.
#include "engine/session.h"  // also provides engine/node.h

#endif  // CITUSX_ENGINE_HOOKS_H_
