// Distributed plan cache: per-session caching of single-shard CRUD plans
// (the PREPARE/EXECUTE hot path of §3.5's fast-path planner).
//
// Statements are normalized by lifting constants into parameters; the
// normalized deparse is the cache key, and an EXECUTE is looked up the same
// way as raw SQL. A cached entry skips planning on later executions: the
// shard is re-pruned with a binary search over the hash ranges, and the
// shard query is the normalized statement deparsed with the table mapped to
// that shard. When the parameter list is dense it goes out as a worker-side
// prepared statement (PREPARE once per connection, then EXECUTE with the
// bound values), so the worker also skips re-parse and re-plan; otherwise
// the bound values are deparsed into it as literals.
//
// Entries snapshot the metadata generation (metadata.h) and are discarded
// when it moves: DDL, create_distributed_table, shard moves/rebalances, and
// node add/remove all bump it.
#ifndef CITUSX_CITUS_PLANCACHE_H_
#define CITUSX_CITUS_PLANCACHE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "citus/planner.h"
#include "sql/ast.h"

namespace citusx::citus {

/// One cached distributed plan for a normalized single-shard CRUD shape.
struct CachedDistPlan {
  std::string key;          // normalized statement shape (cache map key)
  uint64_t generation = 0;  // metadata generation at build time
  int64_t plan_id = 0;      // globally unique; names worker prepared stmts
  std::string table;        // the distributed table
  int dist_param = -1;  // bound-param index carrying the dist-column value
  bool is_write = false;
  sql::Statement::Kind kind = sql::Statement::Kind::kSelect;
  int num_params = 0;  // caller's $n params + lifted constants

  /// The statement with its constants lifted into $n parameters; every
  /// shard query is deparsed from it.
  std::shared_ptr<const sql::Statement> normalized;

  /// Worker-side prepared statements are usable (parameter indices form a
  /// dense 0..num_params-1 range, so EXECUTE can bind them positionally).
  bool use_prepared = false;
  /// PREPARE statement per shard index, built lazily on first touch.
  std::map<int, std::string> prepare_sql_by_shard;

  std::string PrepareName(int shard_index) const;
};

/// Plan `stmt` through the session's distributed plan cache. Returns
/// nullopt when the statement shape is not cacheable or its distribution
/// value does not route to a shard (the caller falls through to the regular
/// planner tiers); otherwise returns its single-task fast-path plan —
/// building and caching the entry on a miss, re-binding it on a hit.
/// Maintains the citus.plancache.{hit,miss,invalidation} counters and
/// charges the fast-path tier (ChargeTier).
Result<std::optional<DistributedPlan>> PlanFromCache(
    CitusExtension* ext, engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params, const TableAnalysis& analysis);

/// True when a generation-valid cache entry exists for `stmt`'s normalized
/// shape in this session (used to tag EXPLAIN output with "(cached)").
bool PlanCacheContains(CitusExtension* ext, engine::Session& session,
                       const sql::Statement& stmt,
                       const std::vector<sql::Datum>& params,
                       const TableAnalysis& analysis);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_PLANCACHE_H_
