// The adaptive executor (paper §3.6.1): executes a distributed plan's tasks
// over per-worker connection pools under a shared connection limit, with
// co-located-shard connection affinity inside transactions. Connection
// admission adapts to the statement: read-only multi-shard fan-out outside
// a transaction block (and not traced) runs on a fixed width of connections
// per worker, each draining its tasks in pipelined round trips; everything
// else gets one connection per task, ramped up through "slow start".
#ifndef CITUSX_CITUS_EXECUTOR_H_
#define CITUSX_CITUS_EXECUTOR_H_

#include <string>
#include <vector>

#include "citus/extension.h"

namespace citusx::citus {

/// One unit of work against one worker: a SQL string (already deparsed with
/// shard names) or a COPY batch.
struct Task {
  int index = 0;  // position of the result in the output vector
  std::string worker;
  int colocation_id = 0;
  int shard_group = -1;  // shard index for connection affinity; -1 = none
  std::string sql;
  bool is_write = false;
  bool is_copy = false;
  /// A write that runs as its own autocommit statement instead of joining
  /// the statement's 2PC transaction block (shuffle tasks: they populate
  /// intermediate results with their own create/drop lifecycle, so atomic
  /// commit across workers buys nothing — matching how Citus runs
  /// repartition fetch tasks outside the coordinated transaction). Keeps
  /// is_write's no-retry/no-failover semantics.
  bool standalone = false;
  std::string copy_table;
  std::vector<std::string> copy_columns;
  std::vector<std::vector<std::string>> copy_rows;
  /// Plan-cache execution via a worker-side prepared statement: when
  /// `prepare_name` is set, the executor sends `prepare_sql` once per
  /// connection (batched with the first EXECUTE in one round trip), then
  /// runs `execute_sql`, letting the worker skip re-parse and re-plan.
  std::string prepare_name;
  std::string prepare_sql;   // PREPARE <name> AS <shard query with $n>
  std::string execute_sql;   // EXECUTE <name>(<param literals>)
  /// Replica nodes this task may fail over to when `worker` is down
  /// (reference-table reads: every replica holds the same placement).
  std::vector<std::string> fallback_workers;
};

class AdaptiveExecutor {
 public:
  explicit AdaptiveExecutor(CitusExtension* ext) : ext_(ext) {}

  /// Execute all tasks; results are returned in task-index order. Worker
  /// transaction blocks are opened when the session is in an explicit
  /// transaction or when multiple write tasks require atomic commit (2PC).
  Result<std::vector<engine::QueryResult>> Execute(engine::Session& session,
                                                   std::vector<Task> tasks);

 private:
  CitusExtension* ext_;
};

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_EXECUTOR_H_
