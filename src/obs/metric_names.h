// The metrics-name registry: the single place every counter, gauge, and
// histogram name is spelled.
//
// cituslint's `metrics-registry` rule enforces two directions:
//   - every string literal passed to Metrics::counter/gauge/histogram (or
//     CounterValue) anywhere in src/ must appear in this table, so a typo'd
//     name fails lint instead of silently creating a second metric that the
//     stat views never read;
//   - every entry here must be referenced somewhere in src/, so dead names
//     are pruned instead of lingering in dashboards.
//
// Keep one name per line — cituslint parses this array lexically. Names are
// dot-separated, subsystem-first (subsystem.object.event), and durations are
// histograms of virtual nanoseconds.
#ifndef CITUSX_OBS_METRIC_NAMES_H_
#define CITUSX_OBS_METRIC_NAMES_H_

namespace citusx::obs {

inline constexpr const char* kRegisteredMetricNames[] = {
    // storage: buffer pool
    "bufferpool.evictions",
    "bufferpool.hits",
    "bufferpool.misses",
    // citus: two-phase commit
    "citus.2pc.commits",
    "citus.2pc.prepares",
    "citus.2pc.recovered",
    "citus.2pc.single_node_commits",
    // citus: adaptive executor
    "citus.executor.pipeline_batches",
    "citus.executor.pipelined_tasks",
    "citus.executor.pool_growth",
    "citus.executor.tasks",
    // citus: failure hardening
    "citus.failures.failovers",
    "citus.failures.node_down_invalidations",
    "citus.failures.partial_failures",
    "citus.failures.pruned_connections",
    "citus.failures.retries",
    // citus: MX metadata sync
    "citus.mx.delta_syncs",
    "citus.mx.stale_rejections",
    "citus.mx.sync_applied",
    "citus.mx.sync_bytes",
    "citus.mx.sync_failures",
    "citus.mx.sync_rounds",
    // citus: CTE processing (inline vs materialize)
    "citus.cte.inlined",
    "citus.cte.materialized",
    // citus: distributed plan cache
    "citus.plancache.hit",
    "citus.plancache.invalidation",
    "citus.plancache.miss",
    // citus: planner tiers
    "citus.planner.fast_path",
    "citus.planner.join_order",
    "citus.planner.pushdown",
    "citus.planner.router",
    // citus: join-order tier data movement
    "citus.repartition.joins",
    "citus.repartition.moves",
    "citus.repartition.shuffled_bytes",
    // engine: lock manager
    "locks.deadlock_cancels",
    "locks.wait_time",
    "locks.waits",
    // net: simulated wire
    "net.admission_rejected",
    "net.bytes_received",
    "net.bytes_sent",
    "net.connection_drops",
    "net.connections_opened",
    "net.round_trips",
    "net.statement_timeouts",
    // pool: transaction pooler
    "pool.attach_timeouts",
    "pool.attach_wait",
    "pool.attaches",
    "pool.client_sessions",
    "pool.detaches",
    "pool.idle",
    "pool.in_use",
    "pool.poolers",
    "pool.state_replays",
    "pool.waiters",
    // engine: transaction manager
    "txn.aborts",
    "txn.commits",
    "txn.prepares",
};

}  // namespace citusx::obs

#endif  // CITUSX_OBS_METRIC_NAMES_H_
