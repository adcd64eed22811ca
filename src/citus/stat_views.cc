// Observability views (obs subsystem SQL surface): citus_stat_statements
// and citus_stat_activity. Both are materialized on demand as in-memory
// relations and fed through the local planner, so arbitrary WHERE / ORDER
// BY / aggregation works against them.
#include <set>

#include "citus/plancache.h"
#include "citus/planner.h"
#include "engine/hooks.h"
#include "sim/fault.h"

namespace citusx::citus {

namespace {

constexpr const char* kStatStatements = "citus_stat_statements";
constexpr const char* kStatActivity = "citus_stat_activity";
constexpr const char* kStatPlanCache = "citus_stat_plan_cache";
constexpr const char* kStatFailures = "citus_stat_failures";
constexpr const char* kStatMetadataSync = "citus_stat_metadata_sync";
constexpr const char* kStatPools = "citus_stat_pools";

engine::TempRelation BuildStatStatements(CitusExtension* ext) {
  engine::TempRelation rel;
  rel.column_names = {"query",         "tier",        "calls",
                      "total_time_ms", "p95_time_ms", "shards_hit"};
  rel.column_types = {sql::TypeId::kText,   sql::TypeId::kText,
                      sql::TypeId::kInt8,   sql::TypeId::kFloat8,
                      sql::TypeId::kFloat8, sql::TypeId::kInt8};
  for (const auto& [query, e] : ext->stat_statements()) {
    rel.rows.push_back(
        {sql::Datum::Text(query), sql::Datum::Text(e.tier),
         sql::Datum::Int8(e.calls),
         sql::Datum::Float8(static_cast<double>(e.time.sum()) / 1e6),
         sql::Datum::Float8(static_cast<double>(e.time.Percentile(95)) / 1e6),
         sql::Datum::Int8(e.shards_hit)});
  }
  return rel;
}

// Transaction-pool telemetry for one node, read from the generic "pool.*"
// metric names every pooler registers on its server node (src/pool). Going
// through the metrics snapshot rather than pool headers keeps this layer
// below src/pool in the dependency DAG and skips nodes that never had a
// pool without creating metrics as a side effect.
struct PoolSample {
  bool present = false;
  int64_t poolers = 0, sessions = 0, in_use = 0, idle = 0, waiters = 0;
  int64_t attaches = 0, detaches = 0, replays = 0, timeouts = 0;
  double wait_p99_ms = 0;
};

PoolSample SamplePool(engine::Node* node) {
  PoolSample s;
  for (const obs::MetricSample& m : node->metrics().Snapshot()) {
    if (m.name.rfind("pool.", 0) != 0) continue;
    s.present = true;
    if (m.name == "pool.poolers") s.poolers = m.value;
    else if (m.name == "pool.client_sessions") s.sessions = m.value;
    else if (m.name == "pool.in_use") s.in_use = m.value;
    else if (m.name == "pool.idle") s.idle = m.value;
    else if (m.name == "pool.waiters") s.waiters = m.value;
    else if (m.name == "pool.attaches") s.attaches = m.value;
    else if (m.name == "pool.detaches") s.detaches = m.value;
    else if (m.name == "pool.state_replays") s.replays = m.value;
    else if (m.name == "pool.attach_timeouts") s.timeouts = m.value;
    else if (m.name == "pool.attach_wait")
      s.wait_p99_ms = static_cast<double>(m.p99) / 1e6;
  }
  return s;
}

// One row per node fronted by a transaction pooler: connection accounting
// (in-use / idle / queued waiters), attach churn, session-state replays,
// deadline timeouts, and the p99 attach wait.
engine::TempRelation BuildStatPools(CitusExtension* ext) {
  engine::TempRelation rel;
  rel.column_names = {"node_name", "poolers",         "client_sessions",
                      "in_use",    "idle",            "waiters",
                      "attaches",  "detaches",        "state_replays",
                      "attach_timeouts",              "wait_p99_ms"};
  rel.column_types = {sql::TypeId::kText, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kFloat8};
  for (const std::string& name : ext->directory().names()) {
    engine::Node* node = ext->directory().Find(name);
    if (node == nullptr || node->is_down()) continue;
    PoolSample s = SamplePool(node);
    if (!s.present) continue;
    rel.rows.push_back(
        {sql::Datum::Text(name), sql::Datum::Int8(s.poolers),
         sql::Datum::Int8(s.sessions), sql::Datum::Int8(s.in_use),
         sql::Datum::Int8(s.idle), sql::Datum::Int8(s.waiters),
         sql::Datum::Int8(s.attaches), sql::Datum::Int8(s.detaches),
         sql::Datum::Int8(s.replays), sql::Datum::Int8(s.timeouts),
         sql::Datum::Float8(s.wait_p99_ms)});
  }
  return rel;
}

engine::TempRelation BuildStatActivity(CitusExtension* ext) {
  engine::TempRelation rel;
  rel.column_names = {"node_name", "local_xid", "dist_txn_id", "state"};
  rel.column_types = {sql::TypeId::kText, sql::TypeId::kInt8,
                      sql::TypeId::kText, sql::TypeId::kText};
  for (const std::string& name : ext->directory().names()) {
    engine::Node* node = ext->directory().Find(name);
    if (node == nullptr || node->is_down()) continue;
    for (const auto& [xid, dist] : node->RegisteredTxns()) {
      rel.rows.push_back(
          {sql::Datum::Text(name), sql::Datum::Int8(static_cast<int64_t>(xid)),
           sql::Datum::Text(dist),
           sql::Datum::Text(node->locks().IsWaiting(xid) ? "waiting"
                                                         : "active")});
    }
  }
  // Pooled client sessions surface here too: one aggregate row per node
  // fronted by a transaction pooler, so multiplexed sessions that hold no
  // server transaction (and hence registered no xid above) stay visible.
  for (const std::string& name : ext->directory().names()) {
    engine::Node* node = ext->directory().Find(name);
    if (node == nullptr || node->is_down()) continue;
    PoolSample s = SamplePool(node);
    if (!s.present || s.sessions == 0) continue;
    rel.rows.push_back(
        {sql::Datum::Text(name), sql::Datum::Null(),
         sql::Datum::Text("pooled:" + std::to_string(s.sessions) +
                          " sessions"),
         sql::Datum::Text(s.waiters > 0 ? "pool-waiting" : "pooled")});
  }
  return rel;
}

// One row per cached plan in this session, plus node-wide counters.
engine::TempRelation BuildStatPlanCache(CitusExtension* ext,
                                        engine::Session& session) {
  engine::TempRelation rel;
  rel.column_names = {"query",      "generation", "hits",
                      "misses",     "invalidations"};
  rel.column_types = {sql::TypeId::kText, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8};
  int64_t hits = ext->metric_plancache_hit->value();
  int64_t misses = ext->metric_plancache_miss->value();
  int64_t invalidations = ext->metric_plancache_invalidation->value();
  for (const auto& [key, plan] : ext->SessionState(session).plan_cache) {
    rel.rows.push_back(
        {sql::Datum::Text(key),
         sql::Datum::Int8(static_cast<int64_t>(plan->generation)),
         sql::Datum::Int8(hits), sql::Datum::Int8(misses),
         sql::Datum::Int8(invalidations)});
  }
  if (rel.rows.empty()) {
    // Keep the node-wide counters visible even with an empty session cache.
    rel.rows.push_back({sql::Datum::Text(""), sql::Datum::Null(),
                        sql::Datum::Int8(hits), sql::Datum::Int8(misses),
                        sql::Datum::Int8(invalidations)});
  }
  return rel;
}

// One row per node: injected fault count plus the failure-path counters
// that accumulated on that node's metric registry (chaos observability).
engine::TempRelation BuildStatFailures(CitusExtension* ext) {
  engine::TempRelation rel;
  rel.column_names = {"node_name",          "faults_injected",
                      "connection_drops",   "statement_timeouts",
                      "admission_rejected", "task_retries",
                      "failovers",          "pruned_connections",
                      "partial_failures",   "recovered_txns",
                      "stale_metadata_rejections"};
  rel.column_types = {sql::TypeId::kText, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8};
  sim::Simulation* sim = ext->node()->sim();
  for (const std::string& name : ext->directory().names()) {
    engine::Node* node = ext->directory().Find(name);
    if (node == nullptr) continue;
    int64_t injected = sim->has_fault_injector()
                           ? sim->faults().injected_on(name)
                           : 0;
    obs::Metrics& m = node->metrics();
    rel.rows.push_back(
        {sql::Datum::Text(name), sql::Datum::Int8(injected),
         sql::Datum::Int8(m.counter("net.connection_drops")->value()),
         sql::Datum::Int8(m.counter("net.statement_timeouts")->value()),
         sql::Datum::Int8(m.counter("net.admission_rejected")->value()),
         sql::Datum::Int8(m.counter("citus.failures.retries")->value()),
         sql::Datum::Int8(m.counter("citus.failures.failovers")->value()),
         sql::Datum::Int8(
             m.counter("citus.failures.pruned_connections")->value()),
         sql::Datum::Int8(
             m.counter("citus.failures.partial_failures")->value()),
         sql::Datum::Int8(m.counter("citus.2pc.recovered")->value()),
         sql::Datum::Int8(m.counter("citus.mx.stale_rejections")->value())});
  }
  return rel;
}

// MX metadata sync state. On the authority: one row per known worker with
// the sync bookkeeping (version shipped, epoch, round-trips). On a replica:
// a single self row describing the local copy, so `SELECT * FROM
// citus_stat_metadata_sync` is meaningful wherever it runs.
engine::TempRelation BuildStatMetadataSync(CitusExtension* ext) {
  engine::TempRelation rel;
  rel.column_names = {"node_name",  "is_authority", "synced",
                      "version",    "last_sync_time_ms",
                      "round_trips", "syncs", "attempts",
                      "delta_syncs", "bytes_sent"};
  rel.column_types = {sql::TypeId::kText,   sql::TypeId::kInt8,
                      sql::TypeId::kInt8,   sql::TypeId::kInt8,
                      sql::TypeId::kFloat8, sql::TypeId::kInt8,
                      sql::TypeId::kInt8,   sql::TypeId::kInt8,
                      sql::TypeId::kInt8,   sql::TypeId::kInt8};
  const CitusMetadata& md = ext->metadata();
  if (ext->IsMetadataAuthority()) {
    rel.rows.push_back({sql::Datum::Text(ext->node()->name()),
                        sql::Datum::Int8(1), sql::Datum::Int8(1),
                        sql::Datum::Int8(static_cast<int64_t>(
                            md.cluster_version())),
                        sql::Datum::Null(), sql::Datum::Int8(0),
                        sql::Datum::Int8(0), sql::Datum::Int8(0),
                        sql::Datum::Int8(0), sql::Datum::Int8(0)});
    for (const auto& [name, state] : ext->sync_states()) {
      rel.rows.push_back(
          {sql::Datum::Text(name), sql::Datum::Int8(0),
           sql::Datum::Int8(state.synced ? 1 : 0),
           sql::Datum::Int8(static_cast<int64_t>(state.version)),
           sql::Datum::Float8(static_cast<double>(state.last_sync_time) / 1e6),
           sql::Datum::Int8(state.round_trips), sql::Datum::Int8(state.syncs),
           sql::Datum::Int8(state.attempts),
           sql::Datum::Int8(state.delta_syncs),
           sql::Datum::Int8(state.bytes_sent)});
    }
  } else {
    rel.rows.push_back(
        {sql::Datum::Text(ext->node()->name()), sql::Datum::Int8(0),
         sql::Datum::Int8(md.mx_synced() ? 1 : 0),
         sql::Datum::Int8(static_cast<int64_t>(md.cluster_version())),
         sql::Datum::Null(), sql::Datum::Int8(0), sql::Datum::Int8(0),
         sql::Datum::Int8(0), sql::Datum::Int8(0), sql::Datum::Int8(0)});
  }
  return rel;
}

}  // namespace

Result<std::optional<engine::QueryResult>> MaybeExecuteStatView(
    CitusExtension* ext, engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params) {
  if (stmt.kind != sql::Statement::Kind::kSelect || stmt.is_explain ||
      stmt.select == nullptr) {
    return std::optional<engine::QueryResult>();
  }
  std::set<std::string> names;
  sql::ForEachFromItem(
      *stmt.select, sql::Reach::kAll,
      [&](const sql::TableRef& ref, const sql::FromScope& scope) {
        if (ref.kind == sql::TableRef::Kind::kTable && !scope.Binds(ref.name)) {
          names.insert(ref.name);
        }
      });
  bool wants_statements = names.count(kStatStatements) > 0;
  bool wants_activity = names.count(kStatActivity) > 0;
  bool wants_plan_cache = names.count(kStatPlanCache) > 0;
  bool wants_failures = names.count(kStatFailures) > 0;
  bool wants_metadata_sync = names.count(kStatMetadataSync) > 0;
  bool wants_pools = names.count(kStatPools) > 0;
  if (!wants_statements && !wants_activity && !wants_plan_cache &&
      !wants_failures && !wants_metadata_sync && !wants_pools) {
    return std::optional<engine::QueryResult>();
  }
  engine::TempRelation statements;
  engine::TempRelation activity;
  engine::TempRelation plan_cache;
  engine::TempRelation failures;
  engine::TempRelation metadata_sync;
  std::map<std::string, const engine::TempRelation*> temps;
  if (wants_statements) {
    statements = BuildStatStatements(ext);
    temps[kStatStatements] = &statements;
  }
  if (wants_activity) {
    activity = BuildStatActivity(ext);
    temps[kStatActivity] = &activity;
  }
  if (wants_plan_cache) {
    plan_cache = BuildStatPlanCache(ext, session);
    temps[kStatPlanCache] = &plan_cache;
  }
  if (wants_failures) {
    failures = BuildStatFailures(ext);
    temps[kStatFailures] = &failures;
  }
  if (wants_metadata_sync) {
    metadata_sync = BuildStatMetadataSync(ext);
    temps[kStatMetadataSync] = &metadata_sync;
  }
  engine::TempRelation pools;
  if (wants_pools) {
    pools = BuildStatPools(ext);
    temps[kStatPools] = &pools;
  }
  CITUSX_ASSIGN_OR_RETURN(
      engine::QueryResult r,
      engine::RunLocalSelect(session, *stmt.select, params, &temps));
  return std::optional<engine::QueryResult>(std::move(r));
}

}  // namespace citusx::citus
