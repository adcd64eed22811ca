// The Citus extension: installed on a node through the engine's extension
// hook API (paper §3.1), it adds distributed tables, the four-tier
// distributed planner, the adaptive executor, 2PC transactions, distributed
// deadlock detection, the shard rebalancer, and scaled COPY / INSERT..SELECT
// / DDL.
#ifndef CITUSX_CITUS_EXTENSION_H_
#define CITUSX_CITUS_EXTENSION_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "citus/metadata.h"
#include "engine/hooks.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "sim/histogram.h"

namespace citusx::citus {

class CitusExtension;

struct CachedDistPlan;

/// One cached worker connection with its transaction bookkeeping.
struct WorkerConnection {
  std::unique_ptr<net::Connection> conn;
  std::string worker;
  bool txn_open = false;     // worker-side BEGIN sent
  bool did_write = false;    // writes in the current transaction
  std::string prepared_gid;  // set between PREPARE and COMMIT PREPARED
  /// (colocation_id, shard_index) groups touched in the current transaction;
  /// subsequent accesses to the same group must reuse this connection.
  std::set<std::pair<int, int>> groups;
  /// Names of worker-side prepared statements already created on this
  /// connection (the plan cache PREPAREs each shard query once per
  /// connection, then re-EXECUTEs it).
  std::set<std::string> prepared_stmts;
  /// Metadata cluster version last stamped onto this connection via
  /// SET citus.metadata_peer_version (0 = never stamped). The receiving
  /// node uses the stamp to refuse work routed by a staler peer.
  uint64_t stamped_version = 0;
  /// Whether SET citus.use_vectorized_executor = 'off' is in effect on the
  /// worker session behind this connection (workers default on; the
  /// coordinator propagates its own session setting at task dispatch).
  bool vectorized_off_stamped = false;
  /// Value of citus.max_intermediate_result_size stamped onto the worker
  /// session behind this connection (empty = the registered default), so
  /// worker-side shuffle operators enforce the coordinator session's limit.
  std::string intermediate_size_stamped;
};

/// Per-session extension state, hung off Session::extension_state.
struct CitusSessionState {
  /// Cached connections per worker (kept across transactions).
  std::map<std::string, std::vector<std::unique_ptr<WorkerConnection>>> pool;
  /// Distributed transaction id for the open transaction (assigned lazily).
  std::string dist_txn_id;
  CitusExtension* extension = nullptr;
  /// Distributed plan cache, keyed by normalized statement shape
  /// (plancache.cc). Entries are dropped when the metadata generation moves.
  std::map<std::string, std::shared_ptr<CachedDistPlan>> plan_cache;
  /// Cached parse of the citus.metadata_peer_version session variable
  /// (set once per inter-node connection; re-parsed only when it changes).
  std::string peer_version_str;
  uint64_t peer_version = 0;
  /// Tasks the adaptive executor has dispatched for this session; a
  /// statement's share is its citus_stat_statements shards_hit.
  int64_t tasks_dispatched = 0;

  ~CitusSessionState();
};

/// Aggregated execution stats for one normalized statement
/// (the backing store of the citus_stat_statements view).
struct StatStatementEntry {
  std::string tier;        // planner tier of the most recent call
  int64_t calls = 0;
  int64_t shards_hit = 0;  // cumulative tasks the calls dispatched
  sim::Histogram time;     // per-call virtual time (ns)
};

struct CitusConfig {
  bool is_coordinator = false;
  int shard_count = 32;
  /// Disable slow start entirely (ablation: abl_executor). The allowance
  /// interval is sim::CostModel::executor_slow_start_interval.
  bool enable_slow_start = true;
  /// Per-session distributed plan cache + worker-side prepared statements
  /// (ablation: abl_plancache --no-plan-cache).
  bool enable_plan_cache = true;
  /// Per-statement deadline on worker connections (0 = none). A round trip
  /// exceeding it fails with Timeout and the connection is replaced.
  sim::Time statement_timeout = 0;
  /// Metadata syncing (§3.10, Citus MX): the coordinator pushes its
  /// catalogs to every worker after each metadata change, and the
  /// maintenance daemon re-syncs nodes that missed a round (crash, restart,
  /// new node). Disable to model a classic coordinator-only cluster; the
  /// manual sync UDFs (citus_sync_metadata, start_metadata_sync_to_node)
  /// still work.
  bool enable_metadata_sync = true;
};

/// Metadata-sync round boundaries where the fault hook fires
/// (crash-during-sync testing). The arguments are the target node name and
/// the boundary just crossed.
enum class MetadataSyncPoint {
  kBeforeApply,  // before the round connects and ships its payload
  kAfterApply,   // payload applied and published on the peer, authority's
                 // bookkeeping not yet updated
};

/// Per-node metadata-sync bookkeeping on the authority (backing store of
/// the citus_stat_metadata_sync view).
struct NodeSyncState {
  uint64_t version = 0;       // cluster version last synced successfully
  uint64_t target_epoch = 0;  // target's restart_epoch at that sync
  bool synced = false;
  sim::Time last_sync_time = 0;
  int64_t round_trips = 0;  // cumulative sync round trips (incl. failures)
  int64_t syncs = 0;        // successful sync rounds
  int64_t attempts = 0;     // rounds attempted
  int64_t delta_syncs = 0;  // successful rounds from a nonzero base
  int64_t bytes_sent = 0;   // cumulative payload bytes shipped to this node
};

/// Error-message prefix for stale-metadata rejections. They are issued as
/// StatusCode::kAborted (SQLSTATE 40001, RetryableTransient) so drivers and
/// the executor treat them as retryable — a re-sync heals the node.
inline constexpr const char* kStaleMetadataError = "stale distributed metadata";

inline bool IsStaleMetadataStatus(const Status& status) {
  return status.code() == StatusCode::kAborted &&
         status.message().rfind(kStaleMetadataError, 0) == 0;
}

/// Stage boundaries of a multi-stage plan (join-order moves, materialized
/// CTEs) where the fault hook fires (crash testing: worker loss mid-shuffle
/// must never leak temporary shards or return wrong rows). The string
/// argument is the intermediate result's relation name.
enum class RepartitionPoint {
  kAfterCreate,    // intermediate shards created, no data shipped yet
  kAfterShuffle,   // all fragments shipped, final tasks not yet dispatched
  kBeforeCleanup,  // final tasks done (or failed), shards not yet dropped
};

/// 2PC phase boundaries where the fault hook fires (crash testing §3.7).
enum class TwoPhasePoint {
  kBeforePrepare,      // before any PREPARE TRANSACTION is sent
  kAfterPrepare,       // workers prepared, commit record not yet written
  kAfterCommitRecord,  // commit record durable, COMMIT PREPARED not yet sent
};

class CitusExtension {
 public:
  /// Install the extension on `node`. `metadata` is this node's own copy of
  /// the catalogs: the coordinator's copy is the cluster authority, worker
  /// copies are replicas filled in by metadata sync (§3.10); `directory`
  /// resolves worker names. Registers hooks, UDFs, and the maintenance
  /// background worker.
  static CitusExtension* Install(engine::Node* node,
                                 net::NodeDirectory* directory,
                                 std::shared_ptr<CitusMetadata> metadata,
                                 const CitusConfig& config);

  engine::Node* node() { return node_; }
  CitusMetadata& metadata() { return *metadata_; }
  net::NodeDirectory& directory() { return *directory_; }
  const CitusConfig& config() const { return config_; }

  /// Session state accessor (created lazily).
  CitusSessionState& SessionState(engine::Session& session);
  /// Weak handle on the same state, for work that yields and may outlive
  /// the session (a client can disconnect mid-connect).
  std::weak_ptr<CitusSessionState> WeakSessionState(engine::Session& session);

  /// Connection with affinity: if `group` (colocation, shard index) was
  /// already accessed in this transaction, returns that connection;
  /// otherwise returns the least-loaded cached connection, or opens one.
  Result<WorkerConnection*> GetConnection(engine::Session& session,
                                          const std::string& worker,
                                          std::pair<int, int> group);

  /// Open an additional connection to `worker` for parallel execution,
  /// respecting the shared pool limit. Returns nullptr (not an error) when
  /// the limit is reached, or when the session ended while connecting (the
  /// new connection is then closed and not counted).
  Result<WorkerConnection*> TryOpenExtraConnection(
      const std::weak_ptr<CitusSessionState>& session_state,
      const std::string& worker);

  /// Ensure a worker-side transaction block is open on `wc` and the
  /// distributed transaction id is assigned/propagated.
  Status EnsureWorkerTxn(engine::Session& session, WorkerConnection* wc);

  /// Total outgoing connections to `worker` from this node.
  int outgoing_connections(const std::string& worker) const {
    auto it = outgoing_.find(worker);
    return it == outgoing_.end() ? 0 : it->second;
  }

  // ---- failure hardening ----

  /// Close and remove a broken pooled connection (it is destroyed; the pool
  /// re-grows through slow start). Must not be called on connections
  /// carrying transaction state.
  void PruneConnection(engine::Session& session, WorkerConnection* wc);

  /// Record that `worker` was observed down. Bumps the metadata generation
  /// (invalidating distributed plan caches that route to it) the first time.
  void NoteWorkerUnavailable(const std::string& worker);
  /// Clears the down marker after a successful reconnect.
  void NoteWorkerAvailable(const std::string& worker);
  bool IsWorkerMarkedDown(const std::string& worker) const {
    return down_workers_.count(worker) > 0;
  }

  /// Remember shard tables to drop on `worker` once it is reachable again
  /// (failed rebalance copies); the maintenance daemon retries them.
  void AddDeferredCleanup(const std::string& worker,
                          std::vector<std::string> tables);
  /// Attempt all pending deferred cleanups; returns how many tables were
  /// dropped.
  int RunDeferredCleanup(engine::Session& session);
  int pending_cleanup_count() const {
    int n = 0;
    for (const auto& [w, tables] : pending_cleanup_) {
      n += static_cast<int>(tables.size());
    }
    return n;
  }

  /// Check out a cached outbound connection to `worker` for shuffle
  /// shipping, opening a fresh one on a cache miss. The handle is removed
  /// from the cache while checked out; hand it back with
  /// ReleaseShuffleConnection on success, or destroy it (just drop the
  /// unique_ptr) after any failure so a stale wire is never reused.
  Result<std::unique_ptr<net::Connection>> AcquireShuffleConnection(
      const std::string& worker);
  void ReleaseShuffleConnection(const std::string& worker,
                                std::unique_ptr<net::Connection> conn);

  // ---- metadata syncing / MX mode (metadata_sync.cc) ----

  /// True on the node that owns the authoritative metadata copy (the
  /// coordinator). Only the authority mutates cluster-visible metadata.
  bool IsMetadataAuthority() const { return config_.is_coordinator; }

  /// True when this node may coordinate distributed queries: the authority
  /// always, a worker only with a fully applied sync at a version no older
  /// than any version it has observed on the wire.
  bool MxReady() const {
    if (config_.is_coordinator) return true;
    return metadata_->mx_synced() &&
           metadata_->cluster_version() >= metadata_->known_cluster_version();
  }

  /// Push the authority's catalogs to one node / all registered workers
  /// over a dedicated connection, one round trip per round: a delta to a
  /// peer known synced at an earlier version, a snapshot otherwise (see
  /// metadata_sync.h). Peers already at the current version are skipped
  /// unless `force` is set — the explicit repair UDFs (citus_sync_metadata,
  /// start_metadata_sync_to_node) force a snapshot, internal sweeps don't.
  /// SyncMetadataToWorkers returns the number of nodes synced; per-node
  /// failures mark the node pending and are not fatal.
  Status SyncMetadataToNode(const std::string& target, bool force = false);
  Result<int> SyncMetadataToWorkers(bool force = false);
  /// Best-effort auto-sync after an authoritative metadata change; failures
  /// are left for the maintenance daemon to retry.
  void MaybeSyncMetadata();
  /// True when some registered worker needs a (re-)sync: never synced,
  /// behind the current version, restarted since its last sync, or its last
  /// round failed.
  bool AnyMetadataSyncPending() const;

  /// Stamp `wc` with this node's metadata version (one SET round trip,
  /// skipped when already stamped at the current version). Called before
  /// task dispatch so every inter-node statement carries the sender's
  /// version.
  Status StampPeerMetadataVersion(WorkerConnection* wc);
  /// Receiver side: reject statements from a peer whose stamped version is
  /// older than this node's copy (stale routing may target moved shards).
  /// Also feeds the peer's version into the known-version watermark.
  Status CheckPeerMetadataVersion(engine::Session& session);

  /// Build a stale-metadata rejection (kAborted + kStaleMetadataError
  /// prefix, see above) and count it in citus.mx.stale_rejections.
  Status MxStaleRejection(const std::string& detail);

  /// Shell-table registry: worker-side record that a relation is the empty
  /// local shell of a distributed table. A worker whose metadata copy is
  /// stale (or empty) must refuse statements touching registered shells
  /// rather than run them locally and return wrong (empty) answers.
  void RegisterShellTable(const std::string& name) {
    shell_tables_.insert(name);
  }
  void UnregisterShellTable(const std::string& name) {
    shell_tables_.erase(name);
  }
  bool IsShellTable(const std::string& name) const {
    return shell_tables_.count(name) > 0;
  }
  /// Drop registrations for tables the authority no longer has (sync
  /// reconciliation after a DROP TABLE).
  void ReconcileShellTables(const std::set<std::string>& keep) {
    std::erase_if(shell_tables_,
                  [&](const std::string& n) { return keep.count(n) == 0; });
  }

  /// Authority-side per-node sync bookkeeping (citus_stat_metadata_sync).
  const std::map<std::string, NodeSyncState>& sync_states() const {
    return sync_states_;
  }
  void ForgetSyncState(const std::string& target) {
    sync_states_.erase(target);
  }

  /// Test/chaos hook fired at metadata-sync boundaries; a non-OK return
  /// fails the sync round at that point, leaving the target pending.
  std::function<Status(const std::string&, MetadataSyncPoint)>
      metadata_sync_fault_hook;

  /// Test/chaos hook fired at multi-stage plan boundaries; a non-OK return
  /// models the coordinator failing at that point (execution surfaces the
  /// error after dropping what it already created).
  std::function<Status(const std::string&, RepartitionPoint)>
      repartition_fault_hook;

  /// Test/chaos hook fired at 2PC phase boundaries; a non-OK return models
  /// the coordinator failing at that point (the commit path surfaces the
  /// error without finishing the protocol).
  std::function<Status(TwoPhasePoint)> twophase_fault_hook;
  /// When set, the next PostCommit skips COMMIT PREPARED and forgets the
  /// prepared gids (models the coordinator crashing right after its local
  /// commit; the recovery daemon must finish the commit from the records).
  bool suppress_post_commit_2pc_once = false;

  // ---- wired into session hooks (twophase.cc) ----
  Status PreCommit(engine::Session& session);
  void PostCommit(engine::Session& session);
  void PostAbort(engine::Session& session);

  /// One round of 2PC recovery (also run by the maintenance daemon):
  /// compares worker prepared transactions against local commit records.
  /// Returns number of transactions finalized.
  Result<int> RecoverTwoPhaseCommits(engine::Session& session);

  /// One round of distributed deadlock detection. Returns true if a victim
  /// was cancelled.
  bool DetectDistributedDeadlocks();

  /// Distributed deadlocks broken (the 2PC tallies are the citus.2pc.*
  /// counters below).
  int64_t deadlocks_detected = 0;

  /// Metric handles on this node's registry, resolved once at install.
  obs::Counter* metric_tasks = nullptr;          // citus.executor.tasks
  obs::Counter* metric_pool_growth = nullptr;    // citus.executor.pool_growth
  obs::Counter* metric_pipeline_batches = nullptr;  // citus.executor.pipeline_batches
  obs::Counter* metric_pipelined_tasks = nullptr;   // citus.executor.pipelined_tasks
  obs::Counter* metric_prepares = nullptr;       // citus.2pc.prepares
  obs::Counter* metric_2pc_commits = nullptr;    // citus.2pc.commits
  obs::Counter* metric_1pc_commits = nullptr;    // citus.2pc.single_node_commits
  obs::Counter* metric_fast_path = nullptr;      // citus.planner.fast_path
  obs::Counter* metric_router = nullptr;         // citus.planner.router
  obs::Counter* metric_pushdown = nullptr;       // citus.planner.pushdown
  obs::Counter* metric_join_order = nullptr;     // citus.planner.join_order
  // Join-order tier data movement + CTE processing counters (abl_joins).
  obs::Counter* metric_repartition_joins = nullptr;  // citus.repartition.joins
  obs::Counter* metric_repartition_moves = nullptr;  // citus.repartition.moves
  obs::Counter* metric_repartition_shuffled_bytes =
      nullptr;  // citus.repartition.shuffled_bytes
  obs::Counter* metric_cte_inlined = nullptr;       // citus.cte.inlined
  obs::Counter* metric_cte_materialized = nullptr;  // citus.cte.materialized
  obs::Counter* metric_plancache_hit = nullptr;  // citus.plancache.hit
  obs::Counter* metric_plancache_miss = nullptr;          // citus.plancache.miss
  obs::Counter* metric_plancache_invalidation = nullptr;  // citus.plancache.invalidation
  // Failure-path counters (citus_stat_failures view).
  obs::Counter* metric_task_retries = nullptr;      // citus.failures.retries
  obs::Counter* metric_failovers = nullptr;         // citus.failures.failovers
  obs::Counter* metric_pruned = nullptr;            // citus.failures.pruned_connections
  obs::Counter* metric_partial_failures = nullptr;  // citus.failures.partial_failures
  obs::Counter* metric_node_down = nullptr;         // citus.failures.node_down_invalidations
  obs::Counter* metric_recovered = nullptr;         // citus.2pc.recovered
  // MX metadata-sync counters (citus_stat_metadata_sync / _failures views).
  obs::Counter* metric_mx_rejections = nullptr;     // citus.mx.stale_rejections
  obs::Counter* metric_mx_sync_rounds = nullptr;    // citus.mx.sync_rounds
  obs::Counter* metric_mx_sync_failures = nullptr;  // citus.mx.sync_failures
  obs::Counter* metric_mx_sync_applied = nullptr;   // citus.mx.sync_applied
  obs::Counter* metric_mx_delta_syncs = nullptr;    // citus.mx.delta_syncs
  obs::Counter* metric_mx_sync_bytes = nullptr;     // citus.mx.sync_bytes

  // ---- citus_stat_statements backing store ----
  void RecordStatement(const std::string& normalized, const std::string& tier,
                       sim::Time elapsed, int64_t shards) {
    StatStatementEntry& e = stat_statements_[normalized];
    e.tier = tier;
    e.calls++;
    e.shards_hit += shards;
    e.time.Record(elapsed);
  }
  const std::map<std::string, StatStatementEntry>& stat_statements() const {
    return stat_statements_;
  }
  void ResetStatStatements() { stat_statements_.clear(); }

  /// The engine table holding commit records ("pg_dist_transaction").
  static constexpr const char* kCommitRecordsTable = "pg_dist_transaction";

  /// Generate a distributed transaction id / 2PC gid.
  std::string NextDistTxnId();
  std::string MakeGid(const std::string& dist_txn_id, int seq);

  /// Release per-session connection accounting when a session dies.
  void OnConnectionClosed(const std::string& worker);

 private:
  friend struct CitusSessionState;
  CitusExtension(engine::Node* node, net::NodeDirectory* directory,
                 std::shared_ptr<CitusMetadata> metadata, CitusConfig config);

  void RegisterHooks();
  void RegisterUdfs();  // udf.cc
  void StartMaintenanceDaemon();
  /// Apply the statement timeout to a freshly opened connection to
  /// `worker`, count it against the shared limit, and cache it in `state`.
  WorkerConnection* AddPooledConnection(CitusSessionState& state,
                                        const std::string& worker,
                                        std::unique_ptr<net::Connection> conn);

  engine::Node* node_;
  net::NodeDirectory* directory_;
  std::shared_ptr<CitusMetadata> metadata_;
  CitusConfig config_;
  /// Shared connection counters.
  std::map<std::string, int> outgoing_;
  uint64_t dist_txn_counter_ = 0;
  /// Distributed transactions this node initiated that are still in flight;
  /// 2PC recovery must not touch their prepared transactions.
  std::set<std::string> active_dist_txns_;
  std::map<std::string, StatStatementEntry> stat_statements_;
  /// Workers observed down (cleared on successful reconnect).
  std::set<std::string> down_workers_;
  /// Worker -> shard tables awaiting cleanup (dropped by the daemon).
  std::map<std::string, std::vector<std::string>> pending_cleanup_;
  /// Cached outbound worker-to-worker connections for shuffle shipping
  /// (citus_internal_shuffle). Acquire removes the handle from the cache,
  /// so two concurrent shuffles never interleave on one wire; Release puts
  /// it back. Without the cache every shuffle pays connect_cost per
  /// destination, while the executor's own tasks ride the session's
  /// long-lived pooled connections.
  std::map<std::string, std::vector<std::unique_ptr<net::Connection>>>
      shuffle_conns_;
  /// Relations registered as distributed-table shells on this node,
  /// written by DDL propagation and sync apply, read at plan time.
  std::set<std::string> shell_tables_;
  /// Authority-side sync bookkeeping, keyed by target node name.
  std::map<std::string, NodeSyncState> sync_states_;
  /// True while a SyncMetadataToWorkers sweep is in flight on this node;
  /// concurrent sweeps (eager post-DDL vs maintenance daemon) would sync
  /// the same lagging peers twice, so later callers no-op.
  bool sync_sweep_active_ = false;

 public:
  void MarkDistTxnActive(const std::string& id) {
    active_dist_txns_.insert(id);
  }
  void MarkDistTxnEnded(const std::string& id) { active_dist_txns_.erase(id); }
  bool IsDistTxnActive(const std::string& id) const {
    return active_dist_txns_.count(id) > 0;
  }
};

/// Extension lookup for a node (set at Install).
CitusExtension* GetExtension(engine::Node* node);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_EXTENSION_H_
