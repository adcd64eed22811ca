#include "citus/extension.h"

#include <unordered_map>

#include "citus/plancache.h"
#include "citus/planner.h"
#include "exec/vectorized.h"
#include "sim/simulation.h"

namespace citusx::citus {

namespace {
// Upper bound on this node's total outgoing connections per worker (the
// shared connection limit of §3.6.1, citus.max_shared_pool_size).
constexpr int kMaxSharedPoolSize = 300;

// Node -> extension registry (PostgreSQL would keep this in shared memory).
std::unordered_map<engine::Node*, CitusExtension*>& Registry() {
  static auto* kMap = new std::unordered_map<engine::Node*, CitusExtension*>();
  return *kMap;
}
}  // namespace

CitusExtension* GetExtension(engine::Node* node) {
  auto it = Registry().find(node);
  return it == Registry().end() ? nullptr : it->second;
}

void UninstallExtension(engine::Node* node) { Registry().erase(node); }

CitusSessionState::~CitusSessionState() {
  for (auto& [worker, conns] : pool) {
    for (auto& wc : conns) {
      wc->conn->Close();
      if (extension != nullptr) extension->OnConnectionClosed(worker);
    }
  }
}

CitusExtension::CitusExtension(engine::Node* node,
                               net::NodeDirectory* directory,
                               std::shared_ptr<CitusMetadata> metadata,
                               CitusConfig config)
    : node_(node),
      directory_(directory),
      metadata_(std::move(metadata)),
      config_(config) {
  obs::Metrics& m = node_->metrics();
  metric_tasks = m.counter("citus.executor.tasks");
  metric_pool_growth = m.counter("citus.executor.pool_growth");
  metric_pipeline_batches = m.counter("citus.executor.pipeline_batches");
  metric_pipelined_tasks = m.counter("citus.executor.pipelined_tasks");
  metric_prepares = m.counter("citus.2pc.prepares");
  metric_2pc_commits = m.counter("citus.2pc.commits");
  metric_1pc_commits = m.counter("citus.2pc.single_node_commits");
  metric_fast_path = m.counter("citus.planner.fast_path");
  metric_router = m.counter("citus.planner.router");
  metric_pushdown = m.counter("citus.planner.pushdown");
  metric_join_order = m.counter("citus.planner.join_order");
  metric_repartition_joins = m.counter("citus.repartition.joins");
  metric_repartition_moves = m.counter("citus.repartition.moves");
  metric_repartition_shuffled_bytes =
      m.counter("citus.repartition.shuffled_bytes");
  metric_cte_inlined = m.counter("citus.cte.inlined");
  metric_cte_materialized = m.counter("citus.cte.materialized");
  metric_plancache_hit = m.counter("citus.plancache.hit");
  metric_plancache_miss = m.counter("citus.plancache.miss");
  metric_plancache_invalidation = m.counter("citus.plancache.invalidation");
  metric_task_retries = m.counter("citus.failures.retries");
  metric_failovers = m.counter("citus.failures.failovers");
  metric_pruned = m.counter("citus.failures.pruned_connections");
  metric_partial_failures = m.counter("citus.failures.partial_failures");
  metric_node_down = m.counter("citus.failures.node_down_invalidations");
  metric_recovered = m.counter("citus.2pc.recovered");
  metric_mx_rejections = m.counter("citus.mx.stale_rejections");
  metric_mx_sync_rounds = m.counter("citus.mx.sync_rounds");
  metric_mx_sync_failures = m.counter("citus.mx.sync_failures");
  metric_mx_sync_applied = m.counter("citus.mx.sync_applied");
  metric_mx_delta_syncs = m.counter("citus.mx.delta_syncs");
  metric_mx_sync_bytes = m.counter("citus.mx.sync_bytes");
}

CitusExtension* CitusExtension::Install(
    engine::Node* node, net::NodeDirectory* directory,
    std::shared_ptr<CitusMetadata> metadata, const CitusConfig& config) {
  auto* ext = new CitusExtension(node, directory, std::move(metadata), config);
  Registry()[node] = ext;
  ext->RegisterHooks();
  ext->RegisterUdfs();
  // The vectorized morsel-driven executor (src/exec). Sessions opt out with
  // SET citus.use_vectorized_executor = off, which the coordinator also
  // propagates to its worker connections (ablation: abl_olap).
  exec::InstallVectorizedExecutor(node);
  // The commit-records catalog table (pg_dist_transaction). Real MVCC
  // storage: commit records become visible atomically with local commit.
  if (node->catalog().Find(kCommitRecordsTable) == nullptr) {
    sql::Schema schema;
    schema.columns.push_back(
        sql::ColumnDef{"gid", sql::TypeId::kText, true, true, ""});
    // Primary key on gid: recovery lookups and post-commit deletions must
    // stay O(1) as the commit-record heap accumulates slots.
    CITUSX_IGNORE_STATUS(
        node->catalog().CreateTable(kCommitRecordsTable, schema, {"gid"}),
        "existence checked above; a lost race re-checks on next install");
  }
  ext->StartMaintenanceDaemon();
  return ext;
}

void CitusExtension::RegisterHooks() {
  engine::ExtensionHooks& hooks = node_->hooks();
  CitusExtension* ext = this;
  hooks.planner_hook = [ext](engine::Session& session,
                             const sql::Statement& stmt,
                             const std::vector<sql::Datum>& params)
      -> Result<std::optional<engine::QueryResult>> {
    DistributedPlanner planner(ext);
    return planner.PlanAndExecute(session, stmt, params);
  };
  hooks.utility_hook =
      [ext](engine::Session& session, const sql::Statement& stmt)
      -> Result<std::optional<engine::QueryResult>> {
    return ProcessDistributedUtility(ext, session, stmt);
  };
  hooks.copy_hook = [ext](engine::Session& session, const sql::CopyStmt& stmt,
                          const std::vector<std::vector<std::string>>& rows)
      -> Result<std::optional<engine::QueryResult>> {
    return ProcessDistributedCopy(ext, session, stmt, rows);
  };
  hooks.call_hook = [ext](engine::Session& session, const sql::CallStmt& stmt,
                          const std::vector<sql::Datum>& args)
      -> Result<std::optional<engine::QueryResult>> {
    return ProcessDelegatedCall(ext, session, stmt, args);
  };
  hooks.pre_commit = [ext](engine::Session& session) {
    return ext->PreCommit(session);
  };
  hooks.post_commit = [ext](engine::Session& session) {
    ext->PostCommit(session);
  };
  hooks.post_abort = [ext](engine::Session& session) {
    ext->PostAbort(session);
  };
  hooks.on_restart = [ext](engine::Node&) {
    // A restarted worker must not trust its metadata copy until the
    // authority re-syncs it (the copy may have missed changes while the
    // node was down): clear the synced marker so MX routing is refused,
    // and bump the generation so cached distributed plans are rebuilt.
    if (!ext->IsMetadataAuthority()) {
      ext->metadata().set_mx_synced(false);
      ext->metadata().BumpGeneration();
    }
  };
}

void CitusExtension::StartMaintenanceDaemon() {
  // The maintenance daemon (§3.1 background workers): distributed deadlock
  // detection + 2PC recovery.
  CitusExtension* ext = this;
  node_->hooks().background_workers.emplace_back(
      "citus_maintenance", [ext](engine::Node& node) {
        sim::Simulation* sim = node.sim();
        sim::Time last_recovery = 0;
        const sim::CostModel& cost = node.cost();
        while (sim->WaitFor(cost.deadlock_poll_interval)) {
          if (node.is_down()) continue;
          ext->DetectDistributedDeadlocks();
          // Metadata-sync repair (§3.10): re-sync any worker that is behind
          // the current cluster version, restarted since its last sync, or
          // whose last round failed mid-way. This is what heals a node left
          // stale by a crash during sync.
          if (ext->config().enable_metadata_sync &&
              ext->AnyMetadataSyncPending()) {
            CITUSX_IGNORE_STATUS(
                ext->SyncMetadataToWorkers().status(),
                "periodic daemon pass; unsynced nodes refuse MX routing "
                "and are retried next round");
          }
          if (sim->now() - last_recovery >= cost.recovery_poll_interval) {
            last_recovery = sim->now();
            auto session = node.OpenSession();
            CITUSX_IGNORE_STATUS(
                ext->RecoverTwoPhaseCommits(*session),
                "periodic daemon pass; failures retry next round");
            if (ext->pending_cleanup_count() > 0) {
              ext->RunDeferredCleanup(*session);
            }
          }
        }
      });
}

CitusSessionState& CitusExtension::SessionState(engine::Session& session) {
  if (session.extension_state == nullptr) {
    auto state = std::make_shared<CitusSessionState>();
    state->extension = this;
    session.extension_state = state;
  }
  return *static_cast<CitusSessionState*>(session.extension_state.get());
}

std::weak_ptr<CitusSessionState> CitusExtension::WeakSessionState(
    engine::Session& session) {
  SessionState(session);
  return std::static_pointer_cast<CitusSessionState>(session.extension_state);
}

std::string CitusExtension::NextDistTxnId() {
  return StrFormat("%s_%llu", node_->name().c_str(),
                   static_cast<unsigned long long>(++dist_txn_counter_));
}

std::string CitusExtension::MakeGid(const std::string& dist_txn_id, int seq) {
  return StrFormat("citusx_%s_%d", dist_txn_id.c_str(), seq);
}

void CitusExtension::OnConnectionClosed(const std::string& worker) {
  auto it = outgoing_.find(worker);
  if (it != outgoing_.end() && it->second > 0) it->second--;
}

namespace {
// A connection with no transaction state can be discarded without losing
// track of an in-flight transaction's fate.
bool IsStateless(const WorkerConnection& wc) {
  return wc.groups.empty() && !wc.txn_open && !wc.did_write &&
         wc.prepared_gid.empty();
}
}  // namespace

Result<WorkerConnection*> CitusExtension::GetConnection(
    engine::Session& session, const std::string& worker,
    std::pair<int, int> group) {
  CitusSessionState& state = SessionState(session);
  auto& conns = state.pool[worker];
  // Affinity: a connection that already touched this co-located shard group
  // in the current transaction must be reused (§3.6.1).
  if (group.second >= 0) {
    for (auto& wc : conns) {
      if (wc->groups.count(group) > 0) return wc.get();
    }
  }
  // Prune broken stateless connections (dead backends from a crashed
  // worker); the pool re-grows below or through slow start.
  for (auto it = conns.begin(); it != conns.end();) {
    if (!(*it)->conn->usable() && IsStateless(**it)) {
      (*it)->conn->Close();
      OnConnectionClosed(worker);
      metric_pruned->Inc();
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& wc : conns) {
    if (wc->conn->usable()) return wc.get();
  }
  // Only broken-but-stateful connections remain: the caller must observe
  // the breakage through them (abort path owns the cleanup).
  if (!conns.empty()) return conns.front().get();
  // Open the session's primary connection to this worker.
  if (outgoing_connections(worker) >= kMaxSharedPoolSize) {
    return Status::ResourceExhausted(
        "shared connection pool for " + worker + " is exhausted");
  }
  CITUSX_ASSIGN_OR_RETURN(std::unique_ptr<net::Connection> conn,
                          directory_->Connect(node_, worker));
  NoteWorkerAvailable(worker);
  return AddPooledConnection(state, worker, std::move(conn));
}

Result<WorkerConnection*> CitusExtension::TryOpenExtraConnection(
    const std::weak_ptr<CitusSessionState>& session_state,
    const std::string& worker) {
  if (outgoing_connections(worker) >= kMaxSharedPoolSize) {
    return static_cast<WorkerConnection*>(nullptr);  // limit reached
  }
  auto conn = directory_->Connect(node_, worker);
  if (!conn.ok()) {
    if (conn.status().code() == StatusCode::kResourceExhausted) {
      return static_cast<WorkerConnection*>(nullptr);
    }
    return conn.status();
  }
  NoteWorkerAvailable(worker);
  // The connect yielded: if the client disconnected meanwhile, its session
  // and connection pool are gone, so the new connection has no owner.
  std::shared_ptr<CitusSessionState> state = session_state.lock();
  if (state == nullptr) {
    (*conn)->Close();
    return static_cast<WorkerConnection*>(nullptr);
  }
  return AddPooledConnection(*state, worker, std::move(conn).value());
}

WorkerConnection* CitusExtension::AddPooledConnection(
    CitusSessionState& state, const std::string& worker,
    std::unique_ptr<net::Connection> conn) {
  if (config_.statement_timeout > 0) {
    conn->SetStatementTimeout(config_.statement_timeout);
  }
  outgoing_[worker]++;
  auto wc = std::make_unique<WorkerConnection>();
  wc->conn = std::move(conn);
  wc->worker = worker;
  WorkerConnection* ptr = wc.get();
  state.pool[worker].push_back(std::move(wc));
  return ptr;
}

void CitusExtension::PruneConnection(engine::Session& session,
                                     WorkerConnection* wc) {
  CitusSessionState& state = SessionState(session);
  auto it = state.pool.find(wc->worker);
  if (it == state.pool.end()) return;
  auto& conns = it->second;
  for (auto cit = conns.begin(); cit != conns.end(); ++cit) {
    if (cit->get() == wc) {
      wc->conn->Close();
      OnConnectionClosed(wc->worker);
      metric_pruned->Inc();
      conns.erase(cit);  // destroys *wc
      return;
    }
  }
}

void CitusExtension::NoteWorkerUnavailable(const std::string& worker) {
  engine::Node* node = directory_->Find(worker);
  // Only mark the worker down when it actually is (a single dropped
  // connection must not invalidate every cached plan).
  if (node == nullptr || !node->is_down()) return;
  if (!down_workers_.insert(worker).second) return;
  metric_node_down->Inc();
  // Cached distributed plans may route to the dead node; moving the
  // metadata generation drops them lazily, exactly like a shard move.
  metadata_->BumpGeneration();
}

void CitusExtension::NoteWorkerAvailable(const std::string& worker) {
  down_workers_.erase(worker);
}

Result<std::unique_ptr<net::Connection>> CitusExtension::AcquireShuffleConnection(
    const std::string& worker) {
  {
    sim::NoYieldScope no_yield;
    auto it = shuffle_conns_.find(worker);
    while (it != shuffle_conns_.end() && !it->second.empty()) {
      std::unique_ptr<net::Connection> conn = std::move(it->second.back());
      it->second.pop_back();
      // A cached wire to a worker that crashed or restarted since
      // establishment is dead; discard and keep looking.
      if (conn->usable()) return conn;
      conn->Close();
    }
  }
  // The handshake yields, so it runs after the scope.
  return directory_->Connect(node_, worker);
}

void CitusExtension::ReleaseShuffleConnection(
    const std::string& worker, std::unique_ptr<net::Connection> conn) {
  if (conn == nullptr) return;
  if (!conn->usable()) {
    conn->Close();
    return;
  }
  sim::NoYieldScope no_yield;
  auto& cached = shuffle_conns_[worker];
  // A couple of spares per destination is plenty: shuffles ship one bucket
  // per destination and rarely overlap on one source node.
  if (cached.size() >= 2) {
    conn->Close();
    return;
  }
  cached.push_back(std::move(conn));
}

void CitusExtension::AddDeferredCleanup(const std::string& worker,
                                        std::vector<std::string> tables) {
  auto& pending = pending_cleanup_[worker];
  pending.insert(pending.end(), tables.begin(), tables.end());
}

int CitusExtension::RunDeferredCleanup(engine::Session& session) {
  // Drop from a snapshot, then fold the survivors back in: the round trips
  // yield, and other processes may queue more cleanups meanwhile.
  std::map<std::string, std::vector<std::string>> snapshot = pending_cleanup_;
  int dropped = 0;
  for (auto& [worker, tables] : snapshot) {
    engine::Node* node = directory_->Find(worker);
    if (node == nullptr || node->is_down()) {
      continue;  // still unreachable; retry next round
    }
    auto conn = directory_->Connect(node_, worker);
    if (!conn.ok()) continue;
    std::vector<std::string> dropped_tables;
    for (const std::string& table : tables) {
      auto r = (*conn)->Query("DROP TABLE IF EXISTS " + table);
      if (r.ok()) {
        dropped++;
        dropped_tables.push_back(table);
      }
    }
    auto it = pending_cleanup_.find(worker);
    if (it == pending_cleanup_.end()) continue;
    std::vector<std::string> remaining;
    for (const std::string& table : it->second) {
      bool was_dropped = false;
      for (const std::string& d : dropped_tables) {
        if (d == table) was_dropped = true;
      }
      if (!was_dropped) remaining.push_back(table);
    }
    if (remaining.empty()) {
      pending_cleanup_.erase(it);
    } else {
      it->second = std::move(remaining);
    }
  }
  return dropped;
}

Status CitusExtension::EnsureWorkerTxn(engine::Session& session,
                                       WorkerConnection* wc) {
  if (wc->txn_open) return Status::OK();
  CitusSessionState& state = SessionState(session);
  if (state.dist_txn_id.empty()) {
    state.dist_txn_id = NextDistTxnId();
    MarkDistTxnActive(state.dist_txn_id);
    // Tag the local transaction for distributed deadlock detection.
    session.SetVar("citus.distributed_txid", state.dist_txn_id);
    if (session.txn_open()) {
      node_->RegisterTxn(session.current_txn(), state.dist_txn_id);
    }
  }
  // One round trip: the id assignment and BEGIN are batched, as the real
  // extension batches assign_distributed_transaction_id with BEGIN.
  auto begin_r = wc->conn->QueryBatch(
      {"SET citus.distributed_txid = '" + state.dist_txn_id + "'", "BEGIN"});
  if (!begin_r.ok()) return begin_r.status();
  wc->txn_open = true;
  return Status::OK();
}

}  // namespace citusx::citus
