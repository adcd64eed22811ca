// Distributed transactions (paper §3.7): single-node delegation, two-phase
// commit with commit records, 2PC recovery, and distributed deadlock
// detection.
#include <algorithm>

#include "citus/extension.h"
#include "citus/gucs.h"
#include "citus/planner.h"
#include "sim/channel.h"

namespace citusx::citus {

namespace {

// Run `fn(wc)` for every connection concurrently (one simulated process
// each) and return the first failure. Used for the parallel phases of 2PC.
Status ForAllParallel(sim::Simulation* sim,
                      const std::vector<WorkerConnection*>& conns,
                      const std::function<Status(WorkerConnection*)>& fn) {
  if (conns.empty()) return Status::OK();
  if (conns.size() == 1) return fn(conns[0]);
  struct Shared {
    sim::Channel<Status> done;
    explicit Shared(sim::Simulation* s) : done(s) {}
  };
  auto shared = std::make_shared<Shared>(sim);
  for (WorkerConnection* wc : conns) {
    sim->Spawn(
        "citus:2pc", [shared, wc, fn] { shared->done.Send(fn(wc)); },
        /*daemon=*/true);
  }
  Status first;
  for (size_t i = 0; i < conns.size(); i++) {
    auto st = shared->done.Receive();
    if (!st.has_value()) return Status::Cancelled("simulation stopping");
    if (!st->ok() && first.ok()) first = *st;
  }
  return first;
}

// Insert a commit record (gid) into pg_dist_transaction within the
// session's *current* local transaction, so it becomes durable/visible
// atomically with the local commit (§3.7.2).
Status WriteCommitRecord(CitusExtension* ext, engine::Session& session,
                         const std::string& gid) {
  engine::TableInfo* table =
      ext->node()->catalog().Find(CitusExtension::kCommitRecordsTable);
  if (table == nullptr) {
    return Status::Internal("pg_dist_transaction is missing");
  }
  engine::ExecContext ctx = session.MakeExecContext(nullptr);
  return engine::InsertRowWithIndexes(ctx, table, {sql::Datum::Text(gid)},
                                      false, nullptr);
}

// Remove a finalized commit record (best effort, own small transaction
// context; runs post-commit or from the recovery daemon).
void DeleteCommitRecord(CitusExtension* ext, engine::Session& session,
                        const std::string& gid) {
  CITUSX_IGNORE_STATUS(
      session.Execute("DELETE FROM pg_dist_transaction WHERE gid = " +
                      QuoteSqlLiteral(gid)),
      "commit-record cleanup is best-effort; recovery skips finished gids");
}

}  // namespace

Status CitusExtension::PreCommit(engine::Session& session) {
  if (session.extension_state == nullptr) return Status::OK();
  CitusSessionState& state = SessionState(session);
  std::vector<WorkerConnection*> open;
  for (auto& [worker, conns] : state.pool) {
    for (auto& wc : conns) {
      if (wc->txn_open) open.push_back(wc.get());
    }
  }
  if (open.empty()) return Status::OK();
  // MX (§3.10): a worker-originated distributed transaction must not enter
  // the commit protocol through a metadata copy that went stale mid-flight
  // (e.g. this node restarted or observed a newer version) — the retryable
  // rejection aborts the transaction so the client replays it against
  // freshly synced placements.
  if (!IsMetadataAuthority() && !MxReady()) {
    return MxStaleRejection(
        "node " + node_->name() +
        " lost its synced metadata before distributed commit");
  }

  std::vector<WorkerConnection*> writers, readers;
  for (WorkerConnection* wc : open) {
    (wc->did_write ? writers : readers).push_back(wc);
  }
  // Read-only participants just commit (they hold no pending writes).
  Status reader_status =
      ForAllParallel(node_->sim(), readers, [](WorkerConnection* wc) {
        auto r = wc->conn->Query("COMMIT");
        wc->txn_open = false;
        wc->groups.clear();
        return r.status();
      });
  if (!reader_status.ok()) return reader_status;
  if (writers.empty()) {
    metric_1pc_commits->Inc();
    return Status::OK();
  }
  if (writers.size() == 1) {
    // Single-node transaction: delegate commit responsibility (§3.7.1).
    WorkerConnection* wc = writers[0];
    auto r = wc->conn->Query("COMMIT");
    wc->txn_open = false;
    wc->did_write = false;
    wc->groups.clear();
    metric_1pc_commits->Inc();
    if (!r.ok()) return r.status();
    return Status::OK();
  }
  // Two-phase commit across all writers (§3.7.2); prepares go out in
  // parallel over the open connections. The coordinator's local commit
  // record is the 2PC decision record (recovery commits/aborts prepared
  // worker txns based on it), so its flush cannot be skipped even when the
  // local transaction wrote nothing itself.
  if (twophase_fault_hook) {
    // A failure here models the coordinator dying before any PREPARE went
    // out: no worker holds a prepared transaction, everything aborts.
    CITUSX_RETURN_IF_ERROR(twophase_fault_hook(TwoPhasePoint::kBeforePrepare));
  }
  session.MarkTxnWrite();
  std::map<WorkerConnection*, std::string> gids;
  int seq = 0;
  for (WorkerConnection* wc : writers) {
    gids[wc] = MakeGid(state.dist_txn_id, seq++);
  }
  Status failure = ForAllParallel(
      node_->sim(), writers, [this, &gids](WorkerConnection* wc) {
        const std::string& gid = gids[wc];
        auto r = wc->conn->Query("PREPARE TRANSACTION " +
                                 QuoteSqlLiteral(gid));
        if (!r.ok()) return r.status();
        metric_prepares->Inc();
        wc->prepared_gid = gid;
        wc->txn_open = false;
        return Status::OK();
      });
  if (!failure.ok()) {
    // Abort everything prepared or still open; the local txn then aborts.
    for (WorkerConnection* wc : writers) {
      if (!wc->prepared_gid.empty()) {
        CITUSX_IGNORE_STATUS(
            wc->conn->Query("ROLLBACK PREPARED " +
                            QuoteSqlLiteral(wc->prepared_gid)),
            "abort path; the recovery daemon retries unreachable workers");
        wc->prepared_gid.clear();
      } else if (wc->txn_open) {
        CITUSX_IGNORE_STATUS(
            wc->conn->Query("ROLLBACK"),
            "abort path; a dropped connection aborts the remote txn anyway");
        wc->txn_open = false;
      }
      wc->did_write = false;
      wc->groups.clear();
    }
    return failure;
  }
  if (twophase_fault_hook) {
    Status s = twophase_fault_hook(TwoPhasePoint::kAfterPrepare);
    if (!s.ok()) {
      // The coordinator died between PREPARE and the commit record: its
      // session memory of the prepared gids is gone, so the abort path
      // cannot roll them back. The workers keep the prepared transactions
      // until the recovery daemon — finding no commit record — aborts them.
      for (WorkerConnection* wc : writers) {
        wc->prepared_gid.clear();
        wc->did_write = false;
        wc->groups.clear();
      }
      return s;
    }
  }
  // Commit records become durable with the local commit that follows.
  for (WorkerConnection* wc : writers) {
    CITUSX_RETURN_IF_ERROR(WriteCommitRecord(this, session, wc->prepared_gid));
  }
  if (twophase_fault_hook) {
    // A failure here lands between the record insert and the local commit:
    // the records roll back with the local transaction, so recovery aborts
    // the prepared transactions — same outcome as kAfterPrepare. The
    // crash-after-durable-record case is modelled by
    // suppress_post_commit_2pc_once instead (see PostCommit).
    Status s = twophase_fault_hook(TwoPhasePoint::kAfterCommitRecord);
    if (!s.ok()) {
      for (WorkerConnection* wc : writers) {
        wc->prepared_gid.clear();
        wc->did_write = false;
        wc->groups.clear();
      }
      return s;
    }
  }
  metric_2pc_commits->Inc();
  return Status::OK();
}

void CitusExtension::PostCommit(engine::Session& session) {
  if (session.extension_state == nullptr) return;
  CitusSessionState& state = SessionState(session);
  std::vector<WorkerConnection*> prepared;
  for (auto& [worker, conns] : state.pool) {
    for (auto& wc : conns) {
      if (!wc->prepared_gid.empty()) prepared.push_back(wc.get());
    }
  }
  if (suppress_post_commit_2pc_once && !prepared.empty()) {
    // Models the coordinator crashing right after its local commit made the
    // records durable: COMMIT PREPARED never goes out and the session's
    // memory of the gids is lost. The recovery daemon finds the records and
    // finishes the commit — the transaction was acknowledged and must win.
    suppress_post_commit_2pc_once = false;
    for (WorkerConnection* wc : prepared) wc->prepared_gid.clear();
    prepared.clear();
  }
  // Best effort, in parallel: failures are repaired by 2PC recovery.
  // Finalized commit records are garbage-collected lazily by the
  // maintenance daemon, keeping the commit path short (as in real Citus).
  CITUSX_IGNORE_STATUS(
      ForAllParallel(node_->sim(), prepared,
                     [](WorkerConnection* wc) {
                       CITUSX_IGNORE_STATUS(
                           wc->conn->Query("COMMIT PREPARED " +
                                           QuoteSqlLiteral(wc->prepared_gid)),
                           "commit already decided; the recovery daemon "
                           "replays COMMIT PREPARED from the commit record");
                       wc->prepared_gid.clear();
                       return Status::OK();
                     }),
      "per-worker failures handled above; the fan-out itself cannot fail");
  for (auto& [worker, conns] : state.pool) {
    for (auto& wc : conns) {
      wc->txn_open = false;
      wc->did_write = false;
      wc->groups.clear();
    }
  }
  MarkDistTxnEnded(state.dist_txn_id);
  state.dist_txn_id.clear();
  // Clear the deadlock-detection tag: the next local transaction on this
  // session must not re-register under the ended distributed id.
  session.SetVar("citus.distributed_txid",
                 std::string(GucDefault("citus.distributed_txid")));
}

void CitusExtension::PostAbort(engine::Session& session) {
  if (session.extension_state == nullptr) return;
  CitusSessionState& state = SessionState(session);
  for (auto& [worker, conns] : state.pool) {
    for (auto& wc : conns) {
      if (!wc->prepared_gid.empty()) {
        CITUSX_IGNORE_STATUS(
            wc->conn->Query("ROLLBACK PREPARED " +
                            QuoteSqlLiteral(wc->prepared_gid)),
            "abort path; the recovery daemon retries unreachable workers");
        wc->prepared_gid.clear();
      } else if (wc->txn_open) {
        CITUSX_IGNORE_STATUS(
            wc->conn->Query("ROLLBACK"),
            "abort path; a dropped connection aborts the remote txn anyway");
      }
      wc->txn_open = false;
      wc->did_write = false;
      wc->groups.clear();
    }
  }
  MarkDistTxnEnded(state.dist_txn_id);
  state.dist_txn_id.clear();
  // Clear the deadlock-detection tag: the next local transaction on this
  // session must not re-register under the ended distributed id.
  session.SetVar("citus.distributed_txid",
                 std::string(GucDefault("citus.distributed_txid")));
}

Result<int> CitusExtension::RecoverTwoPhaseCommits(engine::Session& session) {
  // Read the durable commit records.
  CITUSX_ASSIGN_OR_RETURN(engine::QueryResult records,
                          session.Execute("SELECT gid FROM pg_dist_transaction"));
  std::set<std::string> committed;
  for (const auto& row : records.rows) committed.insert(row[0].text_value());

  int finalized = 0;
  std::string my_prefix = "citusx_" + node_->name() + "_";
  for (const std::string& worker : metadata_->workers) {
    engine::Node* wnode = directory_->Find(worker);
    if (wnode == nullptr || wnode->is_down()) continue;
    // List prepared transactions on the worker. We query the node's
    // transaction manager (the real extension reads pg_prepared_xacts).
    std::vector<std::string> gids = wnode->txns().PreparedGids();
    for (const std::string& gid : gids) {
      if (gid.compare(0, my_prefix.size(), my_prefix) != 0) {
        continue;  // initiated by a different coordinator
      }
      // Skip transactions still in flight on this node (their 2PC is
      // between PREPARE and the local commit).
      std::string dist_id = gid.substr(7);  // strip "citusx_"
      size_t seq_pos = dist_id.find_last_of('_');
      if (seq_pos != std::string::npos) dist_id = dist_id.substr(0, seq_pos);
      if (IsDistTxnActive(dist_id)) continue;
      CITUSX_ASSIGN_OR_RETURN(WorkerConnection * wc,
                              GetConnection(session, worker, {0, -1}));
      if (committed.count(gid) > 0) {
        // The coordinator committed: the prepared transaction must commit.
        auto r = wc->conn->Query("COMMIT PREPARED " + QuoteSqlLiteral(gid));
        if (r.ok()) {
          DeleteCommitRecord(this, session, gid);
          finalized++;
          metric_recovered->Inc();
        }
      } else {
        // No commit record for an ended transaction: it must abort.
        auto r = wc->conn->Query("ROLLBACK PREPARED " + QuoteSqlLiteral(gid));
        if (r.ok()) {
          finalized++;
          metric_recovered->Inc();
        }
      }
    }
  }
  // Garbage-collect commit records whose transactions completed: no worker
  // holds the prepared transaction any more and the origin txn has ended.
  std::set<std::string> still_prepared;
  for (const std::string& worker : metadata_->workers) {
    engine::Node* wnode = directory_->Find(worker);
    if (wnode == nullptr || wnode->is_down()) continue;
    for (const auto& gid : wnode->txns().PreparedGids()) {
      still_prepared.insert(gid);
    }
  }
  for (const std::string& gid : committed) {
    if (still_prepared.count(gid) > 0) continue;
    std::string dist_id = gid.size() > 7 ? gid.substr(7) : gid;
    size_t seq_pos = dist_id.find_last_of('_');
    if (seq_pos != std::string::npos) dist_id = dist_id.substr(0, seq_pos);
    if (IsDistTxnActive(dist_id)) continue;
    DeleteCommitRecord(this, session, gid);
  }
  return finalized;
}

bool CitusExtension::DetectDistributedDeadlocks() {
  // Gather wait edges from every node and merge processes participating in
  // the same distributed transaction (§3.7.3).
  struct DistEdge {
    std::string waiter;
    std::string holder;
  };
  std::vector<DistEdge> edges;
  std::vector<std::string> nodes = metadata_->workers;
  nodes.push_back(node_->name());
  for (const auto& name : nodes) {
    engine::Node* n = directory_->Find(name);
    if (n == nullptr || n->is_down()) continue;
    for (const auto& e : n->DistributedWaitEdges()) {
      // Purely local waits are handled by the local detector; merge by
      // distributed txn id where present, otherwise synthesize a node-local
      // identity so cross-txn chains through local txns still connect.
      std::string waiter = e.waiter_dist_id.empty()
                               ? StrFormat("local_%s_%llu", name.c_str(),
                                           static_cast<unsigned long long>(
                                               e.waiter_local))
                               : e.waiter_dist_id;
      std::string holder = e.holder_dist_id.empty()
                               ? StrFormat("local_%s_%llu", name.c_str(),
                                           static_cast<unsigned long long>(
                                               e.holder_local))
                               : e.holder_dist_id;
      edges.push_back(DistEdge{waiter, holder});
    }
  }
  if (edges.empty()) return false;
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& e : edges) graph[e.waiter].push_back(e.holder);
  // DFS cycle detection; victim = youngest distributed txn in the cycle
  // (largest sequence number suffix in "<node>_<n>").
  auto age_key = [](const std::string& id) -> int64_t {
    size_t pos = id.find_last_of('_');
    if (pos == std::string::npos) return 0;
    return std::strtoll(id.c_str() + pos + 1, nullptr, 10);
  };
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  std::string victim;
  std::function<bool(const std::string&)> dfs =
      [&](const std::string& t) -> bool {
    color[t] = 1;
    stack.push_back(t);
    for (const auto& next : graph[t]) {
      if (color[next] == 1) {
        bool in_cycle = false;
        for (const auto& s : stack) {
          if (s == next) in_cycle = true;
          if (in_cycle && !s.empty() && s.rfind("local_", 0) != 0) {
            if (victim.empty() || age_key(s) > age_key(victim)) victim = s;
          }
        }
        return true;
      }
      if (color[next] == 0 && dfs(next)) return true;
    }
    stack.pop_back();
    color[t] = 2;
    return false;
  };
  for (const auto& [t, succ] : graph) {
    if (color[t] == 0) {
      stack.clear();
      if (dfs(t)) break;
    }
  }
  if (victim.empty()) return false;
  // Cancel the victim's waiting backend wherever it waits.
  for (const auto& name : nodes) {
    engine::Node* n = directory_->Find(name);
    if (n == nullptr || n->is_down()) continue;
    if (n->CancelDistributedTxn(victim)) {
      deadlocks_detected++;
      return true;
    }
  }
  return false;
}

}  // namespace citusx::citus
