// Transaction-pooling front tier (pgbouncer-style), multiplexing many
// lightweight client sessions over a small, bounded set of physical
// connections to one backend node.
//
// PostgreSQL's process-per-connection model makes connections the scarcest
// resource in a cluster (§3.2.1): every open connection is a server-side
// backend process. A transaction pooler sits in front of a node and hands a
// physical connection to a client session only for the duration of one
// transaction (or one implicit-transaction statement); at the transaction
// boundary the session detaches and the connection is reusable by any other
// session. Millions of mostly-idle client sessions then need only as many
// backends as there are *concurrent transactions*.
//
// Session state under multiplexing: classic transaction pooling famously
// breaks PREPARE and SET because the next statement may land on a different
// backend. This pooler carries that state across backends with the same
// stamping idiom the Citus executor uses for per-connection metadata
// versions: each physical connection remembers which session's state (and
// which version of it) it last applied; on attach, a mismatch triggers a
// state replay — DISCARD ALL to neutralize the previous tenant, then the
// session's SETs and PREPAREs — batched with the client's statement into a
// single round trip. A session that re-attaches to the backend it last used
// replays nothing.
//
// Admission control: attach waits are FIFO and deadline-bounded. A session
// that cannot get a backend before `attach_timeout` fails with a retryable
// ResourceExhausted — never a hang — including while the backend node is
// refusing new connections.
#ifndef CITUSX_POOL_POOLER_H_
#define CITUSX_POOL_POOLER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "obs/metrics.h"

namespace citusx::pool {

class PooledSession;

struct PoolerOptions {
  /// Physical connections to the backend node (the bounded budget).
  int pool_size = 20;
  /// Max virtual time a session waits to attach before failing with a
  /// retryable ResourceExhausted. 0 = wait forever.
  sim::Time attach_timeout = 0;
  /// While attach is blocked (pool saturated or the node refusing
  /// connections), how often to re-probe / re-check the deadline.
  sim::Time retry_interval = 5 * sim::kMillisecond;
  /// Per-statement deadline applied to the physical connections (0 = none).
  sim::Time statement_timeout = 0;
};

/// Pools physical connections to one backend node and hands out
/// PooledSession handles. Create one per (pooler host, backend node) pair;
/// all methods must be called from simulated processes except the
/// constructor and destructor.
class TransactionPooler {
 public:
  /// `client` is the node the pooler runs on (nullptr = external driver
  /// machine). Gauges and counters register on the *backend* node's metric
  /// registry under "pool.*", so per-node pool state is observable wherever
  /// the node's other metrics are.
  TransactionPooler(sim::Simulation* sim, net::NodeDirectory* directory,
                    engine::Node* client, std::string server,
                    PoolerOptions options);
  ~TransactionPooler();

  TransactionPooler(const TransactionPooler&) = delete;
  TransactionPooler& operator=(const TransactionPooler&) = delete;

  /// Create a client session. Cheap: no connection is touched until the
  /// session's first statement.
  std::unique_ptr<PooledSession> OpenSession();

  const std::string& server() const { return server_; }
  const PoolerOptions& options() const { return options_; }

  /// Physical connections currently open (in use + idle).
  int physical_connections() const { return static_cast<int>(live_.size()); }

 private:
  friend class PooledSession;

  /// One pooled physical connection with its applied-state stamp.
  struct PhysicalConn {
    std::unique_ptr<net::Connection> conn;
    /// Pooled session whose state this backend currently holds (0 = fresh
    /// backend, nothing to discard) and the version of that state applied.
    /// The attach path replays state only on mismatch — the same
    /// stamp-compare-replay idiom as WorkerConnection::stamped_version.
    uint64_t applied_session = 0;
    uint64_t applied_state_version = 0;
    /// applied_session value for a backend whose state is unknown (a replay
    /// batch failed partway through): matches no session id, so the next
    /// attach always leads with DISCARD ALL. Marking such a backend 0
    /// ("fresh") instead would let leftover SETs and prepared statements
    /// leak to the next tenant.
    static constexpr uint64_t kDirtyBackend = ~0ull;
  };

  /// FIFO, deadline-bounded acquisition. Opens new connections up to
  /// pool_size; waits (retrying opens) otherwise. Fails with retryable
  /// ResourceExhausted once `attach_timeout` elapses.
  Result<PhysicalConn*> Acquire();
  /// Return a healthy connection to the free list, waking the next waiter.
  void Release(PhysicalConn* pc);
  /// Close and forget a connection (broken, or carrying an aborted
  /// transaction of unknown state).
  void Drop(PhysicalConn* pc);
  /// Erase a connection from live_ (closing it); no gauge adjustments.
  void Forget(PhysicalConn* pc);

  sim::Simulation* sim_;
  net::NodeDirectory* directory_;
  engine::Node* client_;
  std::string server_;
  PoolerOptions options_;
  uint64_t next_session_id_ = 1;

  std::vector<std::unique_ptr<PhysicalConn>> live_;
  std::deque<PhysicalConn*> free_;
  std::deque<sim::Process*> waiters_;  // FIFO attach queue
  int opening_ = 0;                    // connects in flight (reserve slots)
  /// Set false by the destructor; the waiter-wake ticker checks it before
  /// touching the pooler.
  std::shared_ptr<bool> alive_;
  bool ticker_running_ = false;
  void EnsureTicker();

  // Backend-node metric handles ("pool.*"), resolved at construction.
  obs::Counter* poolers_metric_ = nullptr;     // pool.poolers
  obs::Gauge* sessions_gauge_ = nullptr;       // pool.client_sessions
  obs::Gauge* in_use_gauge_ = nullptr;         // pool.in_use
  obs::Gauge* idle_gauge_ = nullptr;           // pool.idle
  obs::Gauge* waiters_gauge_ = nullptr;        // pool.waiters
  obs::Counter* attaches_metric_ = nullptr;    // pool.attaches
  obs::Counter* detaches_metric_ = nullptr;    // pool.detaches
  obs::Counter* replays_metric_ = nullptr;     // pool.state_replays
  obs::Counter* timeouts_metric_ = nullptr;    // pool.attach_timeouts
  obs::Histogram* wait_hist_ = nullptr;        // pool.attach_wait
};

/// A client session multiplexed over the pooler's physical connections.
/// Mirrors the net::Connection surface (Query / CopyIn) so drivers can use
/// either interchangeably. Single simulated process at a time, like a
/// client socket.
class PooledSession {
 public:
  ~PooledSession();

  PooledSession(const PooledSession&) = delete;
  PooledSession& operator=(const PooledSession&) = delete;

  /// Run one statement. Transaction control (BEGIN/COMMIT/ROLLBACK) pins
  /// and releases the physical connection; SET / PREPARE / DEALLOCATE /
  /// DISCARD additionally update the session's replayable state.
  Result<engine::QueryResult> Query(const std::string& sql);

  /// COPY rows through the session's connection (attaches like Query).
  Result<engine::QueryResult> CopyIn(
      const std::string& table, const std::vector<std::string>& columns,
      std::vector<std::vector<std::string>> rows);

  /// End the session. A connection pinned mid-transaction is closed (the
  /// server aborts the orphaned transaction), matching a client disconnect.
  void Close();

  uint64_t id() const { return id_; }
  bool in_txn() const { return in_txn_; }
  /// Number of replayable state entries (SET vars + prepared statements).
  int state_entries() const {
    return static_cast<int>(vars_.size() + prepares_.size());
  }

 private:
  friend class TransactionPooler;
  using PhysicalConn = TransactionPooler::PhysicalConn;
  PooledSession(TransactionPooler* pooler, uint64_t id)
      : pooler_(pooler), id_(id) {}

  /// Attach to a physical connection and run `sql` plus any state-replay
  /// prefix in one round trip.
  Result<engine::QueryResult> RunAttached(const std::string& sql);
  /// Statements re-establishing this session's state on a backend that last
  /// served someone else (DISCARD ALL + SETs + PREPAREs), or empty when the
  /// backend's stamp already matches.
  std::vector<std::string> ReplayPrefix(const PhysicalConn& pc) const;
  void MarkApplied(PhysicalConn* pc) {
    pc->applied_session = id_;
    pc->applied_state_version = state_version_;
  }
  void Detach();

  TransactionPooler* pooler_;
  uint64_t id_ = 0;
  bool closed_ = false;
  bool in_txn_ = false;
  PhysicalConn* attached_ = nullptr;

  /// Replayable session state, bumped through state_version_ whenever it
  /// changes so connection stamps can skip no-op replays.
  uint64_t state_version_ = 0;
  std::map<std::string, std::string> vars_;
  /// Prepared statements in creation order (replay must re-create them in
  /// order): name -> original PREPARE statement text.
  std::vector<std::pair<std::string, std::string>> prepares_;
};

}  // namespace citusx::pool

#endif  // CITUSX_POOL_POOLER_H_
