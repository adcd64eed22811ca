// Lock manager: row- and table-level locks with FIFO queues, simulated
// blocking, wait-graph export (for local and distributed deadlock detection),
// and waiter cancellation (how deadlock victims are killed).
#ifndef CITUSX_ENGINE_LOCKS_H_
#define CITUSX_ENGINE_LOCKS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "storage/heap.h"
#include "storage/mvcc.h"

namespace citusx::engine {

using storage::TxnId;

/// What is being locked: a row of a table, or the whole table.
struct LockTag {
  uint64_t oid = 0;
  storage::RowId rid = kTableRid;

  static constexpr storage::RowId kTableRid = ~storage::RowId{0};

  bool operator==(const LockTag& o) const {
    return oid == o.oid && rid == o.rid;
  }
};

struct LockTagHash {
  size_t operator()(const LockTag& t) const {
    return static_cast<size_t>(t.oid * 0x9e3779b97f4a7c15ULL + t.rid);
  }
};

enum class LockMode : uint8_t { kShared, kExclusive };

/// An edge in the wait-for graph: `waiter` waits for `holder`.
struct WaitEdge {
  TxnId waiter;
  TxnId holder;
};

class LockManager {
 public:
  explicit LockManager(sim::Simulation* sim) : sim_(sim) {}

  /// Acquire (blocking in virtual time). Reentrant for the same transaction.
  /// Returns Deadlock if this waiter is cancelled as a deadlock victim, or
  /// Cancelled on simulation shutdown.
  Status Acquire(const LockTag& tag, TxnId txn, LockMode mode);

  /// Release everything held by `txn` and grant unblocked waiters.
  void ReleaseAll(TxnId txn);

  /// Cancel `txn` if it is currently waiting for a lock. Returns true if a
  /// waiter was cancelled.
  bool CancelWaiter(TxnId txn);

  /// Current wait-for edges (one per waiter/holder pair).
  std::vector<WaitEdge> WaitEdges() const;

  /// True if `txn` currently waits for a lock.
  bool IsWaiting(TxnId txn) const;

  int64_t locks_held() const;

  /// Mirror lock waits / wait time / deadlock cancellations into a registry.
  void BindMetrics(obs::Metrics* metrics) {
    waits_metric_ = metrics->counter("locks.waits");
    wait_time_metric_ = metrics->histogram("locks.wait_time");
    deadlocks_metric_ = metrics->counter("locks.deadlock_cancels");
  }

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
    sim::Process* process;
    bool granted = false;
    bool cancelled = false;
  };
  struct LockState {
    std::map<TxnId, LockMode> holders;
    std::deque<std::shared_ptr<Waiter>> queue;
  };

  bool CanGrant(const LockState& state, TxnId txn, LockMode mode) const;
  void GrantWaiters(LockState* state);

  sim::Simulation* sim_;
  std::unordered_map<LockTag, LockState, LockTagHash> locks_;
  std::unordered_map<TxnId, std::vector<LockTag>> held_by_txn_;
  obs::Counter* waits_metric_ = nullptr;
  obs::Histogram* wait_time_metric_ = nullptr;
  obs::Counter* deadlocks_metric_ = nullptr;
};

}  // namespace citusx::engine

#endif  // CITUSX_ENGINE_LOCKS_H_
