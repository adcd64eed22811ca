// Per-node transaction manager: txn id assignment, commit state, snapshots,
// prepared transactions (the substrate for Citus 2PC).
#ifndef CITUSX_ENGINE_TXN_H_
#define CITUSX_ENGINE_TXN_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/mvcc.h"

namespace citusx::engine {

using storage::Snapshot;
using storage::TxnId;

enum class TxnState : uint8_t {
  kInProgress,
  kCommitted,
  kAborted,
  kPrepared,
};

/// Metadata about a prepared (2PC) transaction. Survives node restarts
/// (PostgreSQL persists prepared state in the WAL; we keep it across
/// simulated crashes).
struct PreparedTxn {
  std::string gid;
  TxnId xid = storage::kInvalidTxn;
};

class TxnManager : public storage::TxnStatusResolver {
 public:
  TxnManager() { states_.push_back(TxnState::kAborted); }  // xid 0 invalid

  /// Start a transaction; returns its id.
  TxnId Begin();

  void Commit(TxnId xid);
  void Abort(TxnId xid);

  /// PREPARE TRANSACTION 'gid': the transaction keeps its locks and can be
  /// committed or aborted later, surviving restarts.
  Status Prepare(TxnId xid, const std::string& gid);
  /// Returns the transaction id that was finalized (caller releases locks).
  Result<TxnId> CommitPrepared(const std::string& gid);
  Result<TxnId> RollbackPrepared(const std::string& gid);

  /// GIDs of all currently prepared transactions (2PC recovery polls this).
  std::vector<std::string> PreparedGids() const;

  /// An MVCC snapshot for `self` at the current moment.
  Snapshot TakeSnapshot(TxnId self) const;

  /// Oldest transaction id still in progress (vacuum horizon).
  TxnId OldestActive() const;

  TxnState state(TxnId xid) const {
    return xid < states_.size() ? states_[xid] : TxnState::kInProgress;
  }

  // storage::TxnStatusResolver:
  bool IsCommitted(TxnId xid) const override {
    return state(xid) == TxnState::kCommitted;
  }
  bool IsAborted(TxnId xid) const override {
    return state(xid) == TxnState::kAborted;
  }

  /// Simulated crash: all in-progress transactions abort; prepared
  /// transactions survive. Returns the aborted transaction ids.
  std::vector<TxnId> CrashRecovery();

  /// Mirror commit/abort/prepare counts into a metrics registry.
  void BindMetrics(obs::Metrics* metrics) {
    commits_metric_ = metrics->counter("txn.commits");
    aborts_metric_ = metrics->counter("txn.aborts");
    prepares_metric_ = metrics->counter("txn.prepares");
  }

 private:
  std::vector<TxnState> states_;  // indexed by xid
  std::set<TxnId> active_;        // in-progress (incl. prepared)
  std::map<std::string, PreparedTxn> prepared_;
  obs::Counter* commits_metric_ = nullptr;
  obs::Counter* aborts_metric_ = nullptr;
  obs::Counter* prepares_metric_ = nullptr;
};

}  // namespace citusx::engine

#endif  // CITUSX_ENGINE_TXN_H_
