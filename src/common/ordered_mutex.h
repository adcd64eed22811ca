// Lock-rank-ordered mutex: the project's only sanctioned mutual-exclusion
// primitive (cituslint rule `raw-mutex` bans raw std::mutex — and the
// un-annotated std guard templates — outside this header).
//
// Every OrderedMutex is declared with a rank from the global table below,
// and a thread may only acquire mutexes in strictly increasing rank order.
// That makes cross-subsystem lock cycles impossible by construction: rank
// inversions are rejected statically by cituslint (lexically nested guards)
// and dynamically by a per-thread held-rank stack that aborts on violation.
// This is the static/structural complement to the *distributed* deadlock
// detector, which handles data locks held across nodes (paper §3.7.3).
//
// Mutexes here protect in-process registries. Simulated processes are
// fibers on one OS thread (one runs at a time), so the hard rule is: never
// hold an OrderedMutex across a simulation yield
// (sim::Simulation::Block/WaitFor/WaitUntil) — the next fiber to take the
// same mutex would re-lock a std::mutex its own thread already owns. Keep
// critical sections to pure memory manipulation. cituslint's
// interprocedural `blocking-under-lock` rule enforces this statically, and
// the simulation kernel aborts any fiber switch made while HeldLockDepth()
// is nonzero; Clang's -Wthread-safety verifies the GUARDED_BY/REQUIRES
// discipline (see common/thread_annotations.h).
#ifndef CITUSX_COMMON_ORDERED_MUTEX_H_
#define CITUSX_COMMON_ORDERED_MUTEX_H_

#include <mutex>

#include "common/thread_annotations.h"

namespace citusx {

/// The global lock-rank table, in acquisition order: holding a mutex of
/// rank r, a thread may only acquire mutexes of rank > r. Outer
/// (coarse, extension-level) locks rank low; inner (leaf, scheduler-level)
/// locks rank high. cituslint parses this enum — keep one enumerator per
/// line with an explicit value.
enum class LockRank : int {
  kConnectionPool = 10,   // citus shared connection counters / down markers
  kCatalog = 20,          // engine per-node catalog table registry
  kCitusMetadata = 30,    // citus distributed metadata (pg_dist_*)
  kLockTable = 40,        // engine lock manager's lock table
  kMetricsRegistry = 50,  // obs metrics name -> handle maps
  kTraceCollector = 60,   // obs distributed trace span buffer
};

/// Short human-readable name ("ConnectionPool", ...).
const char* LockRankName(LockRank rank);

/// How many OrderedMutexes the calling thread holds.
int HeldLockDepth();

/// The rank of the calling thread's most recently acquired OrderedMutex.
/// Pre: HeldLockDepth() > 0.
LockRank InnermostHeldRank();

/// A std::mutex that participates in the global rank order and in Clang's
/// thread-safety analysis. Satisfies Lockable, but do NOT wrap it in
/// std::lock_guard/std::unique_lock: libstdc++'s guards carry no
/// thread-safety annotations, so the compiler cannot see the acquisition.
/// Use MutexLock below instead (cituslint enforces this).
class CAPABILITY("ordered_mutex") OrderedMutex {
 public:
  explicit OrderedMutex(LockRank rank) : rank_(rank) {}

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  /// Aborts the process with a diagnostic if the calling thread already
  /// holds a mutex of equal or higher rank.
  void lock() ACQUIRE();
  void unlock() RELEASE();

  /// Non-blocking acquire. Rank order is still enforced (an out-of-order
  /// try_lock aborts rather than deadlocking later); returns false only
  /// when the mutex is held by another thread.
  bool try_lock() TRY_ACQUIRE(true);

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  LockRank rank_;
};

/// Scoped lock for the common case, equivalent to
/// std::lock_guard<OrderedMutex> but visible to -Wthread-safety.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(OrderedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() { mu_.unlock(); }

 private:
  OrderedMutex& mu_;
};

}  // namespace citusx

#endif  // CITUSX_COMMON_ORDERED_MUTEX_H_
