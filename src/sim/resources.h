// Resource models charged in virtual time: multi-core CPUs, IOPS-capped
// disks, and counting semaphores (connection slots).
//
// All state here is simulation-domain: only one simulated process runs at a
// time, so no locking is needed.
#ifndef CITUSX_SIM_RESOURCES_H_
#define CITUSX_SIM_RESOURCES_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace citusx::sim {

/// An n-core CPU. Consume(cost) occupies the earliest-free core for `cost`
/// virtual nanoseconds (FCFS by call order), modelling one single-threaded
/// backend process doing `cost` worth of work.
class CpuResource {
 public:
  CpuResource(Simulation* sim, int cores)
      : sim_(sim), core_busy_until_(static_cast<size_t>(cores), 0) {}

  /// Blocks (in virtual time) until the work completes. Returns false if the
  /// process was cancelled while waiting.
  bool Consume(Time cost) {
    if (cost <= 0) return true;
    auto it =
        std::min_element(core_busy_until_.begin(), core_busy_until_.end());
    Time start = std::max(sim_->now(), *it);
    Time end = start + cost;
    *it = end;
    busy_total_ += cost;
    return sim_->WaitUntil(end);
  }

  int cores() const { return static_cast<int>(core_busy_until_.size()); }

  /// Total CPU-nanoseconds consumed (for utilization reporting).
  Time busy_total() const { return busy_total_; }

 private:
  Simulation* sim_;
  std::vector<Time> core_busy_until_;
  Time busy_total_ = 0;
};

/// A disk with an IOPS cap and a fixed queue depth. Each I/O operation has
/// service time queue_depth/iops on one of queue_depth service channels, so
/// aggregate throughput is capped at `iops` and the unloaded latency matches
/// a network-attached disk (~1ms at depth 8 / 7500 IOPS).
class DiskResource {
 public:
  DiskResource(Simulation* sim, int64_t iops, int queue_depth = 8)
      : sim_(sim),
        service_time_(queue_depth * kSecond / std::max<int64_t>(iops, 1)),
        chan_busy_until_(static_cast<size_t>(queue_depth), 0) {}

  /// Perform `ops` I/O operations back-to-back on one channel.
  bool Io(int64_t ops) {
    if (ops <= 0) return true;
    auto it =
        std::min_element(chan_busy_until_.begin(), chan_busy_until_.end());
    Time start = std::max(sim_->now(), *it);
    Time end = start + ops * service_time_;
    *it = end;
    return sim_->WaitUntil(end);
  }

 private:
  Simulation* sim_;
  Time service_time_;
  std::vector<Time> chan_busy_until_;
};

/// FIFO counting semaphore; used for connection slots and worker pools.
class Semaphore {
 public:
  Semaphore(Simulation* sim, int64_t capacity)
      : sim_(sim), available_(capacity), capacity_(capacity) {}

  /// Acquire one unit, waiting FIFO. Returns false if cancelled.
  bool Acquire() {
    Process* self = Simulation::Current();
    if (available_ > 0 && waiters_.empty()) {
      available_--;
      return true;
    }
    waiters_.push_back(self);
    for (;;) {
      if (!sim_->Block()) {
        // Cancelled: remove self from the queue if still present.
        for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
          if (*it == self) {
            waiters_.erase(it);
            break;
          }
        }
        return false;
      }
      if (!waiters_.empty() && waiters_.front() == self && available_ > 0) {
        waiters_.pop_front();
        available_--;
        return true;
      }
    }
  }

  /// Try to acquire without waiting.
  bool TryAcquire() {
    if (available_ > 0 && waiters_.empty()) {
      available_--;
      return true;
    }
    return false;
  }

  void Release() {
    available_++;
    if (!waiters_.empty()) sim_->Wake(waiters_.front());
  }

  int64_t available() const { return available_; }
  int64_t capacity() const { return capacity_; }
  int64_t waiting() const { return static_cast<int64_t>(waiters_.size()); }

 private:
  Simulation* sim_;
  int64_t available_;
  int64_t capacity_;
  std::deque<Process*> waiters_;
};

}  // namespace citusx::sim

#endif  // CITUSX_SIM_RESOURCES_H_
