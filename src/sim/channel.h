// An unbounded message queue between simulated processes; the building block
// for the simulated network and for request/response handoff.
#ifndef CITUSX_SIM_CHANNEL_H_
#define CITUSX_SIM_CHANNEL_H_

#include <deque>
#include <optional>
#include <utility>

#include "sim/simulation.h"

namespace citusx::sim {

/// FIFO channel. Send never blocks; Receive blocks until a message arrives
/// or the channel is closed. Simulation-domain: no locking required.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation* sim) : sim_(sim) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Send(T value) {
    queue_.push_back(std::move(value));
    if (!waiters_.empty()) sim_->Wake(waiters_.front());
  }

  /// Returns nullopt when the channel is closed and drained, or when the
  /// receiving process is cancelled.
  std::optional<T> Receive() {
    Process* self = Simulation::Current();
    for (;;) {
      if (!queue_.empty() && (waiters_.empty() || waiters_.front() == self)) {
        if (!waiters_.empty()) waiters_.pop_front();
        T v = std::move(queue_.front());
        queue_.pop_front();
        return v;
      }
      if (closed_) {
        RemoveWaiter(self);
        return std::nullopt;
      }
      if (!IsWaiting(self)) waiters_.push_back(self);
      if (!sim_->Block()) {
        RemoveWaiter(self);
        return std::nullopt;
      }
    }
  }

  /// Close the channel and wake all waiters; pending messages can still be
  /// received.
  void Close() {
    closed_ = true;
    for (Process* w : waiters_) sim_->Wake(w);
  }

  bool closed() const { return closed_; }
  size_t size() const { return queue_.size(); }

 private:
  bool IsWaiting(Process* p) const {
    for (Process* w : waiters_) {
      if (w == p) return true;
    }
    return false;
  }
  void RemoveWaiter(Process* p) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == p) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Simulation* sim_;
  std::deque<T> queue_;
  std::deque<Process*> waiters_;
  bool closed_ = false;
};

}  // namespace citusx::sim

#endif  // CITUSX_SIM_CHANNEL_H_
