#include "engine/locks.h"

namespace citusx::engine {

bool LockManager::CanGrant(const LockState& state, TxnId txn,
                           LockMode mode) const {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::Acquire(const LockTag& tag, TxnId txn, LockMode mode) {
  std::shared_ptr<Waiter> waiter;
  {
    sim::NoYieldScope no_yield;
    LockState& state = locks_[tag];
    auto held = state.holders.find(txn);
    if (held != state.holders.end()) {
      if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
        return Status::OK();  // already strong enough
      }
      // Upgrade request falls through to the wait path below.
    }
    // Fairness: join the queue if anyone is already waiting, even if the
    // lock is momentarily free (prevents starvation of exclusive waiters).
    if (state.queue.empty() && CanGrant(state, txn, mode)) {
      bool first_grant = state.holders.find(txn) == state.holders.end();
      state.holders[txn] = mode;
      if (first_grant) held_by_txn_[txn].push_back(tag);
      return Status::OK();
    }
    waiter = std::make_shared<Waiter>();
    waiter->txn = txn;
    waiter->mode = mode;
    waiter->process = sim::Simulation::Current();
    state.queue.push_back(waiter);
  }
  if (waits_metric_ != nullptr) waits_metric_->Inc();
  const sim::Time wait_start = sim_->now();
  auto record_wait = [&] {
    if (wait_time_metric_ != nullptr) {
      wait_time_metric_->Record(sim_->now() - wait_start);
    }
  };
  for (;;) {
    if (!sim_->Block()) {
      // Simulation shutdown: drop out of the queue.
      sim::NoYieldScope no_yield;
      auto& q = locks_[tag].queue;
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->get() == waiter.get()) {
          q.erase(it);
          break;
        }
      }
      return Status::Cancelled("simulation stopping");
    }
    sim::NoYieldScope no_yield;
    if (waiter->cancelled) {
      record_wait();
      return Status::Deadlock("canceling statement due to deadlock");
    }
    if (waiter->granted) {
      record_wait();
      bool first_grant = true;
      auto it = held_by_txn_.find(txn);
      if (it != held_by_txn_.end()) {
        for (const auto& t : it->second) {
          if (t == tag) first_grant = false;
        }
      }
      if (first_grant) held_by_txn_[txn].push_back(tag);
      return Status::OK();
    }
  }
}

void LockManager::GrantWaiters(LockState* state) {
  while (!state->queue.empty()) {
    auto& w = state->queue.front();
    if (!CanGrant(*state, w->txn, w->mode)) break;
    state->holders[w->txn] = w->mode;
    w->granted = true;
    sim_->Wake(w->process);
    state->queue.pop_front();
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  sim::NoYieldScope no_yield;
  auto it = held_by_txn_.find(txn);
  if (it == held_by_txn_.end()) return;
  std::vector<LockTag> tags = std::move(it->second);
  held_by_txn_.erase(it);
  for (const auto& tag : tags) {
    auto lit = locks_.find(tag);
    if (lit == locks_.end()) continue;
    lit->second.holders.erase(txn);
    GrantWaiters(&lit->second);
    if (lit->second.holders.empty() && lit->second.queue.empty()) {
      locks_.erase(lit);
    }
  }
}

bool LockManager::CancelWaiter(TxnId txn) {
  sim::NoYieldScope no_yield;
  for (auto& [tag, state] : locks_) {
    for (auto it = state.queue.begin(); it != state.queue.end(); ++it) {
      if ((*it)->txn == txn && !(*it)->granted && !(*it)->cancelled) {
        (*it)->cancelled = true;
        if (deadlocks_metric_ != nullptr) deadlocks_metric_->Inc();
        sim_->Wake((*it)->process);
        state.queue.erase(it);
        GrantWaiters(&state);
        return true;
      }
    }
  }
  return false;
}

std::vector<WaitEdge> LockManager::WaitEdges() const {
  std::vector<WaitEdge> edges;
  for (const auto& [tag, state] : locks_) {
    for (const auto& w : state.queue) {
      if (w->granted || w->cancelled) continue;
      for (const auto& [holder, mode] : state.holders) {
        if (holder != w->txn) edges.push_back(WaitEdge{w->txn, holder});
      }
      // Waiters also wait for incompatible earlier waiters (queue order).
      for (const auto& other : state.queue) {
        if (other.get() == w.get()) break;
        if (other->txn != w->txn) {
          edges.push_back(WaitEdge{w->txn, other->txn});
        }
      }
    }
  }
  return edges;
}

bool LockManager::IsWaiting(TxnId txn) const {
  for (const auto& [tag, state] : locks_) {
    for (const auto& w : state.queue) {
      if (w->txn == txn && !w->granted && !w->cancelled) return true;
    }
  }
  return false;
}

int64_t LockManager::locks_held() const {
  int64_t n = 0;
  for (const auto& [tag, state] : locks_) {
    n += static_cast<int64_t>(state.holders.size());
  }
  return n;
}

}  // namespace citusx::engine
