#include "sim/fault.h"

namespace citusx::sim {

bool FaultInjector::Crash(const std::string& target) {
  auto it = targets_.find(target);
  if (it == targets_.end() || !it->second.crash) return false;
  Count(FaultKind::kCrash, target);
  it->second.crash();
  return true;
}

bool FaultInjector::Restart(const std::string& target) {
  auto it = targets_.find(target);
  if (it == targets_.end() || !it->second.restart) return false;
  Count(FaultKind::kRestart, target);
  it->second.restart();
  return true;
}

void FaultInjector::ScheduleCrash(Time at, const std::string& target,
                                  Time down_for) {
  sim_->Spawn(
      "fault:crash:" + target,
      [this, at, target, down_for] {
        if (!sim_->WaitUntil(at)) return;
        Crash(target);
        if (down_for < 0) return;
        if (!sim_->WaitFor(down_for)) return;
        Restart(target);
      },
      /*daemon=*/true);
}

void FaultInjector::SetConnectionDropProbability(const std::string& target,
                                                 double p) {
  net_[target].drop_probability = p;
  armed_ = true;
}

void FaultInjector::DropNextRoundTrips(const std::string& target, int n) {
  net_[target].drop_next = n;
  armed_ = true;
}

void FaultInjector::SetDelaySpike(const std::string& target, Time extra,
                                  Time until) {
  NetFaults& f = net_[target];
  f.delay_extra = extra;
  f.delay_until = until;
  armed_ = true;
}

void FaultInjector::SetRefuseConnections(const std::string& target,
                                         bool refuse) {
  net_[target].refuse = refuse;
  armed_ = true;
}

bool FaultInjector::ShouldDropRoundTrip(const std::string& target) {
  auto it = net_.find(target);
  if (it == net_.end()) return false;
  NetFaults& f = it->second;
  if (f.drop_next > 0) {
    f.drop_next--;
    Count(FaultKind::kConnectionDrop, target);
    return true;
  }
  if (f.drop_probability > 0 && rng_.Chance(f.drop_probability)) {
    Count(FaultKind::kConnectionDrop, target);
    return true;
  }
  return false;
}

Time FaultInjector::ExtraDelay(const std::string& target) {
  auto it = net_.find(target);
  if (it == net_.end()) return 0;
  NetFaults& f = it->second;
  if (f.delay_extra <= 0 || sim_->now() >= f.delay_until) return 0;
  Count(FaultKind::kDelaySpike, target);
  return f.delay_extra;
}

bool FaultInjector::IsRefusingConnections(const std::string& target) {
  auto it = net_.find(target);
  if (it == net_.end() || !it->second.refuse) return false;
  Count(FaultKind::kRefusal, target);
  return true;
}

int64_t FaultInjector::total_injected() const {
  int64_t total = 0;
  for (int64_t c : counts_) total += c;
  return total;
}

}  // namespace citusx::sim
