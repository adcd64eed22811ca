// Fault injection for the simulation (chaos testing, paper §3.2): node
// crash/restart, connection drops, network delay spikes, and
// refuse-new-connections faults, all driven by a seeded RNG so every chaos
// run replays deterministically.
//
// The injector lives in the sim layer and knows nothing about database
// nodes: crash/restart are delivered through handlers registered per target
// name (the net layer registers each engine node), while the network-fault
// state (drop probability, delay spike, refusal) is polled by the connection
// layer on every open / round trip.
#ifndef CITUSX_SIM_FAULT_H_
#define CITUSX_SIM_FAULT_H_

#include <array>
#include <functional>
#include <map>
#include <string>

#include "common/rng.h"
#include "sim/simulation.h"

namespace citusx::sim {

enum class FaultKind {
  kCrash = 0,
  kRestart,
  kConnectionDrop,
  kDelaySpike,
  kRefusal,
  kKindCount,  // sentinel
};

class FaultInjector {
 public:
  explicit FaultInjector(Simulation* sim, uint64_t seed = 42)
      : sim_(sim), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Reset the RNG (chaos benches pass --seed= through here).
  void Reseed(uint64_t seed) { rng_ = Rng(seed); }
  Rng& rng() { return rng_; }

  // ---- crash/restart targets ----

  struct Target {
    std::function<void()> crash;
    std::function<void()> restart;
  };

  /// Register a crashable target (the net layer registers every node).
  void RegisterTarget(const std::string& name, Target target) {
    targets_[name] = std::move(target);
  }

  /// Crash/restart a target now. Returns false for unknown targets.
  bool Crash(const std::string& target);
  bool Restart(const std::string& target);

  /// Schedule a crash at virtual time `at`; the target restarts `down_for`
  /// later (down_for < 0: stays down until Restart is called explicitly).
  /// Runs as a daemon process, so schedules never keep Run() alive.
  void ScheduleCrash(Time at, const std::string& target, Time down_for);

  // ---- network faults (polled by net::Connection) ----

  /// Each round trip to `target` is dropped with probability `p`
  /// (connection-reset semantics: the connection becomes unusable).
  void SetConnectionDropProbability(const std::string& target, double p);

  /// Deterministically drop the next `n` round trips to `target`.
  void DropNextRoundTrips(const std::string& target, int n);

  /// Add `extra` latency to every round trip to `target` until time `until`.
  void SetDelaySpike(const std::string& target, Time extra, Time until);

  /// Refuse new connections to `target` (accept queue full / pg_hba reject).
  void SetRefuseConnections(const std::string& target, bool refuse);

  /// Polled per round trip; rolls the RNG and counts an injected fault when
  /// it fires.
  bool ShouldDropRoundTrip(const std::string& target);

  /// Extra latency to charge on a round trip to `target` right now.
  Time ExtraDelay(const std::string& target);

  /// Polled on connection establishment.
  bool IsRefusingConnections(const std::string& target);

  /// True once any network fault has been configured; lets the connection
  /// hot path skip per-request map lookups in fault-free runs.
  bool armed() const { return armed_; }

  // ---- accounting ----

  int64_t injected(FaultKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  int64_t injected_on(const std::string& target) const {
    auto it = per_target_.find(target);
    return it == per_target_.end() ? 0 : it->second;
  }
  int64_t total_injected() const;

 private:
  struct NetFaults {
    double drop_probability = 0;
    int drop_next = 0;
    Time delay_extra = 0;
    Time delay_until = 0;
    bool refuse = false;
  };

  void Count(FaultKind kind, const std::string& target) {
    counts_[static_cast<size_t>(kind)]++;
    per_target_[target]++;
  }

  Simulation* sim_;
  Rng rng_;
  bool armed_ = false;
  std::map<std::string, Target> targets_;
  std::map<std::string, NetFaults> net_;
  std::array<int64_t, static_cast<size_t>(FaultKind::kKindCount)> counts_ = {};
  std::map<std::string, int64_t> per_target_;
};

}  // namespace citusx::sim

#endif  // CITUSX_SIM_FAULT_H_
