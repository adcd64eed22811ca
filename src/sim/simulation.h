// Discrete-event simulation kernel.
//
// citusx executes real database logic (real parsing, planning, locking, 2PC,
// real rows) but accounts *time* virtually, so a 9-node cluster with 16-core
// nodes and IOPS-limited disks can be modelled faithfully on a 1-core host and
// benchmarks are deterministic.
//
// Model: every simulated process is a stackful fiber (a ucontext on a pooled,
// mmap'd stack with a guard page) on the thread that calls Run or Shutdown,
// so exactly one runs at a time by construction. That thread's driver loop
// pops the next event from a (time, sequence) queue and switches into the
// event's process, which runs until it waits and then switches back.
// Processes block either by scheduling a timer event for themselves
// (WaitFor / WaitUntil) or by parking until another process wakes them
// (Wake). All ordering ties are broken by a monotonically increasing
// sequence number, so runs are fully deterministic.
//
// Nothing else runs between two switches, so a section that must look
// atomic to other processes only has to avoid yielding. Such a section
// declares a NoYieldScope; a switch made while one is live aborts, naming
// the process.
#ifndef CITUSX_SIM_SIMULATION_H_
#define CITUSX_SIM_SIMULATION_H_

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace citusx::sim {

/// Simulated time in nanoseconds since simulation start.
using Time = int64_t;

constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

class Simulation;
class FaultInjector;

/// One simulated thread of control. Created via Simulation::Spawn; the body
/// runs on its own fiber stack whenever the driver dispatches one of its
/// events.
class Process {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }
  bool cancelled() const { return cancelled_; }
  bool daemon() const { return daemon_; }

 private:
  friend class Simulation;

  Process(Simulation* sim, uint64_t id, std::string name, bool daemon)
      : sim_(sim), id_(id), name_(std::move(name)), daemon_(daemon) {}

  Simulation* sim_;
  uint64_t id_;
  std::string name_;
  bool daemon_;
  State state_ = State::kReady;
  bool cancelled_ = false;
  // The body; run once on the fiber and destroyed there.
  std::function<void()> fn_;
  // Lowest usable byte of the fiber's stack (the guard page sits below it);
  // owned by the simulation's stack pool.
  char* stack_ = nullptr;
  ucontext_t context_{};
  // Sanitizer state of the suspended fiber (unused without a sanitizer).
  void* asan_fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
  // This process's entry in Simulation::processes_.
  std::list<std::unique_ptr<Process>>::iterator entry_;
};

/// Marks a section that must not span a simulation yield (WaitFor,
/// WaitUntil, Block, or anything that calls them): other processes may
/// observe only its start and its end. Scopes nest; a fiber switch while
/// any is live aborts.
class NoYieldScope {
 public:
  NoYieldScope() { depth_++; }
  ~NoYieldScope() { depth_--; }

  NoYieldScope(const NoYieldScope&) = delete;
  NoYieldScope& operator=(const NoYieldScope&) = delete;

  /// How many scopes are live.
  static int depth() { return depth_; }

 private:
  static inline int depth_ = 0;
};

/// The simulation: virtual clock, event queue, process registry.
///
/// Typical use:
///   Simulation sim;
///   sim.Spawn("client", [&] { ... sim.WaitFor(10 * kMillisecond); ... });
///   sim.Run();        // returns when all non-daemon processes finish
///   sim.Shutdown();   // cancels daemons and runs every process to its end
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time. Callable from anywhere.
  Time now() const { return now_; }

  /// Create a process scheduled to start at the current virtual time.
  /// Daemon processes do not keep Run() alive.
  Process* Spawn(std::string name, std::function<void()> fn,
                 bool daemon = false);

  /// Drive the simulation until every non-daemon process has finished (or
  /// nothing is runnable). Must be called from the driving thread, outside
  /// any process of this simulation.
  void Run();

  /// Cancel all live processes and drive each of them to its end.
  /// After Shutdown the simulation can no longer spawn processes.
  void Shutdown();

  /// True once Shutdown has begun; long-running loops should exit.
  bool stopping() const { return stopping_; }

  // ---- Calls below are only valid from within a simulated process. ----

  /// Sleep until virtual time `t`. Returns false if cancelled.
  bool WaitUntil(Time t);

  /// Sleep for `d` virtual nanoseconds. Returns false if cancelled.
  bool WaitFor(Time d);

  /// Park the calling process until another process calls Wake on it.
  /// Returns false if cancelled instead of woken.
  bool Block();

  /// Make a parked process runnable at the current virtual time.
  /// May be called from a running process or (between Run calls) externally.
  void Wake(Process* p);

  /// The process running on this thread (null on the driving thread).
  static Process* Current();

  /// Number of events processed so far (for tests/diagnostics).
  uint64_t events_processed() const { return events_processed_; }

  /// The simulation's fault injector (chaos testing), created lazily on
  /// first access. Callable from anywhere in the simulation domain.
  FaultInjector& faults();

  /// True once faults() has been called (lets hot paths skip the lookup).
  bool has_fault_injector() const { return faults_ != nullptr; }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    Process* process;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void Enqueue(Process* p, Time t);

  // Driver side: pops the next event, switches into its process and returns
  // once that process waits or finishes. Pre: the queue is not empty.
  void DispatchNext();

  // Process side: switches back to the driver once `self` has enqueued
  // itself, parked or finished. Returns when the driver dispatches `self`
  // again (never if it has finished): false if it was cancelled meanwhile.
  bool Yield(Process* self);

  // Entry point of every fiber; runs the dispatched process's body.
  static void FiberMain();

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  // Unfinished processes in spawn order, and those that finished since the
  // last Spawn (freed there, so a Process* stays valid until then).
  std::list<std::unique_ptr<Process>> processes_;
  std::list<std::unique_ptr<Process>> finished_;
  // Unfinished non-daemon processes: Run returns when this reaches zero.
  int64_t live_workers_ = 0;
  // Every stack this simulation mapped, and those not in use.
  std::vector<char*> stacks_;
  std::vector<char*> free_stacks_;
  // The driver's context while a process runs, and the driver's stack and
  // fiber as the sanitizers know them.
  ucontext_t driver_context_{};
  const void* driver_stack_bottom_ = nullptr;
  size_t driver_stack_size_ = 0;
  void* driver_tsan_fiber_ = nullptr;
  bool stopping_ = false;
  bool shutdown_done_ = false;
  std::unique_ptr<FaultInjector> faults_;
};

}  // namespace citusx::sim

#endif  // CITUSX_SIM_SIMULATION_H_
