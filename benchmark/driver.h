// The benchmark's own closed-loop driver and deployment environment.
//
// workload::RunDriver seeds every client from its id only and folds
// latencies into log buckets that round by up to 6%, so the benchmark runs
// its clients itself: each client's random stream derives from the run's
// --seed, every latency is kept as a raw virtual-nanosecond sample, and
// attempted and failed operations are counted.
#ifndef CITUSX_BENCHMARK_DRIVER_H_
#define CITUSX_BENCHMARK_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "citus/deploy.h"
#include "common/rng.h"

namespace citusx::benchmark {

/// Host wall-clock time in nanoseconds (steady clock).
int64_t HostNs();

/// A simulation running one Citus deployment, plus one long-lived client
/// connection per simulated client.
///
/// Teardown waits 200 ms of virtual time before the client connections
/// close. A multi-shard statement whose slow start grew the pool leaves
/// `citus:opener` daemons holding a raw pointer to the client's coordinator
/// session (src/citus/executor.cc); closing the connection before they run
/// frees that session under them (see README.md, "Teardown
/// use-after-free").
class Env {
 public:
  explicit Env(const citus::DeploymentOptions& options);
  ~Env();

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  sim::Simulation& sim() { return sim_; }
  citus::Deployment& deploy() { return *deploy_; }

  /// Run `fn` in a simulated process and drive the simulation until every
  /// non-daemon process has finished.
  Status Run(const std::function<Status()>& fn);

  /// Like Run, over a fresh coordinator connection that closes after the
  /// teardown drain.
  Status WithConnection(const std::function<Status(net::Connection&)>& fn);

  /// Open one client connection per entry of `endpoints` (node names).
  Status Connect(const std::vector<std::string>& endpoints);
  net::Connection& conn(size_t client) { return *conns_[client]; }

 private:
  sim::Simulation sim_;
  std::unique_ptr<citus::Deployment> deploy_;
  std::vector<std::unique_ptr<net::Connection>> conns_;
};

/// One operation of a client on its connection; `index` counts the client's
/// operations in the current window from 0. A non-OK status is a failed
/// operation, including wrong answers the op detects itself.
using OpFn =
    std::function<Status(net::Connection& conn, Rng& rng, int64_t index)>;

struct ClientSpec {
  /// Client i uses connection i of the Env.
  OpFn op;
  /// Its latencies are the workload's latency samples (mean, tail).
  bool timed = true;
  /// Its completed operations are the workload's throughput (ops_per_s).
  bool counted = true;
  /// Virtual think time after each operation (closed loop).
  sim::Time think = 0;
  /// Fixed work: the client stops after this many operations. -1 runs
  /// until the window's virtual duration has passed.
  int64_t max_ops = -1;
};

/// One client operation as the traced run records it.
struct OpSpan {
  int client = 0;
  int64_t index = 0;
  sim::Time virtual_start = 0, virtual_end = 0;
  int64_t host_start = 0, host_end = 0;
  bool ok = false;
  /// Trace id of the program's span tree under this op (0 = not sampled).
  obs::TraceId trace = 0;
};

struct WindowOptions {
  /// Virtual length of the window; 0 = until every client's max_ops is done.
  sim::Time duration = 0;
  /// Client streams derive from (seed, phase, client index).
  uint64_t seed = 1;
  uint64_t phase = 0;
  /// Record an OpSpan per operation, and propagate a trace context through
  /// the program on every trace_every-th operation of each client
  /// (0 = untraced).
  int trace_every = 0;
};

struct WindowResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failures no retry can fix (ErrorClass::kFatal), wrong answers included.
  int64_t fatal = 0;
  int64_t completed = 0;
  /// Completed operations of counted clients.
  int64_t counted = 0;
  std::string first_error;
  /// Raw virtual latencies of the completed operations of timed clients.
  std::vector<int64_t> latency_ns;
  sim::Time virtual_ns = 0;
  int64_t host_start = 0;
  int64_t host_ns = 0;
  /// Host time at which each completed operation ended, in order.
  std::vector<int64_t> host_ends;
  uint64_t events = 0;
  std::vector<OpSpan> spans;  // traced windows only
};

/// Host µs per completed operation, taken over consecutive groups of `group`
/// completed operations (0: forty groups of at least 100): the lower decile
/// of the groups. Interference from outside the process only adds time, and
/// on a shared host it comes in bursts of seconds, so the faster groups
/// track the program's own cost.
double HostUsPerOp(const WindowResult& w, int64_t group);

/// Run the clients closed-loop over the Env's connections. An operation
/// counts only if it ends inside the window.
WindowResult RunWindow(Env& env, const std::vector<ClientSpec>& clients,
                       const WindowOptions& options);

}  // namespace citusx::benchmark

#endif  // CITUSX_BENCHMARK_DRIVER_H_
