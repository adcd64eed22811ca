#include "driver.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"

namespace citusx::benchmark {

namespace {

constexpr sim::Time kTeardownDrain = 200 * sim::kMillisecond;

}  // namespace

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Env::Env(const citus::DeploymentOptions& options)
    : deploy_(std::make_unique<citus::Deployment>(&sim_, options)) {}

Env::~Env() {
  if (!conns_.empty()) {
    sim_.Spawn("bench:close", [this] {
      sim_.WaitFor(kTeardownDrain);
      for (auto& c : conns_) c->Close();
    });
    sim_.Run();
  }
  sim_.Shutdown();
  conns_.clear();
  deploy_.reset();
}

Status Env::Run(const std::function<Status()>& fn) {
  Status status;
  sim_.Spawn("bench:setup", [&] { status = fn(); });
  sim_.Run();
  return status;
}

Status Env::WithConnection(
    const std::function<Status(net::Connection&)>& fn) {
  return Run([&]() -> Status {
    CITUSX_ASSIGN_OR_RETURN(std::unique_ptr<net::Connection> c,
                            deploy_->Connect());
    Status status = fn(*c);
    sim_.WaitFor(kTeardownDrain);
    return status;
  });
}

Status Env::Connect(const std::vector<std::string>& endpoints) {
  return Run([&]() -> Status {
    for (const std::string& endpoint : endpoints) {
      CITUSX_ASSIGN_OR_RETURN(
          std::unique_ptr<net::Connection> c,
          deploy_->cluster().directory().ConnectWithRetry(nullptr, endpoint));
      conns_.push_back(std::move(c));
    }
    return Status::OK();
  });
}

WindowResult RunWindow(Env& env, const std::vector<ClientSpec>& clients,
                       const WindowOptions& options) {
  sim::Simulation& sim = env.sim();
  obs::TraceCollector& tracer = env.deploy().cluster().tracer();
  WindowResult result;
  const sim::Time start = sim.now();
  const sim::Time end =
      options.duration > 0 ? start + options.duration : INT64_MAX;
  sim::Time last_end = start;
  for (size_t i = 0; i < clients.size(); i++) {
    const ClientSpec& spec = clients[i];
    net::Connection& conn = env.conn(i);
    Rng rng(Mix64(options.seed ^ Mix64(options.phase * 1000003 + i)));
    sim.Spawn("bench:client", [&, i, rng]() mutable {
      for (int64_t index = 0; spec.max_ops < 0 || index < spec.max_ops;
           index++) {
        if (sim.now() >= end) break;
        OpSpan span;
        span.client = static_cast<int>(i);
        span.index = index;
        obs::SpanId root = 0;
        if (options.trace_every > 0 &&
            (index + static_cast<int64_t>(i)) % options.trace_every == 0) {
          span.trace = tracer.NewTraceId();
          root = tracer.StartSpan(span.trace, 0, "client op", "client",
                                  sim.now());
          conn.SetTraceContext(obs::FormatTraceContext(span.trace, root));
        }
        span.virtual_start = sim.now();
        span.host_start = HostNs();
        Status st = spec.op(conn, rng, index);
        span.host_end = HostNs();
        span.virtual_end = sim.now();
        if (root != 0) {
          conn.SetTraceContext("");
          tracer.EndSpan(root, span.virtual_end);
        }
        span.ok = st.ok();
        if (span.virtual_end <= end) {
          result.attempted++;
          last_end = std::max(last_end, span.virtual_end);
          if (st.ok()) {
            result.completed++;
            result.host_ends.push_back(span.host_end);
            if (spec.counted) result.counted++;
            if (spec.timed) {
              result.latency_ns.push_back(span.virtual_end -
                                          span.virtual_start);
            }
          } else {
            result.failed++;
            if (st.error_class() == ErrorClass::kFatal) result.fatal++;
            if (result.first_error.empty()) result.first_error = st.ToString();
          }
          if (options.trace_every > 0) result.spans.push_back(span);
        }
        // The run is already wrong, and an op that fails at once would
        // spin a client with no think time without advancing virtual time.
        if (st.error_class() == ErrorClass::kFatal) break;
        if (spec.think > 0 && !sim.WaitFor(spec.think)) break;
      }
    });
  }
  uint64_t events_before = sim.events_processed();
  result.host_start = HostNs();
  sim.Run();
  result.host_ns = HostNs() - result.host_start;
  result.events = sim.events_processed() - events_before;
  result.virtual_ns = options.duration > 0 ? options.duration
                                           : last_end - start;
  return result;
}

double HostUsPerOp(const WindowResult& w, int64_t group) {
  // Forty groups by default, but at least 100 ops each so that every group
  // has the workload's mix of op kinds.
  if (group == 0) group = std::max<int64_t>(w.completed / 40, 100);
  std::vector<double> per_op;
  int64_t from = w.host_start;
  for (size_t i = static_cast<size_t>(group); i <= w.host_ends.size();
       i += static_cast<size_t>(group)) {
    int64_t to = w.host_ends[i - 1];
    per_op.push_back(static_cast<double>(to - from) /
                     static_cast<double>(group) / 1e3);
    from = to;
  }
  if (per_op.empty()) return 0;
  std::sort(per_op.begin(), per_op.end());
  size_t rank = (per_op.size() + 9) / 10;  // nearest rank of the 10th percentile
  return per_op[rank - 1];
}

}  // namespace citusx::benchmark
