// citusx_bench: runs one workload of the citusx benchmark in this process.
//
//   citusx_bench --workload NAME [--seed N] [--trace 0|1] [--smoke]
//                [--out DIR]
//
// Each workload fixes its measured window; --smoke selects a short one.
// --trace 0 measures the end-to-end metrics: it sets the deployment up
// five times (once with --smoke) and reports the median set-up time, then
// runs one measured window on the last deployment and checks its outputs.
// --trace 1 sets up once, runs an untraced window for the program's
// counters and host cost, then a traced window whose span trees give the
// per-layer split, and times single layer calls on the traced statements.
//
// Prints one "workload metric value unit" line per metric and, as its last
// line, {"correct", "attempted", "failed", "metrics"} as JSON. Writes
// DIR/NAME/result.json, or for --trace 1 DIR/NAME/layers.json and
// DIR/NAME/spans.jsonl. Exits 1 when set-up fails or an output check fails,
// 2 on a bad argument.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "driver.h"
#include "layers.h"
#include "sql/deparser.h"
#include "sql/parser.h"
#include "workloads.h"

using namespace citusx;
using namespace citusx::benchmark;

namespace {

using JsonFields = std::vector<std::pair<std::string, sql::JsonPtr>>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_build/results";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "citusx_bench: %s\nusage: citusx_bench --workload NAME "
               "[--seed N] [--trace 0|1] [--smoke] "
               "[--out DIR]\nworkloads:",
               problem.c_str());
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      std::string v = value();
      char* end = nullptr;
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed " + v);
    } else if (a == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--out") {
      args.out = value();
    } else {
      Usage("unknown argument " + a);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

// Only one simulated process ever holds the baton, so one core costs no
// parallelism, and pinning keeps the scheduler from moving the handoffs
// between cores. Returns the CPU, or -1 if the mask could not be read.
int PinToLowestCpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Index of the p-th percentile of n sorted samples, by nearest rank.
size_t NearestRank(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p / 100 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n) - 1;
}

// The p-th percentile of sorted raw samples in ms.
double PercentileMs(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return static_cast<double>(sorted[NearestRank(sorted.size(), p)]) / 1e6;
}

// The mean in ms of the sorted samples beyond the p-th percentile; with
// p = 0, of all of them.
double MeanBeyondMs(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t from = p > 0 ? NearestRank(sorted.size(), p) + 1 : 0;
  from = std::min(from, sorted.size() - 1);
  double sum = 0;
  for (size_t i = from; i < sorted.size(); i++) {
    sum += static_cast<double>(sorted[i]);
  }
  return sum / static_cast<double>(sorted.size() - from) / 1e6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

sql::JsonPtr Num(double v) { return sql::Json::MakeNumber(v); }
sql::JsonPtr Str(std::string s) { return sql::Json::MakeString(std::move(s)); }

sql::JsonPtr WindowJson(const WindowResult& w) {
  return sql::Json::MakeObject({
      {"attempted", Num(static_cast<double>(w.attempted))},
      {"completed", Num(static_cast<double>(w.completed))},
      {"counted", Num(static_cast<double>(w.counted))},
      {"failed", Num(static_cast<double>(w.failed))},
      {"fatal", Num(static_cast<double>(w.fatal))},
      {"first_error", Str(w.first_error)},
      {"latency_samples", Num(static_cast<double>(w.latency_ns.size()))},
      {"virtual_s", Num(static_cast<double>(w.virtual_ns) / 1e9)},
      {"host_s", Num(static_cast<double>(w.host_ns) / 1e9)},
      {"events", Num(static_cast<double>(w.events))},
  });
}

// One set-up: deployment, schema and data, client connections, warm-up.
Result<std::unique_ptr<Env>> SetUp(Workload& wl, uint64_t seed,
                                   SpanLog* log) {
  auto phase = [&](const char* name, const std::function<Status()>& fn) {
    int64_t start = HostNs();
    Status st = fn();
    log->Add({{"kind", Str("setup")},
              {"name", Str(name)},
              {"host_start", Num(static_cast<double>(start))},
              {"host_end", Num(static_cast<double>(HostNs()))}});
    return st.ok() ? st
                   : Status(st.code(), std::string(name) + ": " + st.message());
  };
  std::unique_ptr<Env> env;
  CITUSX_RETURN_IF_ERROR(phase("deploy", [&] {
    env = std::make_unique<Env>(wl.Options());
    return Status::OK();
  }));
  CITUSX_RETURN_IF_ERROR(phase("load", [&] { return wl.Load(*env); }));
  std::vector<ClientSpec> clients = wl.Clients(true);
  CITUSX_RETURN_IF_ERROR(phase("connect", [&] {
    return env->Connect(
        std::vector<std::string>(clients.size(), "coordinator"));
  }));
  CITUSX_RETURN_IF_ERROR(phase("warmup", [&]() -> Status {
    WindowOptions options;
    options.duration = wl.warmup();
    options.seed = seed;
    options.phase = 0;
    WindowResult w = RunWindow(*env, clients, options);
    if (w.failed > 0) return Status::Internal(w.first_error);
    return Status::OK();
  }));
  return env;
}

struct Run {
  bool correct = false;
  std::string check;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  JsonFields details;
};

Status CheckWindow(const WindowResult& w, Status check) {
  if (w.fatal > 0) {
    return Status::Internal("fatal operation error: " + w.first_error);
  }
  return check;
}

Result<Run> RunEndToEnd(Workload& wl, const Args& args, SpanLog* log) {
  const int setups = args.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < setups; i++) {
    env.reset();
    int64_t start = HostNs();
    CITUSX_ASSIGN_OR_RETURN(env, SetUp(wl, args.seed, log));
    setup_s.push_back(static_cast<double>(HostNs() - start) / 1e9);
  }
  WindowOptions options;
  options.duration = wl.window();
  options.seed = args.seed;
  options.phase = 1;
  WindowResult w = RunWindow(*env, wl.Clients(false), options);
  Status check = CheckWindow(w, wl.Check(*env));
  env.reset();

  Run run;
  run.correct = check.ok();
  run.check = check.ToString();
  run.attempted = w.attempted;
  run.failed = w.failed;
  // Virtual latencies are sums of fixed service times, so the median and
  // the tail percentile sit on the same sample value for every seed and
  // show no spread to set a bound against. The metrics are the means, which
  // move with every sample; the percentiles go into the details.
  std::vector<int64_t> sorted = w.latency_ns;
  std::sort(sorted.begin(), sorted.end());
  const double tail = wl.tail_percentile();
  run.metrics = {
      {"ops_per_s",
       static_cast<double>(w.counted) / (static_cast<double>(w.virtual_ns) / 1e9),
       "1/s"},
      {"mean_ms", MeanBeyondMs(sorted, 0), "ms"},
      {"tail_ms", MeanBeyondMs(sorted, tail), "ms"},
      {"host_us_per_op", HostUsPerOp(w, wl.host_group()), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::vector<sql::JsonPtr> setups_json;
  for (double s : setup_s) setups_json.push_back(Num(s));
  run.details = {{"window", WindowJson(w)},
                 {"p50_ms", Num(PercentileMs(sorted, 50))},
                 {"tail_percentile", Num(tail)},
                 {"tail_percentile_ms", Num(PercentileMs(sorted, tail))},
                 {"setup_s_each", sql::Json::MakeArray(setups_json)}};
  return run;
}

// The kind of a statement EXPLAIN accepts, or nothing.
std::optional<sql::Statement::Kind> PlannableKind(const std::string& text) {
  auto parsed = sql::Parse(text);
  if (!parsed.ok()) return std::nullopt;
  switch (parsed->kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete:
      return parsed->kind;
    default:
      return std::nullopt;
  }
}

// Logs every op of the traced window with the program spans of the sampled
// ones, and returns the split of each sampled op's span tree.
std::vector<SpanSplit> CollectTraces(const WindowResult& traced,
                                     const obs::TraceCollector& tracer,
                                     SpanLog* log) {
  std::vector<SpanSplit> splits;
  for (const OpSpan& op : traced.spans) {
    log->Add({{"kind", Str("op")},
              {"client", Num(op.client)},
              {"index", Num(static_cast<double>(op.index))},
              {"virtual_start", Num(static_cast<double>(op.virtual_start))},
              {"virtual_end", Num(static_cast<double>(op.virtual_end))},
              {"host_start", Num(static_cast<double>(op.host_start))},
              {"host_end", Num(static_cast<double>(op.host_end))},
              {"ok", sql::Json::MakeBool(op.ok)},
              {"trace", Num(static_cast<double>(op.trace))}});
    if (op.trace == 0) continue;
    std::vector<obs::Span> spans = tracer.TraceSpans(op.trace);
    for (const obs::Span& s : spans) {
      log->Add({{"kind", Str("program")},
                {"trace", Num(static_cast<double>(s.trace_id))},
                {"id", Num(static_cast<double>(s.id))},
                {"parent", Num(static_cast<double>(s.parent_id))},
                {"name", Str(s.name)},
                {"node", Str(s.node)},
                {"virtual_start", Num(static_cast<double>(s.start))},
                {"virtual_end", Num(static_cast<double>(s.end))}});
    }
    splits.push_back(SplitSpans(spans));
  }
  return splits;
}

// Host time of single layer calls on the statements of the sampled ops.
struct LayerTimes {
  int64_t parse_ns = 0, deparse_ns = 0, explain_ns = 0;
  // Volcano over vectorized, per distinct sampled SELECT.
  std::vector<double> host_ratios, virtual_ratios;
};

Result<LayerTimes> TimeLayerCalls(Env& env,
                                  const std::vector<SpanSplit>& splits,
                                  SpanLog* log) {
  auto logged = [&](const char* name, int64_t host_ns) {
    log->Add({{"kind", Str("layer")},
              {"name", Str(name)},
              {"host_ns", Num(static_cast<double>(host_ns))}});
    return host_ns;
  };
  LayerTimes times;
  std::vector<std::string> selects;
  for (const SpanSplit& split : splits) {
    for (const std::string& text : split.statements) {
      auto parsed = sql::Parse(text);
      if (!parsed.ok()) continue;
      times.parse_ns += logged("sql.parse", FastestHostNs(3, [&] {
        (void)sql::Parse(text);
      }));
      times.deparse_ns += logged("sql.deparse", FastestHostNs(3, [&] {
        (void)sql::DeparseStatement(*parsed);
      }));
    }
    if (PlannableKind(split.client_sql) == sql::Statement::Kind::kSelect &&
        selects.size() < 16 &&
        std::find(selects.begin(), selects.end(), split.client_sql) ==
            selects.end()) {
      selects.push_back(split.client_sql);
    }
  }
  CITUSX_RETURN_IF_ERROR(env.Run([&]() -> Status {
    std::unique_ptr<engine::Session> session =
        env.deploy().coordinator()->OpenSession();
    for (const SpanSplit& split : splits) {
      if (!PlannableKind(split.client_sql)) continue;
      Status st;
      times.explain_ns += logged("citus.explain", FastestHostNs(3, [&] {
        st = session->Execute("EXPLAIN " + split.client_sql).status();
      }));
      CITUSX_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }));
  // Warm, then each executor once; the results must agree.
  CITUSX_RETURN_IF_ERROR(env.WithConnection([&](net::Connection& conn) {
    for (const std::string& q : selects) {
      CITUSX_RETURN_IF_ERROR(conn.Query(q).status());
      double host[2] = {}, virt[2] = {};  // [volcano, vectorized]
      engine::QueryResult results[2];
      for (int vec = 0; vec < 2; vec++) {
        CITUSX_RETURN_IF_ERROR(
            conn.Query(vec == 0 ? "SET citus.use_vectorized_executor = 'off'"
                                : "SET citus.use_vectorized_executor = 'on'")
                .status());
        int64_t h0 = HostNs();
        sim::Time v0 = env.sim().now();
        CITUSX_ASSIGN_OR_RETURN(results[vec], conn.Query(q));
        host[vec] = static_cast<double>(logged(
            vec == 0 ? "exec.volcano" : "exec.vectorized", HostNs() - h0));
        virt[vec] = static_cast<double>(env.sim().now() - v0);
      }
      if (!bench::ApproxEqualResults(results[0], results[1])) {
        return Status::Internal("executors disagree on " + q);
      }
      times.host_ratios.push_back(Ratio(host[0], host[1]));
      times.virtual_ratios.push_back(Ratio(virt[0], virt[1]));
    }
    return Status::OK();
  }));
  return times;
}

Result<Run> RunTraced(Workload& wl, const Args& args, SpanLog* log) {
  CITUSX_ASSIGN_OR_RETURN(std::unique_ptr<Env> env,
                          SetUp(wl, args.seed, log));
  citus::Deployment& deploy = env->deploy();
  int64_t stored = StoredBytes(deploy, wl.user_tables());

  // Untraced window: the program's counters and the host cost per op.
  WindowOptions options;
  options.duration = wl.window();
  options.seed = args.seed;
  options.phase = 1;
  std::map<std::string, int64_t> before = SumCounters(deploy);
  WindowResult base = RunWindow(*env, wl.Clients(false), options);
  std::map<std::string, int64_t> after = SumCounters(deploy);

  // Traced window: every op's span, and span trees for the sampled ops.
  obs::TraceCollector& tracer = deploy.cluster().tracer();
  tracer.Clear();
  options.phase = 2;
  options.trace_every = wl.trace_every();
  WindowResult traced = RunWindow(*env, wl.Clients(false), options);
  Status check = CheckWindow(traced, CheckWindow(base, wl.Check(*env)));
  std::vector<SpanSplit> splits = CollectTraces(traced, tracer, log);
  Result<LayerTimes> times = TimeLayerCalls(*env, splits, log);
  if (check.ok()) check = times.status();
  if (!times.ok()) times = LayerTimes();
  double handoff_ns = HandoffNs();
  env.reset();

  auto delta = [&](const std::string& name) {
    return static_cast<double>(after[name] - before[name]);
  };
  double ops = static_cast<double>(std::max<int64_t>(base.completed, 1));
  double sampled = static_cast<double>(std::max<size_t>(splits.size(), 1));
  double host_ns_per_op = HostUsPerOp(base, wl.host_group()) * 1e3;
  double traced_ns_per_op = HostUsPerOp(traced, wl.host_group()) * 1e3;
  double events_per_op = static_cast<double>(base.events) / ops;
  double coordinator_ns = 0, wire_ns = 0, worker_ns = 0;
  for (const SpanSplit& s : splits) {
    coordinator_ns += static_cast<double>(s.coordinator_self);
    wire_ns += static_cast<double>(s.wire);
    worker_ns += static_cast<double>(s.worker);
  }
  double hits = delta("bufferpool.hits"), misses = delta("bufferpool.misses");

  Run run;
  run.correct = check.ok();
  run.check = check.ToString();
  run.attempted = traced.attempted;
  run.failed = traced.failed;
  run.metrics = {
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.handoff_ns", handoff_ns, "ns"},
      {"sim.handoff_share", events_per_op * handoff_ns / host_ns_per_op,
       "ratio"},
      {"sql.parse_us_per_op",
       static_cast<double>(times->parse_ns) / sampled / 1e3, "us"},
      {"sql.deparse_us_per_op",
       static_cast<double>(times->deparse_ns) / sampled / 1e3, "us"},
      {"citus.explain_us_per_op",
       static_cast<double>(times->explain_ns) / sampled / 1e3, "us"},
      {"citus.planner.fast_path_per_op",
       delta("citus.planner.fast_path") / ops, "count"},
      {"citus.planner.router_per_op", delta("citus.planner.router") / ops,
       "count"},
      {"citus.planner.pushdown_per_op", delta("citus.planner.pushdown") / ops,
       "count"},
      {"citus.planner.join_order_per_op",
       delta("citus.planner.join_order") / ops, "count"},
      {"citus.executor.tasks_per_op", delta("citus.executor.tasks") / ops,
       "count"},
      {"citus.executor.pool_growth_per_op",
       delta("citus.executor.pool_growth") / ops, "count"},
      {"citus.2pc.prepares_per_op", delta("citus.2pc.prepares") / ops,
       "count"},
      {"citus.2pc.single_node_commits_per_op",
       delta("citus.2pc.single_node_commits") / ops, "count"},
      {"citus.repartition.shuffled_bytes_per_op",
       delta("citus.repartition.shuffled_bytes") / ops, "B"},
      {"locks.waits_per_op", delta("locks.waits") / ops, "count"},
      {"locks.wait_ms_per_op", delta("locks.wait_time") / ops / 1e6, "ms"},
      {"txn.aborts_per_op", delta("txn.aborts") / ops, "count"},
      {"exec.volcano_over_vec_host", Median(times->host_ratios), "ratio"},
      {"exec.volcano_over_vec_virtual", Median(times->virtual_ratios),
       "ratio"},
      {"bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"bufferpool.misses_per_op", misses / ops, "count"},
      {"bufferpool.evictions_per_op", delta("bufferpool.evictions") / ops,
       "count"},
      {"storage.bytes_per_user_byte",
       Ratio(static_cast<double>(stored), static_cast<double>(wl.user_bytes())),
       "ratio"},
      {"net.round_trips_per_op", delta("net.round_trips") / ops, "count"},
      {"net.bytes_per_op",
       (delta("net.bytes_sent") + delta("net.bytes_received")) / ops, "B"},
      {"net.connections_opened_per_op",
       delta("net.connections_opened") / ops, "count"},
      {"trace.coordinator_self_ms", coordinator_ns / sampled / 1e6, "ms"},
      {"trace.wire_ms", wire_ns / sampled / 1e6, "ms"},
      {"trace.worker_ms", worker_ns / sampled / 1e6, "ms"},
      {"obs.trace_overhead", traced_ns_per_op / host_ns_per_op - 1, "ratio"},
  };
  JsonFields counters;
  for (const auto& [name, value] : after) {
    counters.emplace_back(name, Num(static_cast<double>(value - before[name])));
  }
  run.details = {{"untraced_window", WindowJson(base)},
                 {"traced_window", WindowJson(traced)},
                 {"sampled_ops", Num(static_cast<double>(splits.size()))},
                 {"counter_deltas", sql::Json::MakeObject(counters)}};
  return run;
}

sql::JsonPtr MetricsJson(const std::vector<Metric>& metrics) {
  JsonFields fields;
  for (const Metric& m : metrics) {
    fields.emplace_back(m.name, sql::Json::MakeObject({{"value", Num(m.value)},
                                                       {"unit", Str(m.unit)}}));
  }
  return sql::Json::MakeObject(fields);
}

bool WriteJson(const std::string& path, const sql::JsonPtr& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string text = json->ToString();
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  int cpu = PinToLowestCpu();
  // One malloc arena: only one thread runs at a time, and with an arena per
  // thread the peak RSS depended on which threads freed what.
  mallopt(M_ARENA_MAX, 1);
  std::unique_ptr<Workload> wl = MakeWorkload(
      args.workload, args.seed, args.smoke, args.trace ? 2 : 1);
  if (wl == nullptr) Usage("unknown workload " + args.workload);

  SpanLog log;
  Result<Run> run = args.trace ? RunTraced(*wl, args, &log)
                               : RunEndToEnd(*wl, args, &log);
  if (!run.ok()) {
    std::fprintf(stderr, "citusx_bench %s: %s\n", args.workload.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }

  std::filesystem::path dir = std::filesystem::path(args.out) / args.workload;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  JsonFields cost;
  for (const auto& [name, value] : CostModelFields(wl->Options().cost)) {
    cost.emplace_back(name, Num(static_cast<double>(value)));
  }
  JsonFields result = {
      {"workload", Str(args.workload)},
      {"seed", Num(static_cast<double>(args.seed))},
      {"trace", sql::Json::MakeBool(args.trace)},
      {"smoke", sql::Json::MakeBool(args.smoke)},
      {"pinned_cpu", Num(cpu)},
      {"cost_model", sql::Json::MakeObject(cost)},
      {"correct", sql::Json::MakeBool(run->correct)},
      {"check", Str(run->check)},
      {"attempted", Num(static_cast<double>(run->attempted))},
      {"failed", Num(static_cast<double>(run->failed))},
      {"metrics", MetricsJson(run->metrics)},
  };
  for (auto& field : run->details) result.push_back(std::move(field));
  bool written = WriteJson(
      (dir / (args.trace ? "layers.json" : "result.json")).string(),
      sql::Json::MakeObject(result));
  if (args.trace) {
    written = written && log.WriteTo((dir / "spans.jsonl").string());
  }
  if (!written) {
    std::fprintf(stderr, "citusx_bench: cannot write results under %s\n",
                 dir.string().c_str());
    return 1;
  }

  for (const Metric& m : run->metrics) {
    std::printf("%s %s %.6g %s\n", args.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  if (!run->correct) {
    std::fprintf(stderr, "citusx_bench %s: check failed: %s\n",
                 args.workload.c_str(), run->check.c_str());
  }
  std::printf("%s\n",
              sql::Json::MakeObject(
                  {{"correct", sql::Json::MakeBool(run->correct)},
                   {"attempted", Num(static_cast<double>(run->attempted))},
                   {"failed", Num(static_cast<double>(run->failed))},
                   {"metrics", MetricsJson(run->metrics)}})
                  ->ToString()
                  .c_str());
  return run->correct ? 0 : 1;
}
