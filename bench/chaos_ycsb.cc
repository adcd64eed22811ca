// Chaos YCSB: a YCSB-style CRUD workload against Citus 4+1 while the fault
// injector crashes and restarts workers on a seeded schedule, with injected
// connection drops and a delay spike on top.
//
// The bench runs four phases over one cluster: a fault-free baseline, the
// chaos window, a recovery wait (2PC recovery + pool healing), and a
// post-recovery measurement. It then checks the chaos invariants:
//
//   1. No acked commit is lost: for every key, final value >= acked
//      increments (and <= attempted increments — nothing applied twice).
//   2. Every prepared transaction is eventually resolved: no worker holds a
//      PREPARE TRANSACTION after the recovery wait.
//   3. The cluster heals: post-recovery throughput within 20% of baseline.
//   4. No fatal (non-retryable) errors surface to clients at any point.
//
// Mix: 50% single-key reads, 30% single-key increments (autocommit,
// single-shard), 20% two-key transfers (BEGIN..COMMIT, usually cross-worker
// 2PC). Keys are uniform; transfer keys are ordered to stay deadlock-free.
//
//   chaos_ycsb [--quick] [--seed=<n>] [--json=<path>]
#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench_common.h"
#include "common/str.h"
#include "sim/fault.h"

using namespace citusx;
using namespace citusx::bench;
using namespace citusx::workload;

namespace {

struct PhaseResult {
  const char* phase = "";
  double tps = 0;
  LatencyTriple latency;
  int64_t retryable = 0;
  int64_t fatal = 0;
  int64_t reconnects = 0;
  std::string last_error;
};

PhaseResult Measure(const char* phase, sim::Simulation& sim,
                    citus::Deployment& deploy, const DriverOptions& opts,
                    const ClientTxn& txn) {
  DriverResult r = RunDriver(&sim, &deploy.cluster().directory(), opts, txn);
  PhaseResult out;
  out.phase = phase;
  out.tps = r.PerSecond();
  out.latency = Percentiles(r.latency);
  out.retryable = r.retryable_errors;
  out.fatal = r.fatal_errors;
  out.reconnects = r.reconnects;
  out.last_error = r.last_error;
  std::printf("%-14s %12.0f %10.3f %10.3f %10.3f %11lld %9lld\n", phase,
              out.tps, out.latency.p50_ms, out.latency.p95_ms,
              out.latency.p99_ms, static_cast<long long>(out.retryable),
              static_cast<long long>(out.fatal));
  if (out.fatal > 0) {
    std::printf("  last fatal error: %s\n", out.last_error.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Chaos YCSB: crash/restart schedule under a CRUD workload",
              "fault-tolerance invariants; cf. paper §3.7 2PC recovery");
  std::printf("seed = %" PRIu64 "\n", args.seed);

  const int64_t kRows = args.quick ? 500 : 2000;
  const int kClients = args.quick ? 12 : 24;
  const sim::Time kWarmup = 500 * sim::kMillisecond;
  const sim::Time kBaseline = (args.quick ? 2 : 4) * sim::kSecond;
  const sim::Time kChaos = (args.quick ? 4 : 8) * sim::kSecond;
  const sim::Time kPost = (args.quick ? 2 : 4) * sim::kSecond;

  sim::CostModel cost;
  cost.buffer_pool_bytes = 256LL << 20;  // keep disk I/O out of the picture
  cost.max_connections = 600;

  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 4;
  options.cost = cost;
  // Short maintenance cadence so 2PC recovery and deferred cleanup finish
  // within the recovery-wait phase.
  options.cost.deadlock_poll_interval = 1 * sim::kSecond;
  options.cost.recovery_poll_interval = 2 * sim::kSecond;
  // Per-statement deadline on worker connections: a crashed worker costs a
  // timeout, not a hung client.
  options.citus.statement_timeout = 500 * sim::kMillisecond;
  citus::Deployment deploy(&sim, options);
  sim.faults().Reseed(args.seed);

  MustRun(sim, [&]() -> Status {
    auto conn_r = deploy.Connect();
    if (!conn_r.ok()) return conn_r.status();
    net::Connection& conn = **conn_r;
    CITUSX_RETURN_IF_ERROR(
        conn.Query("CREATE TABLE chaos_counters (key bigint PRIMARY KEY, "
                   "v bigint)")
            .status());
    CITUSX_RETURN_IF_ERROR(
        conn.Query("SELECT create_distributed_table('chaos_counters', 'key')")
            .status());
    std::vector<std::vector<std::string>> rows;
    for (int64_t i = 0; i < kRows; i++) {
      rows.push_back({std::to_string(i), "0"});
    }
    return conn.CopyIn("chaos_counters", {}, std::move(rows)).status();
  });

  // Per-key accounting for the acked-commit invariant. The simulation is
  // single-threaded, so plain counters are race-free.
  std::vector<int64_t> attempts(static_cast<size_t>(kRows), 0);
  std::vector<int64_t> acked(static_cast<size_t>(kRows), 0);

  ClientTxn txn = [&](net::Connection& conn, int client_id,
                      Rng& rng) -> Status {
    int64_t op = static_cast<int64_t>(rng.Next() % 100);
    if (op < 50) {  // read
      int64_t k = static_cast<int64_t>(rng.Next() % kRows);
      return conn
          .Query(StrFormat("SELECT v FROM chaos_counters WHERE key = %lld",
                           static_cast<long long>(k)))
          .status();
    }
    if (op < 80) {  // single-key increment (autocommit, single shard)
      int64_t k = static_cast<int64_t>(rng.Next() % kRows);
      attempts[static_cast<size_t>(k)]++;
      Status st = conn.Query(StrFormat("UPDATE chaos_counters SET v = v + 1 "
                                       "WHERE key = %lld",
                                       static_cast<long long>(k)))
                      .status();
      if (st.ok()) acked[static_cast<size_t>(k)]++;
      return st;
    }
    // Two-key transfer: an explicit transaction block, usually 2PC across
    // two workers. Ordered keys keep the workload deadlock-free.
    int64_t a = static_cast<int64_t>(rng.Next() % kRows);
    int64_t b = static_cast<int64_t>(rng.Next() % kRows);
    if (a == b) b = (a + 1) % kRows;
    if (a > b) std::swap(a, b);
    attempts[static_cast<size_t>(a)]++;
    attempts[static_cast<size_t>(b)]++;
    Status st = conn.Query("BEGIN").status();
    if (st.ok()) {
      st = conn.Query(StrFormat("UPDATE chaos_counters SET v = v + 1 "
                                "WHERE key = %lld",
                                static_cast<long long>(a)))
               .status();
    }
    if (st.ok()) {
      st = conn.Query(StrFormat("UPDATE chaos_counters SET v = v + 1 "
                                "WHERE key = %lld",
                                static_cast<long long>(b)))
               .status();
    }
    if (st.ok()) st = conn.Query("COMMIT").status();
    if (st.ok()) {
      // The commit was acked: it must survive any crash from here on.
      acked[static_cast<size_t>(a)]++;
      acked[static_cast<size_t>(b)]++;
      return st;
    }
    CITUSX_IGNORE_STATUS(conn.Query("ROLLBACK"),
                         "recovery probe; a failed rollback is expected");
    return st;
  };

  DriverOptions opts;
  opts.clients = kClients;
  opts.warmup = kWarmup;
  opts.sleep_between = 0;
  opts.endpoints = {"coordinator"};

  std::printf("%-14s %12s %10s %10s %10s %11s %9s\n", "phase", "tps",
              "p50 (ms)", "p95 (ms)", "p99 (ms)", "retryable", "fatal");

  // ---- Phase 1: fault-free baseline ----
  opts.duration = kBaseline;
  PhaseResult baseline = Measure("baseline", sim, deploy, opts, txn);

  // ---- Phase 2: chaos window ----
  // Seeded crash/restart schedule: every event crashes one worker for
  // 300-800 ms. Events stop at 70% of the window so the last restart lands
  // inside it. Background noise: a small connection-drop probability on two
  // workers and a delay spike on one.
  Rng schedule(args.seed);
  std::vector<engine::Node*> workers = deploy.workers();
  sim::Time chaos_start = sim.now() + kWarmup;
  int events = args.quick ? 3 : 6;
  sim::Time spread = kChaos * 7 / 10;
  for (int i = 0; i < events; i++) {
    const std::string& target =
        workers[schedule.Next() % workers.size()]->name();
    sim::Time at = chaos_start + 200 * sim::kMillisecond +
                   spread * i / std::max(1, events);
    sim::Time down_for =
        (300 + static_cast<sim::Time>(schedule.Next() % 500)) *
        sim::kMillisecond;
    std::printf("  scheduled: crash %s at t+%.2fs for %.2fs\n", target.c_str(),
                static_cast<double>(at - chaos_start) / 1e9,
                static_cast<double>(down_for) / 1e9);
    sim.faults().ScheduleCrash(at, target, down_for);
  }
  sim.faults().SetConnectionDropProbability("worker1", 0.0005);
  sim.faults().SetConnectionDropProbability("worker3", 0.0005);
  sim.faults().SetDelaySpike("worker2", 2 * sim::kMillisecond,
                             chaos_start + kChaos / 2);
  opts.duration = kChaos;
  PhaseResult chaos = Measure("chaos", sim, deploy, opts, txn);
  sim.faults().SetConnectionDropProbability("worker1", 0);
  sim.faults().SetConnectionDropProbability("worker3", 0);

  // ---- Phase 3: recovery wait ----
  // Wait until every worker is back up and every prepared transaction has
  // been resolved by the recovery daemon (bounded number of rounds).
  int64_t unresolved = -1;
  MustRun(sim, [&]() -> Status {
    for (int round = 0; round < 10; round++) {
      unresolved = 0;
      bool any_down = false;
      for (engine::Node* w : workers) {
        if (w->is_down()) any_down = true;
        unresolved += static_cast<int64_t>(w->txns().PreparedGids().size());
      }
      if (!any_down && unresolved == 0) break;
      if (!sim.WaitFor(2 * sim::kSecond)) break;
    }
    return Status::OK();
  });
  std::printf("%-14s %s (unresolved prepared txns: %lld)\n", "recovery",
              unresolved == 0 ? "all prepared transactions resolved"
                              : "UNRESOLVED PREPARED TRANSACTIONS",
              static_cast<long long>(unresolved));

  // ---- Phase 4: post-recovery ----
  opts.duration = kPost;
  PhaseResult post = Measure("post-recovery", sim, deploy, opts, txn);

  // ---- Invariant check: no acked commit lost, nothing applied twice ----
  int64_t losses = 0, over_applied = 0, missing_rows = 0;
  MustRun(sim, [&]() -> Status {
    auto conn_r = deploy.Connect();
    if (!conn_r.ok()) return conn_r.status();
    auto r = (*conn_r)->Query("SELECT key, v FROM chaos_counters");
    CITUSX_RETURN_IF_ERROR(r.status());
    std::vector<int64_t> value(static_cast<size_t>(kRows), -1);
    for (const auto& row : r->rows) {
      int64_t k = row[0].int_value();
      if (k >= 0 && k < kRows) value[static_cast<size_t>(k)] = row[1].int_value();
    }
    for (int64_t k = 0; k < kRows; k++) {
      int64_t v = value[static_cast<size_t>(k)];
      if (v < 0) {
        missing_rows++;
        continue;
      }
      if (v < acked[static_cast<size_t>(k)]) losses++;
      if (v > attempts[static_cast<size_t>(k)]) over_applied++;
    }
    return Status::OK();
  });

  int64_t total_faults = sim.faults().total_injected();
  double post_ratio = baseline.tps > 0 ? post.tps / baseline.tps : 0;
  std::printf("\nfaults injected: %lld   acked-commit losses: %lld   "
              "over-applied: %lld   post/baseline tps: %.2f\n",
              static_cast<long long>(total_faults),
              static_cast<long long>(losses),
              static_cast<long long>(over_applied), post_ratio);

  BenchReport report("chaos_ycsb");
  for (const PhaseResult* p : {&baseline, &chaos, &post}) {
    report.AddResult(
        {{"phase", sql::Json::MakeString(p->phase)},
         {"tps", sql::Json::MakeNumber(p->tps)},
         {"p50_ms", sql::Json::MakeNumber(p->latency.p50_ms)},
         {"p95_ms", sql::Json::MakeNumber(p->latency.p95_ms)},
         {"p99_ms", sql::Json::MakeNumber(p->latency.p99_ms)},
         {"retryable_errors",
          sql::Json::MakeNumber(static_cast<double>(p->retryable))},
         {"fatal_errors",
          sql::Json::MakeNumber(static_cast<double>(p->fatal))},
         {"reconnects",
          sql::Json::MakeNumber(static_cast<double>(p->reconnects))}});
  }
  report.AddResult(
      {{"seed", sql::Json::MakeNumber(static_cast<double>(args.seed))},
       {"faults_injected",
        sql::Json::MakeNumber(static_cast<double>(total_faults))},
       {"acked_commit_losses",
        sql::Json::MakeNumber(static_cast<double>(losses))},
       {"over_applied", sql::Json::MakeNumber(static_cast<double>(over_applied))},
       {"unresolved_prepared",
        sql::Json::MakeNumber(static_cast<double>(unresolved))},
       {"post_over_baseline_tps", sql::Json::MakeNumber(post_ratio)}});
  report.AddMetrics("coordinator", deploy.coordinator()->metrics());
  if (!report.WriteTo(args.json_path)) return 1;
  sim.Shutdown();

  // ---- Verdict ----
  bool ok = true;
  auto fail = [&](const char* msg) {
    std::fprintf(stderr, "FAIL: %s\n", msg);
    ok = false;
  };
  if (total_faults == 0) fail("no faults were injected");
  if (losses > 0) fail("acked commits were lost");
  if (over_applied > 0) fail("updates were applied more than once");
  if (missing_rows > 0) fail("rows went missing");
  if (unresolved != 0) fail("prepared transactions left unresolved");
  if (baseline.fatal + chaos.fatal + post.fatal > 0) {
    fail("fatal (non-retryable) errors surfaced to clients");
  }
  if (post_ratio < 0.8) {
    fail("post-recovery throughput dropped more than 20% below baseline");
  }
  if (!ok) return 1;
  std::printf("PASS: zero acked-commit losses, all prepared transactions "
              "resolved, post-recovery tps at %.0f%% of baseline.\n",
              post_ratio * 100);
  return 0;
}
