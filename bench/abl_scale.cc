// Scale ablation: transaction pooling, shared-connection pipelining, and
// delta metadata sync — the three mechanisms that 10x cluster and session
// scale (paper §3.2.1: connections are the scarcest resource in a
// process-per-connection cluster).
//
// Two sweeps:
//
//   nodes     pgbench -S-style single-shard reads (1/16 multi-shard
//             aggregates riding the pipelined executor) against clusters of
//             8 -> 128 nodes, clients spread over 8 coordinating nodes (MX).
//             Before each run's workload, a burst of metadata churns
//             (CREATE INDEX) measures delta-sync cost per node per change.
//             It must stay proportional to the change (per-node bytes flat
//             as the cluster grows 16x, one round trip), not to the catalog
//             or the worker list.
//
//   sessions  1k -> 1M logical client sessions (each with its own SET
//             state) multiplexed over a fixed driver fleet and a bounded
//             connection budget to the coordinator. pooled mode runs them
//             through the transaction pooler (state replayed on attach);
//             the reconnect baseline gives each transaction a dedicated
//             connection — the only way a non-pooled deployment can serve
//             more sessions than it has connection slots. Pooling must
//             deliver >= 2x aggregate tps at >= 100k sessions on the same
//             budget.
//
//   abl_scale [--quick] [--json=<path>]
#include <unordered_map>

#include "bench_common.h"
#include "common/str.h"
#include "pool/pooler.h"

using namespace citusx;
using namespace citusx::bench;

namespace {

struct SyncCost {
  int64_t bytes = 0;
  int64_t round_trips = 0;
  int64_t delta_syncs = 0;
};

SyncCost TotalSyncCost(citus::CitusExtension* ext) {
  SyncCost c;
  for (const auto& [name, st] : ext->sync_states()) {
    c.bytes += st.bytes_sent;
    c.round_trips += st.round_trips;
    c.delta_syncs += st.delta_syncs;
  }
  return c;
}

Status LoadRows(citus::Deployment& deploy, int64_t rows) {
  auto conn_r = deploy.Connect();
  if (!conn_r.ok()) return conn_r.status();
  net::Connection& conn = **conn_r;
  CITUSX_RETURN_IF_ERROR(
      conn.Query("CREATE TABLE kv (key bigint PRIMARY KEY, v text)").status());
  CITUSX_RETURN_IF_ERROR(
      conn.Query("SELECT create_distributed_table('kv', 'key')").status());
  std::vector<std::vector<std::string>> batch;
  for (int64_t i = 0; i < rows; i++) {
    batch.push_back(
        {std::to_string(i), StrFormat("v-%lld", static_cast<long long>(i))});
    if (batch.size() == 2000) {
      CITUSX_RETURN_IF_ERROR(conn.CopyIn("kv", {}, std::move(batch)).status());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    CITUSX_RETURN_IF_ERROR(conn.CopyIn("kv", {}, std::move(batch)).status());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sweep 1: tps and metadata-churn cost vs node count.
// ---------------------------------------------------------------------------

struct NodeScaleResult {
  int nodes = 0;
  double tps = 0;
  LatencyTriple latency;
  int64_t errors = 0;
  int64_t retryable = 0;
  int64_t pipelined_tasks = 0;
  // Per peer node, per metadata change.
  double delta_bytes_per_node = 0;
  double delta_rts_per_node = 0;
  int64_t delta_syncs = 0;
};

// `churns` CREATE INDEX statements; returns (bytes, RTs) per peer per churn.
Status RunChurn(citus::Deployment& deploy, net::Connection& conn, int* seq,
                int churns, int peers, double* bytes_per_node,
                double* rts_per_node, int64_t* delta_syncs) {
  citus::CitusExtension* coord = deploy.extension(deploy.coordinator());
  SyncCost before = TotalSyncCost(coord);
  for (int k = 0; k < churns; k++) {
    CITUSX_RETURN_IF_ERROR(
        conn.Query(StrFormat("CREATE INDEX scale_idx_%d ON kv (v)", (*seq)++))
            .status());
  }
  SyncCost after = TotalSyncCost(coord);
  double denom = static_cast<double>(peers) * churns;
  *bytes_per_node = static_cast<double>(after.bytes - before.bytes) / denom;
  *rts_per_node =
      static_cast<double>(after.round_trips - before.round_trips) / denom;
  *delta_syncs = after.delta_syncs - before.delta_syncs;
  return Status::OK();
}

NodeScaleResult RunNodeScale(int nodes, bool quick) {
  sim::CostModel cost;
  cost.cores_per_node = 1;  // small nodes: small clusters visibly saturate
  cost.buffer_pool_bytes = 256LL << 20;

  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = nodes - 1;
  options.cost = cost;
  citus::Deployment deploy(&sim, options);

  const int64_t rows = quick ? 1000 : 4000;
  MustRun(sim, [&] { return LoadRows(deploy, rows); });

  NodeScaleResult out;
  out.nodes = nodes;
  const int churns = 3;
  int seq = nodes * 100;  // unique index names across phases
  MustRun(sim, [&] {
    auto conn = deploy.Connect();
    if (!conn.ok()) return conn.status();
    return RunChurn(deploy, **conn, &seq, churns, nodes - 1,
                    &out.delta_bytes_per_node, &out.delta_rts_per_node,
                    &out.delta_syncs);
  });

  workload::DriverOptions dopts;
  dopts.clients = quick ? 48 : 96;
  // Each client session lazily opens one connection per worker it touches
  // (connect_cost apiece), so the cold-connection storm grows with the
  // cluster. Scale warmup with node count to keep it out of the measured
  // window — we are measuring steady-state throughput, not connect churn.
  dopts.warmup =
      (quick ? 50 : 100) * sim::kMillisecond + nodes * 8 * sim::kMillisecond;
  dopts.duration = (quick ? 200 : 400) * sim::kMillisecond;
  dopts.sleep_between = 0;
  dopts.endpoints = {"coordinator"};
  for (int w = 1; w <= std::min(7, nodes - 1); w++) {
    dopts.endpoints.push_back(StrFormat("worker%d", w));
  }

  workload::DriverResult r = workload::RunDriver(
      &sim, &deploy.cluster().directory(), dopts,
      [&](net::Connection& conn, int client_id, Rng& rng) -> Status {
        if (rng.Next() % 16 == 0) {
          // Multi-shard fan-out: pipelined over shared connections.
          return conn.Query("SELECT count(*) FROM kv").status();
        }
        int64_t key = static_cast<int64_t>(rng.Next() % rows);
        return conn
            .Query(StrFormat("SELECT v FROM kv WHERE key = %lld",
                             static_cast<long long>(key)))
            .status();
      });

  out.tps = r.PerSecond();
  out.latency = Percentiles(r.latency);
  out.errors = r.fatal_errors;
  out.retryable = r.retryable_errors;
  for (size_t i = 0; i < deploy.cluster().num_nodes(); i++) {
    out.pipelined_tasks += deploy.cluster().node(i)->metrics().CounterValue(
        "citus.executor.pipelined_tasks");
  }
  if (r.fatal_errors > 0) {
    std::fprintf(stderr, "nodes=%d last error: %s\n", nodes,
                 r.last_error.c_str());
  }
  sim.Shutdown();
  return out;
}

// ---------------------------------------------------------------------------
// Sweep 2: tps vs logical session count, pooled vs reconnect baseline.
// ---------------------------------------------------------------------------

struct SessionScaleResult {
  int64_t sessions = 0;
  double tps = 0;
  LatencyTriple latency;
  int64_t errors = 0;
  int64_t retryable = 0;
  int64_t state_replays = 0;
  int64_t physical_conns = 0;  // peak backend connections used (pooled)
};

SessionScaleResult RunSessionScale(int64_t sessions, bool pooled, bool quick) {
  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 4;
  options.cost.buffer_pool_bytes = 256LL << 20;
  citus::Deployment deploy(&sim, options);

  const int64_t rows = quick ? 1000 : 2000;
  MustRun(sim, [&] { return LoadRows(deploy, rows); });

  // The bounded budget: at most `budget` concurrent connections into the
  // coordinator, for both modes.
  const int budget = quick ? 16 : 32;
  const int drivers = budget;
  const sim::Time warmup = 50 * sim::kMillisecond;
  const sim::Time duration = (quick ? 250 : 400) * sim::kMillisecond;

  net::NodeDirectory* directory = &deploy.cluster().directory();
  pool::PoolerOptions popts;
  popts.pool_size = budget;
  pool::TransactionPooler pooler(&sim, directory, nullptr, "coordinator",
                                 popts);
  // Logical sessions materialize on first use; the rest of the million are
  // idle, which is the point — idle sessions must cost nothing.
  std::unordered_map<int64_t, std::unique_ptr<pool::PooledSession>> live;

  SessionScaleResult out;
  out.sessions = sessions;
  sim::Time start_measure = warmup;
  sim::Time end = warmup + duration;
  sim::Histogram latency;

  for (int d = 0; d < drivers; d++) {
    sim.Spawn("scale_driver", [&, d] {
      Rng rng(static_cast<uint64_t>(d) * 104729 + 11);
      // Each driver owns a disjoint slice of the session id space, so a
      // logical session is never driven by two processes at once.
      int64_t slice = sessions / drivers;
      int64_t base = d * slice;
      while (sim.now() < end) {
        int64_t sid = base + static_cast<int64_t>(rng.Next()) %
                                 std::max<int64_t>(1, slice);
        int64_t key = static_cast<int64_t>(rng.Next() % rows);
        std::string sql = StrFormat("SELECT v FROM kv WHERE key = %lld",
                                    static_cast<long long>(key));
        sim::Time t0 = sim.now();
        Status st = [&]() -> Status {
          if (pooled) {
            auto& sess = live[sid];
            if (sess == nullptr) {
              sess = pooler.OpenSession();
              // Per-session GUC state, replayed on every backend swap.
              CITUSX_RETURN_IF_ERROR(
                  sess->Query(StrFormat("SET app.session = 's%lld'",
                                        static_cast<long long>(sid)))
                      .status());
            }
            return sess->Query(sql).status();
          }
          // Reconnect baseline: a dedicated connection per transaction is
          // the only way to serve `sessions` clients with `budget` slots.
          auto conn = directory->Connect(nullptr, "coordinator");
          if (!conn.ok()) return conn.status();
          return (*conn)->Query(sql).status();
        }();
        sim::Time t1 = sim.now();
        if (t0 >= start_measure && t1 <= end) {
          if (st.ok()) {
            out.tps += 1;  // transaction count until normalized below
            latency.Record(t1 - t0);
          } else if (st.error_class() == ErrorClass::kRetryableTransient ||
                     st.error_class() == ErrorClass::kNodeDown) {
            out.retryable++;
          } else {
            out.errors++;
          }
        }
      }
    });
  }
  sim.Run();
  out.tps = out.tps * 1e9 / static_cast<double>(duration);
  out.latency = Percentiles(latency);
  engine::Node* server = directory->Find("coordinator");
  out.state_replays = server->metrics().CounterValue("pool.state_replays");
  out.physical_conns = pooler.physical_connections();
  live.clear();  // sessions close before the pooler goes away
  sim.Shutdown();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  PrintHeader("Ablation: transaction pooling + pipelining + delta sync scale",
              "paper §3.2.1 connection scarcity; cluster and session scale");

  BenchReport report("abl_scale");

  // ---- Sweep 1: node count ----
  std::vector<int> node_counts =
      args.quick ? std::vector<int>{8, 32} : std::vector<int>{8, 16, 32, 64, 128};
  std::printf("%-8s %12s %10s %10s %10s | %14s %12s\n", "nodes", "tps",
              "p50 (ms)", "p95 (ms)", "p99 (ms)", "delta B/node",
              "delta RT/n");
  std::vector<NodeScaleResult> node_results;
  for (int n : node_counts) {
    NodeScaleResult r = RunNodeScale(n, args.quick);
    node_results.push_back(r);
    std::printf("%-8d %12.0f %10.3f %10.3f %10.3f | %14.0f %12.2f\n",
                r.nodes, r.tps, r.latency.p50_ms, r.latency.p95_ms,
                r.latency.p99_ms, r.delta_bytes_per_node,
                r.delta_rts_per_node);
    report.AddResult(
        {{"phase", sql::Json::MakeString("nodes")},
         {"nodes", sql::Json::MakeNumber(r.nodes)},
         {"tps", sql::Json::MakeNumber(r.tps)},
         {"p50_ms", sql::Json::MakeNumber(r.latency.p50_ms)},
         {"p95_ms", sql::Json::MakeNumber(r.latency.p95_ms)},
         {"p99_ms", sql::Json::MakeNumber(r.latency.p99_ms)},
         {"errors", sql::Json::MakeNumber(static_cast<double>(r.errors))},
         {"retryable_errors",
          sql::Json::MakeNumber(static_cast<double>(r.retryable))},
         {"pipelined_tasks",
          sql::Json::MakeNumber(static_cast<double>(r.pipelined_tasks))},
         {"churn_delta_bytes_per_node",
          sql::Json::MakeNumber(r.delta_bytes_per_node)},
         {"churn_delta_rts_per_node",
          sql::Json::MakeNumber(r.delta_rts_per_node)},
         {"delta_syncs",
          sql::Json::MakeNumber(static_cast<double>(r.delta_syncs))}});
  }

  // ---- Sweep 2: session count ----
  std::vector<int64_t> session_counts =
      args.quick ? std::vector<int64_t>{1000, 100000}
                 : std::vector<int64_t>{1000, 10000, 100000, 1000000};
  std::printf("\n%-10s %-10s %12s %10s %10s %10s %10s\n", "sessions", "mode",
              "tps", "p50 (ms)", "p99 (ms)", "replays", "conns");
  std::vector<std::pair<SessionScaleResult, SessionScaleResult>> session_rows;
  for (int64_t s : session_counts) {
    SessionScaleResult pooled = RunSessionScale(s, /*pooled=*/true,
                                                args.quick);
    SessionScaleResult base = RunSessionScale(s, /*pooled=*/false, args.quick);
    for (const auto* r : {&pooled, &base}) {
      const char* mode = (r == &pooled) ? "pooled" : "reconnect";
      std::printf("%-10lld %-10s %12.0f %10.3f %10.3f %10lld %10lld\n",
                  static_cast<long long>(r->sessions), mode, r->tps,
                  r->latency.p50_ms, r->latency.p99_ms,
                  static_cast<long long>(r->state_replays),
                  static_cast<long long>(r->physical_conns));
      report.AddResult(
          {{"phase", sql::Json::MakeString("sessions")},
           {"sessions",
            sql::Json::MakeNumber(static_cast<double>(r->sessions))},
           {"mode", sql::Json::MakeString(mode)},
           {"tps", sql::Json::MakeNumber(r->tps)},
           {"p50_ms", sql::Json::MakeNumber(r->latency.p50_ms)},
           {"p99_ms", sql::Json::MakeNumber(r->latency.p99_ms)},
           {"errors", sql::Json::MakeNumber(static_cast<double>(r->errors))},
           {"retryable_errors",
            sql::Json::MakeNumber(static_cast<double>(r->retryable))},
           {"state_replays",
            sql::Json::MakeNumber(static_cast<double>(r->state_replays))},
           {"physical_connections",
            sql::Json::MakeNumber(static_cast<double>(r->physical_conns))}});
    }
    session_rows.emplace_back(std::move(pooled), std::move(base));
  }

  // ---- Self-checks ----
  bool failed = false;
  auto fail = [&](const char* fmt, auto... vals) {
    std::fprintf(stderr, fmt, vals...);
    failed = true;
  };

  for (const NodeScaleResult& r : node_results) {
    if (r.errors > 0) {
      fail("FAIL: nodes=%d produced %lld errors\n", r.nodes,
           static_cast<long long>(r.errors));
    }
    if (r.pipelined_tasks <= 0) {
      fail("FAIL: nodes=%d executed no pipelined tasks\n", r.nodes);
    }
  }
  if (node_results.size() >= 2) {
    const NodeScaleResult& lo = node_results.front();
    const NodeScaleResult& hi = node_results.back();
    double flatness = lo.delta_bytes_per_node > 0
                          ? hi.delta_bytes_per_node / lo.delta_bytes_per_node
                          : 1e9;
    std::printf("\nDelta churn bytes/node: %.0f @ %d nodes -> %.0f @ %d nodes "
                "(%.2fx across a %dx cluster)\n",
                lo.delta_bytes_per_node, lo.nodes, hi.delta_bytes_per_node,
                hi.nodes, flatness, hi.nodes / lo.nodes);
    report.AddResult(
        {{"delta_bytes_flatness", sql::Json::MakeNumber(flatness)}});
    if (flatness > 2.0) {
      fail("FAIL: delta sync cost per node grew %.2fx across a %dx cluster — "
           "not proportional to the change\n",
           flatness, hi.nodes / lo.nodes);
    }
    if (hi.delta_rts_per_node > 1.5) {
      fail("FAIL: expected ~1 RT/churn with delta (got %.2f) at %d nodes\n",
           hi.delta_rts_per_node, hi.nodes);
    }
    if (hi.delta_syncs <= 0) {
      fail("FAIL: no delta syncs at %d nodes\n", hi.nodes);
    }
  }

  double checked_ratio = 0;
  for (const auto& [pooled, base] : session_rows) {
    if (pooled.errors > 0 || base.errors > 0) {
      fail("FAIL: sessions=%lld produced errors (pooled=%lld base=%lld)\n",
           static_cast<long long>(pooled.sessions),
           static_cast<long long>(pooled.errors),
           static_cast<long long>(base.errors));
    }
    if (pooled.sessions >= 100000) {
      double ratio = base.tps > 0 ? pooled.tps / base.tps : 0;
      checked_ratio = ratio;
      std::printf("Pooled / reconnect tps at %lld sessions: %.2fx\n",
                  static_cast<long long>(pooled.sessions), ratio);
      report.AddResult(
          {{"sessions",
            sql::Json::MakeNumber(static_cast<double>(pooled.sessions))},
           {"pooled_over_reconnect", sql::Json::MakeNumber(ratio)}});
      if (ratio < 2.0) {
        fail("FAIL: expected >= 2x pooled throughput at %lld sessions on the "
             "same connection budget, got %.2fx\n",
             static_cast<long long>(pooled.sessions), ratio);
      }
      if (pooled.state_replays <= 0) {
        fail("FAIL: no state replays at %lld sessions — multiplexing never "
             "swapped tenants\n",
             static_cast<long long>(pooled.sessions));
      }
    }
  }

  if (!report.WriteTo(args.json_path)) return 1;
  if (failed) return 1;
  std::printf("PASS: %d-node cluster served the workload; pooling delivered "
              "%.2fx at >= 100k sessions on a bounded connection budget.\n",
              node_counts.back(), checked_ratio);
  return 0;
}
