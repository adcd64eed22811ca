// Figure 9: distributed transaction (2PC) overhead.
//
// Paper: two 50GB pgbench tables distributed and co-located by key; a
// two-statement transaction updates both. One run uses the same random key
// for both updates (single-node transaction, delegated commit); the other
// uses different keys (two-phase commit when the keys land on different
// nodes). Expected shape: 2PC costs 20-30% and both modes scale with nodes.
#include "bench_common.h"
#include "common/str.h"

using namespace citusx;
using namespace citusx::bench;
using namespace citusx::workload;

namespace {

int64_t kRows = 500000;  // scaled down by --quick

Status Setup2Tables(citus::Deployment& deploy, bool use_citus) {
  auto conn_r = deploy.Connect();
  if (!conn_r.ok()) return conn_r.status();
  net::Connection& conn = **conn_r;
  for (const char* t : {"a1", "a2"}) {
    CITUSX_RETURN_IF_ERROR(
        conn.Query(StrFormat(
                       "CREATE TABLE %s (key bigint PRIMARY KEY, v bigint)", t))
            .status());
    if (use_citus) {
      CITUSX_RETURN_IF_ERROR(
          conn.Query(StrFormat("SELECT create_distributed_table('%s', 'key'%s)",
                               t,
                               std::string(t) == "a2"
                                   ? ", colocate_with := 'a1'"
                                   : ""))
              .status());
    }
    std::vector<std::vector<std::string>> rows;
    for (int64_t k = 0; k < kRows; k++) {
      rows.push_back({std::to_string(k), "0"});
      if (rows.size() == 10000) {
        CITUSX_RETURN_IF_ERROR(conn.CopyIn(t, {}, std::move(rows)).status());
        rows.clear();
      }
    }
    if (!rows.empty()) {
      CITUSX_RETURN_IF_ERROR(conn.CopyIn(t, {}, std::move(rows)).status());
    }
  }
  return Status::OK();
}

ClientTxn TwoUpdateTxn(bool same_key) {
  return [same_key](net::Connection& conn, int client, Rng& rng) -> Status {
    int64_t key1 = rng.Uniform(0, kRows - 1);
    int64_t key2 = same_key ? key1 : rng.Uniform(0, kRows - 1);
    CITUSX_RETURN_IF_ERROR(conn.Query("BEGIN").status());
    auto u1 = conn.Query(StrFormat(
        "UPDATE a1 SET v = v + 1 WHERE key = %lld",
        static_cast<long long>(key1)));
    if (!u1.ok()) {
      auto rb = conn.Query("ROLLBACK");
      return u1.status();
    }
    auto u2 = conn.Query(StrFormat(
        "UPDATE a2 SET v = v - 1 WHERE key = %lld",
        static_cast<long long>(key2)));
    if (!u2.ok()) {
      auto rb = conn.Query("ROLLBACK");
      return u2.status();
    }
    return conn.Query("COMMIT").status();
  };
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Distributed transactions: 2PC overhead (pgbench-style)",
              "Figure 9");
  sim::CostModel cost;
  // The paper's pgbench tables (50GB) exceed memory: updates are disk-bound
  // per worker, which is what makes both modes scale with node count.
  cost.buffer_pool_bytes = 4LL << 20;

  std::vector<Setup> setups;
  for (const Setup& s : PaperSetups()) {
    if (s.install_citus) setups.push_back(s);  // 2PC comparison is Citus-only
  }
  int clients = 96;
  sim::Time warmup = 2 * sim::kSecond;
  sim::Time duration = 10 * sim::kSecond;
  if (args.quick) {
    kRows = 20000;
    clients = 16;
    warmup = 200 * sim::kMillisecond;
    duration = sim::kSecond;
    setups = {{"Citus 2+1", 2, true}};
  }

  BenchReport report("fig9");
  bool invariant_ok = true;
  std::printf("%-12s %16s %16s %10s\n", "setup", "same-key (TPS)",
              "diff-key (TPS)", "penalty");
  for (const Setup& setup : setups) {
    double tps[2] = {0, 0};
    for (int mode = 0; mode < 2; mode++) {
      const char* mode_name = mode == 0 ? "same-key" : "diff-key";
      WithDeployment(setup, cost, [&](sim::Simulation& sim,
                                      citus::Deployment& deploy) {
        MustRun(sim, [&] { return Setup2Tables(deploy, true); });
        // Snapshot the commit counters after the load phase: schema DDL and
        // COPY commit over many executor connections at once, so only the
        // pgbench-style workload below has the exactly-two-participants
        // shape the invariant check relies on.
        const obs::Metrics& m = deploy.coordinator()->metrics();
        int64_t prepares0 = m.CounterValue("citus.2pc.prepares");
        int64_t commits_2pc0 = m.CounterValue("citus.2pc.commits");
        int64_t commits_1pc0 = m.CounterValue("citus.2pc.single_node_commits");
        DriverOptions opts;
        opts.clients = clients;
        opts.warmup = warmup;
        opts.duration = duration;
        opts.sleep_between = 0;
        DriverResult r = RunDriver(&sim, &deploy.cluster().directory(), opts,
                                   TwoUpdateTxn(mode == 0));
        tps[mode] = r.PerSecond();
        LatencyTriple lat = Percentiles(r.latency);

        int64_t prepares = m.CounterValue("citus.2pc.prepares") - prepares0;
        int64_t commits_2pc =
            m.CounterValue("citus.2pc.commits") - commits_2pc0;
        int64_t commits_1pc =
            m.CounterValue("citus.2pc.single_node_commits") - commits_1pc0;
        // Every distributed commit touching >= 2 nodes sends exactly one
        // PREPARE TRANSACTION per participant, and a two-statement pgbench
        // transaction has exactly two.
        if (prepares != 2 * commits_2pc) {
          std::fprintf(stderr,
                       "2PC invariant violated (%s, %s): prepares=%lld != "
                       "2 * two_phase_commits=%lld\n",
                       setup.name.c_str(), mode_name,
                       static_cast<long long>(prepares),
                       static_cast<long long>(commits_2pc));
          invariant_ok = false;
        }
        if (mode == 1 && setup.workers >= 2 && commits_2pc == 0) {
          std::fprintf(stderr,
                       "expected some two-phase commits in diff-key mode on "
                       "%s, saw none\n", setup.name.c_str());
          invariant_ok = false;
        }
        report.AddResult(
            {{"setup", sql::Json::MakeString(setup.name)},
             {"mode", sql::Json::MakeString(mode_name)},
             {"tps", sql::Json::MakeNumber(tps[mode])},
             {"p50_ms", sql::Json::MakeNumber(lat.p50_ms)},
             {"p95_ms", sql::Json::MakeNumber(lat.p95_ms)},
             {"p99_ms", sql::Json::MakeNumber(lat.p99_ms)},
             {"two_phase_prepares",
              sql::Json::MakeNumber(static_cast<double>(prepares))},
             {"two_phase_commits",
              sql::Json::MakeNumber(static_cast<double>(commits_2pc))},
             {"single_node_commits",
              sql::Json::MakeNumber(static_cast<double>(commits_1pc))}});
        if (mode == 1) {
          report.AddMetrics(setup.name + "/coordinator",
                            deploy.coordinator()->metrics());
        }
      });
    }
    std::printf("%-12s %16.0f %16.0f %9.0f%%\n", setup.name.c_str(), tps[0],
                tps[1], 100.0 * (1.0 - tps[1] / tps[0]));
  }
  std::printf("\nNote: same-key = both updates on one co-located shard group "
              "(single-node commit);\ndiff-key = random keys, usually two "
              "nodes (PREPARE TRANSACTION + COMMIT PREPARED).\n");

  if (!report.WriteTo(args.json_path)) return 1;
  if (!args.json_path.empty()) {
    // Validate the emitted document round-trips and carries the counters.
    std::FILE* f = std::fopen(args.json_path.c_str(), "r");
    if (f == nullptr) return 1;
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    auto parsed = sql::Json::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "emitted JSON does not parse: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    sql::JsonPtr results = (*parsed)->GetField("results");
    if (results == nullptr || results->array_size() == 0) {
      std::fprintf(stderr, "emitted JSON has no results\n");
      return 1;
    }
    for (const sql::JsonPtr& row : results->array_items()) {
      double p = row->GetField("two_phase_prepares")->number_value();
      double c = row->GetField("two_phase_commits")->number_value();
      if (p != 2 * c) {
        std::fprintf(stderr, "parsed JSON violates 2PC invariant\n");
        return 1;
      }
    }
  }
  return invariant_ok ? 0 : 1;
}
