// Ablation B: the adaptive executor's "slow start" (§3.6.1).
//
// Slow start trades parallelism for connection cost: cheap multi-shard
// queries should finish on few connections (opening more would cost more
// than it saves), while expensive analytical queries should ramp up to many
// connections. This bench runs a multi-shard query whose per-task cost is
// swept from cheap to expensive, with slow start on and off, and reports
// latency and connections opened. The query runs inside BEGIN ... COMMIT:
// a read-only fan-out outside a transaction block takes the fixed-width
// pipelined path, so the transaction block is where slow start admits its
// connections by default.
//
// The binary self-checks every count and sum, that slow start OFF opens the
// full pool (1 + tasks connections per worker), and that ON opens fewer
// connections than OFF; it exits non-zero on any violation.
#include <map>

#include "bench_common.h"
#include "common/str.h"

using namespace citusx;
using namespace citusx::bench;

namespace {

// Rows per shard controls per-task cost (sequential scan per task).
Status SetupTable(citus::Deployment& deploy, int64_t rows) {
  auto conn_r = deploy.Connect();
  if (!conn_r.ok()) return conn_r.status();
  net::Connection& conn = **conn_r;
  CITUSX_RETURN_IF_ERROR(
      conn.Query("CREATE TABLE sweep (k bigint, pad text)").status());
  CITUSX_RETURN_IF_ERROR(
      conn.Query("SELECT create_distributed_table('sweep', 'k')").status());
  std::vector<std::vector<std::string>> batch;
  for (int64_t i = 0; i < rows; i++) {
    batch.push_back({std::to_string(i), std::string(100, 'x')});
    if (batch.size() == 10000) {
      CITUSX_RETURN_IF_ERROR(conn.CopyIn("sweep", {}, std::move(batch)).status());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    CITUSX_RETURN_IF_ERROR(conn.CopyIn("sweep", {}, std::move(batch)).status());
  }
  return Status::OK();
}

}  // namespace

int main() {
  PrintHeader("Ablation: adaptive executor slow start (§3.6.1)",
              "design choice from DESIGN.md");
  std::printf("%-14s %12s %18s %18s %14s\n", "total rows", "slow start",
              "query latency (ms)", "conns opened", "conn time (s)");
  bool failed = false;
  auto fail = [&](const char* fmt, auto... vals) {
    std::fprintf(stderr, fmt, vals...);
    failed = true;
  };
  for (int64_t total_rows : {int64_t{3200}, int64_t{64000}, int64_t{640000}}) {
    int conns_on = 0;
    int conns_off = 0;
    for (bool slow_start : {true, false}) {
      sim::CostModel cost;
      cost.buffer_pool_bytes = 256LL << 20;  // keep I/O out of the picture
      Setup setup{"Citus 4+1", 4, true};
      sim::Simulation sim;
      citus::DeploymentOptions options;
      options.num_workers = setup.workers;
      options.cost = cost;
      options.citus.enable_slow_start = slow_start;
      citus::Deployment deploy(&sim, options);
      MustRun(sim, [&] { return SetupTable(deploy, total_rows); });

      double latency_ms = 0;
      int conns = 0;
      sim::Time conn_time = 0;
      MustRun(sim, [&]() -> Status {
        // A fresh session shows the connection ramp-up behaviour we want
        // to observe (no cached executor connections).
        auto conn_r = deploy.Connect();
        if (!conn_r.ok()) return conn_r.status();
        net::Connection& conn = **conn_r;
        CITUSX_RETURN_IF_ERROR(conn.Query("BEGIN").status());
        sim::Time t0 = sim.now();
        auto r = conn.Query("SELECT count(*), sum(k) FROM sweep");
        if (!r.ok()) return r.status();
        latency_ms = static_cast<double>(sim.now() - t0) / 1e6;
        int64_t count = r->rows[0][0].int_value();
        int64_t sum = r->rows[0][1].int_value();
        if (count != total_rows || sum != total_rows * (total_rows - 1) / 2) {
          fail("FAIL: rows=%lld slow_start=%d: count %lld, sum %lld\n",
               static_cast<long long>(total_rows), slow_start ? 1 : 0,
               static_cast<long long>(count), static_cast<long long>(sum));
        }
        CITUSX_RETURN_IF_ERROR(conn.Query("COMMIT").status());
        // Pool-growth connects still in flight when the query returns land
        // by the time COMMIT has made its round trips: count them now.
        citus::CitusExtension* ext = deploy.extension(deploy.coordinator());
        std::map<std::string, int> tasks;
        for (const auto& shard : ext->metadata().Find("sweep")->shards) {
          tasks[shard.placement]++;
        }
        for (engine::Node* w : deploy.workers()) {
          int opened = ext->outgoing_connections(w->name());
          conns += opened;
          if (!slow_start && opened != 1 + tasks[w->name()]) {
            fail("FAIL: rows=%lld slow start off: %s opened %d connections, "
                 "expected 1 + %d tasks\n",
                 static_cast<long long>(total_rows), w->name().c_str(),
                 opened, tasks[w->name()]);
          }
        }
        conn_time = static_cast<sim::Time>(conns) *
                    deploy.coordinator()->cost().connect_cost;
        return Status::OK();
      });
      std::printf("%-14lld %12s %18.2f %18d %14.3f\n",
                  static_cast<long long>(total_rows),
                  slow_start ? "on" : "off", latency_ms, conns,
                  static_cast<double>(conn_time) / 1e9);
      if (slow_start) {
        conns_on = conns;
      } else {
        conns_off = conns;
      }
      sim.Shutdown();
    }
    if (conns_on >= conns_off) {
      fail("FAIL: rows=%lld slow start on opened %d connections, off %d\n",
           static_cast<long long>(total_rows), conns_on, conns_off);
    }
  }
  std::printf("\nExpected: with slow start ON, a multi-shard query in a "
              "transaction block ramps up\nfrom 1 connection per worker; "
              "with slow start OFF it opens the full pool at once.\n");
  return failed ? 1 : 0;
}
