// Figure 7: real-time analytics microbenchmarks over GitHub-archive-style
// JSON events with a trigram GIN index on commit messages.
//
//   (a) single-session COPY of one day of events into the indexed table
//   (b) dashboard query: commits mentioning "postgres" per day (ILIKE)
//   (c) INSERT..SELECT transformation extracting commits from push events
//
// Expected shapes (paper): COPY speedup saturates around 4+1 (the single
// COPY stream is bottlenecked on one coordinator core); the dashboard query
// and INSERT..SELECT keep scaling with workers.
//
// Self-check: on every setup the dashboard's per-day sums must equal the
// generator's own count of the commits of events that mention postgres;
// the binary exits non-zero otherwise. --quick loads a tenth of the events.
#include <map>

#include "bench_common.h"
#include "workload/gharchive.h"

using namespace citusx;
using namespace citusx::bench;
using namespace citusx::workload;

namespace {
constexpr int64_t kBaseEvents = 60000;  // pre-loaded "January"
constexpr int64_t kDayEvents = 15000;   // the appended day (Figure 7a)
}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const int64_t scale = args.quick ? 10 : 1;
  const int64_t base_events = kBaseEvents / scale;
  const int64_t day_events = kDayEvents / scale;
  BenchReport report("fig7");
  bool all_match = true;
  PrintHeader(
      "Real-time analytics microbenchmarks (GitHub archive, GIN index)",
      "Figure 7(a,b,c)");
  sim::CostModel cost;
  cost.buffer_pool_bytes = 32LL << 20;

  std::printf("%-12s %14s %16s %18s\n", "setup", "COPY (s)",
              "dashboard (ms)", "INSERT..SELECT (s)");
  for (const Setup& setup : PaperSetups()) {
    GhArchiveConfig config;
    config.use_citus = setup.install_citus;
    WithDeployment(setup, cost, [&](sim::Simulation& sim,
                                    citus::Deployment& deploy) {
      double copy_s = 0, dash_ms = 0, transform_s = 0;
      // Per day: what the dashboard shows, and the generator's count.
      std::map<std::string, int64_t> shown, expected;
      MustRun(sim, [&]() -> Status {
        auto conn_r = deploy.Connect();
        if (!conn_r.ok()) return conn_r.status();
        net::Connection& conn = **conn_r;
        CITUSX_RETURN_IF_ERROR(GhCreateSchema(conn, config));
        CITUSX_RETURN_IF_ERROR(GhCreateCommitsTable(conn, config));
        Rng rng(2020);
        // Pre-load January (builds a large index).
        for (int day = 1; day <= 5; day++) {
          auto rows = GhGenerateEvents(rng, config, base_events / 5, 2020, 1,
                                       day, &expected[StrFormat(
                                                "2020-01-%02d", day)]);
          CITUSX_RETURN_IF_ERROR(
              conn.CopyIn("github_events", {}, std::move(rows)).status());
        }
        // (a) Append the first day of February with a single COPY.
        auto day_rows = GhGenerateEvents(rng, config, day_events, 2020, 2, 1,
                                         &expected["2020-02-01"]);
        sim::Time t0 = deploy.sim()->now();
        CITUSX_RETURN_IF_ERROR(
            conn.CopyIn("github_events", {}, std::move(day_rows)).status());
        copy_s = static_cast<double>(deploy.sim()->now() - t0) / 1e9;
        // (b) Dashboard query: average of 5 runs, excluding the first
        // (cache warmup), exactly like §4.2.
        CITUSX_RETURN_IF_ERROR(conn.Query(GhDashboardQuery()).status());
        sim::Time total = 0;
        for (int run = 0; run < 5; run++) {
          sim::Time q0 = deploy.sim()->now();
          CITUSX_ASSIGN_OR_RETURN(engine::QueryResult dash,
                                  conn.Query(GhDashboardQuery()));
          total += deploy.sim()->now() - q0;
          shown.clear();
          for (const sql::Row& row : dash.rows) {
            shown[row[0].ToText()] = row[1].AsInt64();
          }
        }
        dash_ms = static_cast<double>(total) / 5e6;
        // (c) INSERT..SELECT transformation.
        sim::Time x0 = deploy.sim()->now();
        CITUSX_RETURN_IF_ERROR(conn.Query(GhTransformQuery()).status());
        transform_s = static_cast<double>(deploy.sim()->now() - x0) / 1e9;
        return Status::OK();
      });
      std::printf("%-12s %14.2f %16.1f %18.2f\n", setup.name.c_str(), copy_s,
                  dash_ms, transform_s);
      std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });
      if (shown != expected) {
        all_match = false;
        std::fprintf(stderr,
                     "fig7 self-check failed on %s: the dashboard shows %zu "
                     "days, the generator counts %zu (or the per-day sums "
                     "differ)\n",
                     setup.name.c_str(), shown.size(), expected.size());
      }
      int64_t commits = 0;
      for (const auto& kv : expected) commits += kv.second;
      report.AddResult({{"setup", sql::Json::MakeString(setup.name)},
                        {"copy_s", sql::Json::MakeNumber(copy_s)},
                        {"dashboard_ms", sql::Json::MakeNumber(dash_ms)},
                        {"insert_select_s", sql::Json::MakeNumber(transform_s)},
                        {"postgres_commits",
                         sql::Json::MakeNumber(static_cast<double>(commits))},
                        {"dashboard_matches",
                         sql::Json::MakeBool(shown == expected)}});
    });
  }
  std::printf("\nNote: COPY is one session (one coordinator core parses); the "
              "dashboard query\nuses the trigram index; INSERT..SELECT is "
              "co-located and runs per shard pair.\n");
  if (!report.WriteTo(args.json_path)) return 1;
  return all_match ? 0 : 1;
}
