// End-to-end workload tests at miniature scale: TPC-C, YCSB, TPC-H, and the
// GitHub-archive pipeline, each against a Citus cluster and (where cheap)
// against a plain single node.
#include <gtest/gtest.h>

#include "citus/deploy.h"
#include "common/str.h"
#include "deployment_fixture.h"
#include "workload/driver.h"
#include "workload/gharchive.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"
#include "workload/ycsb.h"

namespace citusx::workload {
namespace {

class WorkloadTest : public test::DeploymentTest {
 protected:
  void MakeDeployment(int workers, bool install_citus = true) {
    citus::DeploymentOptions options;
    options.num_workers = workers;
    options.install_citus = install_citus;
    Deploy(options);
  }
};

TEST_F(WorkloadTest, TpccLoadsAndRunsOnCitus) {
  MakeDeployment(2);
  TpccConfig config;
  config.warehouses = 4;
  config.items = 100;
  config.customers_per_district = 20;
  config.orders_per_district = 20;
  config.districts_per_warehouse = 3;
  for (size_t i = 0; i < deploy_->cluster().num_nodes(); i++) {
    TpccRegisterProcedures(deploy_->cluster().node(i), config);
  }
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    auto st = TpccCreateSchema(**conn, config);
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = TpccLoad(**conn, config, 1, config.warehouses);
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = TpccDistributeProcedures(**conn);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // Sanity: row counts.
    auto r = (*conn)->Query("SELECT count(*) FROM customer");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 4 * 3 * 20);
    r = (*conn)->Query("SELECT count(*) FROM item");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 100);
  });
  // Run a short mixed workload.
  DriverOptions opts;
  opts.clients = 8;
  opts.warmup = sim::kSecond;
  opts.duration = 5 * sim::kSecond;
  DriverResult result =
      RunDriver(&sim_, &deploy_->cluster().directory(), opts, TpccMix(config));
  EXPECT_GT(result.transactions, 100);
  EXPECT_EQ(result.fatal_errors, 0) << result.last_error;
  // A few deadlock aborts are normal for TPC-C (stock updates in random
  // order); they must stay rare.
  EXPECT_LT(result.retryable_errors, result.transactions / 20);
  // Consistency after concurrency.
  RunSim([&] {
    auto conn = deploy_->Connect();
    auto st = TpccCheckConsistency(**conn, config);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
}

TEST_F(WorkloadTest, TpccRunsOnPlainPostgres) {
  MakeDeployment(0, /*install_citus=*/false);
  TpccConfig config;
  config.warehouses = 2;
  config.items = 50;
  config.customers_per_district = 10;
  config.orders_per_district = 10;
  config.districts_per_warehouse = 2;
  config.use_citus = false;
  TpccRegisterProcedures(deploy_->coordinator(), config);
  RunSim([&] {
    auto conn = deploy_->Connect();
    auto st = TpccCreateSchema(**conn, config);
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = TpccLoad(**conn, config, 1, config.warehouses);
    ASSERT_TRUE(st.ok()) << st.ToString();
  });
  DriverOptions opts;
  opts.clients = 4;
  opts.warmup = sim::kSecond;
  opts.duration = 3 * sim::kSecond;
  DriverResult result =
      RunDriver(&sim_, &deploy_->cluster().directory(), opts, TpccMix(config));
  EXPECT_GT(result.transactions, 50);
  EXPECT_EQ(result.fatal_errors, 0) << result.last_error;
  EXPECT_LT(result.retryable_errors, result.transactions / 20);
}

TEST_F(WorkloadTest, YcsbWorkloadA) {
  MakeDeployment(2);
  YcsbConfig config;
  config.record_count = 2000;
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(YcsbCreateSchema(**conn, config).ok());
    ASSERT_TRUE(YcsbLoad(**conn, config, 0, config.record_count).ok());
    auto r = (*conn)->Query("SELECT count(*) FROM usertable");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), config.record_count);
  });
  DriverOptions opts;
  opts.clients = 8;
  opts.warmup = sim::kSecond;
  opts.duration = 4 * sim::kSecond;
  opts.sleep_between = 0;
  // Every worker acts as a coordinator (§4.3).
  opts.endpoints = {"worker1", "worker2"};
  DriverResult result = RunDriver(&sim_, &deploy_->cluster().directory(), opts,
                                  YcsbWorkloadA(config));
  EXPECT_GT(result.transactions, 1000);
  EXPECT_EQ(result.fatal_errors, 0) << result.last_error;
}

TEST_F(WorkloadTest, TpchQueriesReturnConsistentResultsAcrossConfigs) {
  // The gold standard: every TPC-H query must return identical results on
  // plain PostgreSQL (local tables) and on a 4-worker Citus cluster.
  TpchConfig config;
  config.scale = 0.003;  // ~450 orders
  std::map<std::string, std::string> plain_results;
  {
    sim::Simulation sim;
    citus::DeploymentOptions options;
    options.num_workers = 0;
    options.install_citus = false;
    citus::Deployment deploy(&sim, options);
    TpchConfig local = config;
    local.use_citus = false;
    sim.Spawn("t", [&] {
      auto conn = deploy.Connect();
      ASSERT_TRUE(TpchCreateSchema(**conn, local).ok());
      ASSERT_TRUE(TpchLoad(**conn, local).ok());
      for (const auto& [name, sql] : TpchQueries()) {
        auto r = (*conn)->Query(sql);
        ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
        std::string repr;
        for (const auto& row : r->rows) {
          for (const auto& d : row) {
            // Round floats: plans differ, so float addition order differs.
            repr += d.type() == sql::TypeId::kFloat8
                        ? StrFormat("%.2f|", d.float_value())
                        : d.ToText() + "|";
          }
          repr += "\n";
        }
        plain_results[name] = repr;
      }
    });
    sim.Run();
    sim.Shutdown();
  }
  ASSERT_EQ(plain_results.size(), TpchQueries().size());
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(TpchCreateSchema(**conn, config).ok());
    ASSERT_TRUE(TpchLoad(**conn, config).ok());
    for (const auto& [name, sql] : TpchQueries()) {
      auto r = (*conn)->Query(sql);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      std::string repr;
      for (const auto& row : r->rows) {
        for (const auto& d : row) {
          repr += d.type() == sql::TypeId::kFloat8
                      ? StrFormat("%.2f|", d.float_value())
                      : d.ToText() + "|";
        }
        repr += "\n";
      }
      EXPECT_EQ(repr, plain_results[name]) << "query " << name;
    }
  });
}

TEST_F(WorkloadTest, GitHubArchivePipeline) {
  MakeDeployment(2);
  GhArchiveConfig config;
  config.postgres_mention_pct = 0.1;
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(GhCreateSchema(**conn, config).ok());
    ASSERT_TRUE(GhCreateCommitsTable(**conn, config).ok());
    Rng rng(42);
    auto rows = GhGenerateEvents(rng, config, 400, 2020, 2, 1);
    auto copied = (*conn)->CopyIn("github_events", {}, rows);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_EQ(copied->rows_affected, 400);
    // Dashboard query (uses the trigram index on the workers).
    auto dash = (*conn)->Query(GhDashboardQuery());
    ASSERT_TRUE(dash.ok()) << dash.status().ToString();
    ASSERT_EQ(dash->rows.size(), 1u);  // one day loaded
    EXPECT_GT(dash->rows[0][1].int_value(), 0);
    // INSERT..SELECT transformation (co-located).
    auto transform = (*conn)->Query(GhTransformQuery());
    ASSERT_TRUE(transform.ok()) << transform.status().ToString();
    EXPECT_GT(transform->rows_affected, 100);
    auto check = (*conn)->Query(
        "SELECT count(*), sum(n_commits) FROM push_commits");
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check->rows[0][0].int_value(), transform->rows_affected);
  });
}

TEST_F(WorkloadTest, GhArchiveJsonIsValid) {
  Rng rng(1);
  GhArchiveConfig config;
  auto rows = GhGenerateEvents(rng, config, 100, 2020, 2, 1);
  ASSERT_EQ(rows.size(), 100u);
  int pushes = 0;
  for (const auto& row : rows) {
    auto parsed = sql::Json::Parse(row[1]);
    ASSERT_TRUE(parsed.ok()) << row[1];
    auto type = (*parsed)->GetField("type");
    ASSERT_NE(type, nullptr);
    if (type->string_value() == "PushEvent") {
      pushes++;
      auto commits = (*parsed)->GetField("payload")->GetField("commits");
      ASSERT_NE(commits, nullptr);
      EXPECT_GT(commits->array_size(), 0);
    }
  }
  EXPECT_GT(pushes, 30);
}

}  // namespace
}  // namespace citusx::workload
