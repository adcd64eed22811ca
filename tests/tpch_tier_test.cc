// Regression test pinning each fig8 TPC-H query to its expected planner
// tier. A planner regression that silently demotes a query to a cheaper
// tier (or fails over to a slower one) changes what figure 8 measures, so
// the expected tier is asserted per query via the planner's tier counters.
// Shards are stored columnar, so worker fragments run through the
// vectorized columnar read path; a heap-vs-columnar differential requires
// both storages to return the same answer to every fig8 query.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "citus/deploy.h"
#include "citus/planner.h"
#include "common/str.h"
#include "result_compare.h"
#include "workload/tpch.h"

namespace citusx {
namespace {

struct TierCounts {
  int64_t fast_path, router, pushdown, join_order;
};

// The coordinator's citus.planner.* counters.
TierCounts Snapshot(citus::Deployment& deploy) {
  obs::Metrics& m = deploy.coordinator()->metrics();
  return {m.CounterValue("citus.planner.fast_path"),
          m.CounterValue("citus.planner.router"),
          m.CounterValue("citus.planner.pushdown"),
          m.CounterValue("citus.planner.join_order")};
}

class TpchTierTest : public ::testing::Test {
 protected:
  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
  }
  void TearDown() override {
    sim_.Shutdown();
    deploy_.reset();
  }
  sim::Simulation sim_;
  std::unique_ptr<citus::Deployment> deploy_;
};

TEST_F(TpchTierTest, Fig8QueriesPlanAtExpectedTier) {
  citus::DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  citus::Deployment& deploy = *deploy_;
  RunSim([&] {
    auto conn_r = deploy.Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    workload::TpchConfig cfg;
    cfg.scale = 0.01;  // 1500 orders: enough to exercise every query path
    cfg.columnar = true;
    ASSERT_TRUE(workload::TpchCreateSchema(conn, cfg).ok());
    ASSERT_TRUE(workload::TpchLoad(conn, cfg).ok());

    // Every fig8 query joins only co-located distributed tables
    // (lineitem/orders on the order key) and reference tables, so each one
    // must plan at the logical-pushdown tier — never router (it would run
    // on one shard and drop rows) and never join-order (it would
    // repartition needlessly).
    for (const auto& [name, sql] : workload::TpchQueries()) {
      TierCounts before = Snapshot(deploy);
      auto r = conn.Query(sql);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      TierCounts after = Snapshot(deploy);
      EXPECT_GT(after.pushdown, before.pushdown)
          << name << " did not plan at the pushdown tier";
      EXPECT_EQ(after.join_order, before.join_order)
          << name << " unexpectedly used the join-order tier";
      EXPECT_EQ(after.router, before.router)
          << name << " unexpectedly planned as a router query";
      EXPECT_EQ(after.fast_path, before.fast_path)
          << name << " unexpectedly planned as a fast-path query";
    }

    // A single-order lookup must stay on the fast path; demoting it to the
    // pushdown tier would fan a point query out to every shard.
    {
      TierCounts before = Snapshot(deploy);
      auto r = conn.Query("SELECT o_totalprice FROM orders "
                          "WHERE o_orderkey = 42");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      TierCounts after = Snapshot(deploy);
      EXPECT_GT(after.fast_path, before.fast_path);
      EXPECT_EQ(after.pushdown, before.pushdown);
    }

    // A join between distributed tables that are NOT co-located (partsupp
    // hashed on ps_partkey, in its own co-location group) must escalate to
    // the join-order (repartition) tier, not fail and not silently run as
    // pushdown with wrong per-shard joins.
    ASSERT_TRUE(conn.Query("CREATE TABLE partsupp (ps_partkey bigint, "
                           "ps_suppkey bigint, ps_availqty bigint)")
                    .ok());
    ASSERT_TRUE(
        conn.Query("SELECT create_distributed_table('partsupp', "
                   "'ps_partkey', colocate_with := 'none')")
            .ok());
    auto ins = conn.Query(
        "INSERT INTO partsupp SELECT p_partkey, p_partkey % 10 + 1, "
        "p_partkey % 100 FROM part");
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    {
      TierCounts before = Snapshot(deploy);
      auto r = conn.Query(
          "SELECT count(*), sum(ps_availqty) FROM lineitem JOIN partsupp "
          "ON l_partkey = ps_partkey");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      TierCounts after = Snapshot(deploy);
      EXPECT_GT(after.join_order, before.join_order)
          << "non-co-located join did not use the join-order tier";
      ASSERT_EQ(r->rows.size(), 1u);
      EXPECT_GT(r->rows[0][0].int_value(), 0);
    }
  });
}

// Every TpchQueries() answer over the same TPC-H data (scale 0.01, two
// workers) with lineitem/orders shards stored heap or columnar.
std::vector<std::vector<sql::Row>> TpchAnswers(bool columnar) {
  std::vector<std::vector<sql::Row>> answers;
  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 2;
  citus::Deployment deploy(&sim, options);
  sim.Spawn("test", [&] {
    auto conn = deploy.Connect();
    ASSERT_TRUE(conn.ok());
    workload::TpchConfig cfg;
    cfg.scale = 0.01;
    cfg.columnar = columnar;
    ASSERT_TRUE(workload::TpchCreateSchema(**conn, cfg).ok());
    ASSERT_TRUE(workload::TpchLoad(**conn, cfg).ok());
    for (const auto& [name, sql] : workload::TpchQueries()) {
      auto r = (*conn)->Query(sql);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      answers.push_back(std::move(r->rows));
    }
  });
  sim.Run();
  sim.Shutdown();
  return answers;
}

// Columnar storage changes how shards are read, never what a query returns.
// The other differentials (fig8, abl_olap, exec_diff_test) compare two
// executors running one plan, so only this one sees a column the plan
// failed to read.
TEST(TpchStorageTest, ColumnarShardsAnswerLikeHeapShards) {
  std::vector<std::vector<sql::Row>> heap = TpchAnswers(false);
  std::vector<std::vector<sql::Row>> columnar = TpchAnswers(true);
  const auto queries = workload::TpchQueries();
  ASSERT_EQ(heap.size(), queries.size());
  ASSERT_EQ(columnar.size(), queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    EXPECT_FALSE(heap[i].empty()) << queries[i].first;
    EXPECT_TRUE(test::RowsClose(heap[i], columnar[i]))
        << queries[i].first << ": columnar shards diverge from heap shards";
  }
}

// ---------------------------------------------------------------------------
// Repartition joins: Q5/Q7/Q8/Q9-class multi-way joins over NON-co-located
// distributed tables must plan at the join-order tier and return exactly
// the rows the pushdown-plannable formulation (reference/co-located twins
// of the same data) produces.
// ---------------------------------------------------------------------------

TEST_F(TpchTierTest, RepartitionJoinsMatchColocatedFormulation) {
  citus::DeploymentOptions options;
  options.num_workers = 4;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  citus::Deployment& deploy = *deploy_;
  RunSim([&] {
    auto conn_r = deploy.Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    workload::TpchConfig cfg;
    cfg.scale = 0.01;
    ASSERT_TRUE(workload::TpchCreateSchema(conn, cfg).ok());
    ASSERT_TRUE(workload::TpchLoad(conn, cfg).ok());

    // Distributed, deliberately NON-co-located twins of the reference
    // tables, holding identical data.
    auto exec = [&](const std::string& sql) {
      auto r = conn.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    exec("CREATE TABLE customer_d (c_custkey bigint, c_name text, "
         "c_nationkey bigint, c_acctbal double precision, c_mktsegment text)");
    exec("SELECT create_distributed_table('customer_d', 'c_custkey', "
         "colocate_with := 'none')");
    exec("INSERT INTO customer_d SELECT * FROM customer");
    exec("CREATE TABLE supplier_d (s_suppkey bigint, s_name text, "
         "s_nationkey bigint)");
    exec("SELECT create_distributed_table('supplier_d', 's_suppkey', "
         "colocate_with := 'none')");
    exec("INSERT INTO supplier_d SELECT * FROM supplier");
    exec("CREATE TABLE part_d (p_partkey bigint, p_name text, p_brand text, "
         "p_type text, p_size bigint, p_container text, "
         "p_retailprice double precision)");
    exec("SELECT create_distributed_table('part_d', 'p_partkey', "
         "colocate_with := 'none')");
    exec("INSERT INTO part_d SELECT * FROM part");

    // A per-order side table in two variants: `shipments` distributed on
    // the order key but NOT co-located with orders (forces a repartition),
    // `shipments_c` co-located with orders (the pushdown-plannable twin).
    exec("CREATE TABLE shipments (sh_orderkey bigint, "
         "sh_cost double precision)");
    exec("SELECT create_distributed_table('shipments', 'sh_orderkey', "
         "colocate_with := 'none')");
    exec("CREATE TABLE shipments_c (sh_orderkey bigint, "
         "sh_cost double precision)");
    exec("SELECT create_distributed_table('shipments_c', 'sh_orderkey', "
         "colocate_with := 'orders')");
    auto keys = conn.Query("SELECT o_orderkey, o_totalprice FROM orders");
    ASSERT_TRUE(keys.ok()) << keys.status().ToString();
    ASSERT_GE(keys->rows.size(), 1000u)
        << "need >= 1000 shipments to trigger the repartition threshold";
    for (size_t i = 0; i < keys->rows.size();) {
      std::string values;
      for (size_t n = 0; n < 200 && i < keys->rows.size(); n++, i++) {
        if (!values.empty()) values += ", ";
        values += StrFormat("(%lld, %s)",
                            static_cast<long long>(keys->rows[i][0].int_value()),
                            keys->rows[i][1].ToText().c_str());
      }
      exec("INSERT INTO shipments VALUES " + values);
      exec("INSERT INTO shipments_c VALUES " + values);
    }

    // (name, join-order formulation, pushdown-plannable oracle).
    struct Case {
      const char* name;
      std::string dist;
      std::string oracle;
    };
    std::vector<Case> cases;
    std::string q5 =
        "SELECT n_name, count(*), sum(l_extendedprice * (1 - l_discount)) "
        "FROM $CUST JOIN orders ON o_custkey = c_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE r_name = 'ASIA' GROUP BY n_name ORDER BY n_name";
    std::string q7 =
        "SELECT n_name, count(*), sum(sh_cost) "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN $SHIP ON sh_orderkey = o_orderkey "
        "JOIN $SUPP ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "GROUP BY n_name ORDER BY n_name";
    std::string q8 =
        "SELECT o_orderdate, sum(l_extendedprice * (1 - l_discount)) "
        "FROM $PART JOIN lineitem ON l_partkey = p_partkey "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN $CUST ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "WHERE p_size <= 20 GROUP BY o_orderdate ORDER BY o_orderdate";
    std::string q9 =
        "SELECT n_name, count(*), "
        "sum(l_extendedprice * (1 - l_discount) - l_quantity) "
        "FROM $PART JOIN lineitem ON l_partkey = p_partkey "
        "JOIN $SUPP ON l_suppkey = s_suppkey "
        "JOIN orders ON o_orderkey = l_orderkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "WHERE p_retailprice > 1000 GROUP BY n_name ORDER BY n_name";
    auto subst = [](std::string s, bool dist) {
      auto rep = [&](const std::string& from, const std::string& to) {
        for (size_t p = s.find(from); p != std::string::npos;
             p = s.find(from, p)) {
          s.replace(p, from.size(), to);
          p += to.size();
        }
      };
      rep("$CUST", dist ? "customer_d" : "customer");
      rep("$SUPP", dist ? "supplier_d" : "supplier");
      rep("$PART", dist ? "part_d" : "part");
      rep("$SHIP", dist ? "shipments" : "shipments_c");
      return s;
    };
    cases.push_back({"q5_class", subst(q5, true), subst(q5, false)});
    cases.push_back({"q7_class", subst(q7, true), subst(q7, false)});
    cases.push_back({"q8_class", subst(q8, true), subst(q8, false)});
    cases.push_back({"q9_class", subst(q9, true), subst(q9, false)});

    citus::CitusExtension* ext = deploy.extension(deploy.coordinator());
    for (const auto& c : cases) {
      TierCounts before = Snapshot(deploy);
      auto dist = conn.Query(c.dist);
      ASSERT_TRUE(dist.ok()) << c.name << ": " << dist.status().ToString();
      TierCounts mid = Snapshot(deploy);
      EXPECT_GT(mid.join_order, before.join_order)
          << c.name << " did not plan at the join-order tier";
      auto oracle = conn.Query(c.oracle);
      ASSERT_TRUE(oracle.ok()) << c.name << ": " << oracle.status().ToString();
      TierCounts after = Snapshot(deploy);
      EXPECT_EQ(after.join_order, mid.join_order)
          << c.name << " oracle unexpectedly used the join-order tier";
      EXPECT_GT(dist->rows.size(), 0u) << c.name << " returned no rows";
      EXPECT_TRUE(test::RowsClose(dist->rows, oracle->rows))
          << c.name << ": join-order results diverge from the co-located "
          << "formulation";
    }

    // The Q7-class shipments join exceeds the repartition threshold, so the
    // worker-to-worker shuffle must actually have moved bytes.
    EXPECT_GT(ext->metric_repartition_shuffled_bytes->value(), 0);
    EXPECT_GT(ext->metric_repartition_joins->value(), 0);

    // No intermediate-result shard may survive the queries on any node.
    for (engine::Node* w : deploy.workers()) {
      for (engine::TableInfo* t : w->catalog().AllTables()) {
        EXPECT_EQ(t->name.find("citusx_repart"), std::string::npos)
            << "leaked intermediate result " << t->name << " on worker";
      }
    }

    // Disabling the GUC turns the plannable query into a clean error.
    ASSERT_TRUE(conn.Query("SET citus.enable_repartition_joins = 'off'").ok());
    auto off = conn.Query(cases[0].dist);
    ASSERT_FALSE(off.ok());
    EXPECT_NE(off.status().message().find("enable_repartition_joins"),
              std::string::npos)
        << off.status().ToString();
    ASSERT_TRUE(conn.Query("SET citus.enable_repartition_joins = 'on'").ok());
  });
}

}  // namespace
}  // namespace citusx
