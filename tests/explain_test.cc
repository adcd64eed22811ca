// Tests for EXPLAIN: local plan descriptions and distributed planner tiers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "citus/deploy.h"
#include "common/str.h"

namespace citusx {
namespace {

std::string ExplainText(const engine::QueryResult& r) {
  std::string out;
  for (const auto& row : r.rows) {
    out += row[0].text_value();
    out += "\n";
  }
  return out;
}

class ExplainTest : public ::testing::Test {
 protected:
  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
  }
  // Shut the simulation down before the deployment is destroyed: backend
  // processes unwinding during Shutdown still release connection gates.
  void TearDown() override {
    sim_.Shutdown();
    deploy_.reset();
  }
  sim::Simulation sim_;
  std::unique_ptr<citus::Deployment> deploy_;
};

TEST_F(ExplainTest, LocalPlans) {
  engine::Node node(&sim_, "pg", sim::DefaultCostModel());
  RunSim([&] {
    auto s = node.OpenSession();
    ASSERT_TRUE(s->Execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint, "
                           "tag text)")
                    .ok());
    ASSERT_TRUE(s->Execute("CREATE TABLE u (k bigint, w bigint)").ok());
    // Index scan is chosen for pk equality.
    auto idx = s->Execute("EXPLAIN SELECT v FROM t WHERE k = 5");
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    EXPECT_NE(ExplainText(*idx).find("Index Scan on t"), std::string::npos)
        << ExplainText(*idx);
    // Seq scan otherwise, with the filter shown.
    auto seq = s->Execute("EXPLAIN SELECT v FROM t WHERE v > 5");
    ASSERT_TRUE(seq.ok());
    EXPECT_NE(ExplainText(*seq).find("Seq Scan on t"), std::string::npos);
    EXPECT_NE(ExplainText(*seq).find("Filter"), std::string::npos);
    // Hash join + aggregate + sort + limit structure.
    auto join = s->Execute(
        "EXPLAIN SELECT t.tag, count(*) FROM t JOIN u ON t.k = u.k "
        "GROUP BY t.tag ORDER BY 2 DESC LIMIT 3");
    ASSERT_TRUE(join.ok());
    std::string text = ExplainText(*join);
    EXPECT_NE(text.find("Hash Inner Join"), std::string::npos) << text;
    EXPECT_NE(text.find("GroupAggregate"), std::string::npos) << text;
    EXPECT_NE(text.find("Sort"), std::string::npos) << text;
    EXPECT_NE(text.find("Limit 3"), std::string::npos) << text;
    // DML explain.
    auto upd = s->Execute("EXPLAIN UPDATE t SET v = 1 WHERE k = 2");
    ASSERT_TRUE(upd.ok());
    EXPECT_NE(ExplainText(*upd).find("Update on t"), std::string::npos);
  });
}

TEST_F(ExplainTest, DistributedTiers) {
  citus::DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  citus::Deployment& deploy = *deploy_;
  RunSim([&] {
    auto conn = deploy.Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE kv (key bigint PRIMARY KEY, v text)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('kv', 'key')").ok());
    // Fast path router.
    auto fast = (*conn)->Query("EXPLAIN SELECT v FROM kv WHERE key = 1");
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    std::string text = ExplainText(*fast);
    EXPECT_NE(text.find("Fast Path Router"), std::string::npos) << text;
    EXPECT_NE(text.find("kv_102"), std::string::npos) << text;  // shard name
    // Adaptive (pushdown) with task count = shard count.
    auto push = (*conn)->Query("EXPLAIN SELECT count(*) FROM kv");
    ASSERT_TRUE(push.ok());
    text = ExplainText(*push);
    EXPECT_NE(text.find("Citus Adaptive"), std::string::npos) << text;
    EXPECT_NE(text.find("Task Count: 32"), std::string::npos) << text;
    // Multi-shard DML.
    auto dml = (*conn)->Query("EXPLAIN UPDATE kv SET v = 'x'");
    ASSERT_TRUE(dml.ok());
    EXPECT_NE(ExplainText(*dml).find("Modify on kv"), std::string::npos);
    // EXPLAIN must not have executed the update.
    auto count = (*conn)->Query("SELECT count(*) FROM kv WHERE v = 'x'");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->rows[0][0].int_value(), 0);
  });
}

// EXPLAIN prints the plan execution runs: for every statement shape, its
// Custom Scan label and Task Count match the tier and the shards_hit that
// executing the statement records in citus_stat_statements.
TEST_F(ExplainTest, ExplainMatchesExecutedPlan) {
  citus::DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  citus::Deployment& deploy = *deploy_;
  RunSim([&] {
    auto conn_r = deploy.Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    auto must = [&](const std::string& sql) {
      auto r = conn.Query(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      return r.ok() ? std::move(r).value() : engine::QueryResult{};
    };
    must("CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)");
    must("SELECT create_distributed_table('kv', 'key')");
    must("CREATE TABLE ref (id bigint PRIMARY KEY, name text)");
    must("SELECT create_reference_table('ref')");
    for (int i = 0; i < 20; i++) {
      must(StrFormat("INSERT INTO kv VALUES (%d, %d)", i, i));
    }
    must("INSERT INTO ref VALUES (1, 'one')");
    const std::map<std::string, std::string> label_of_tier = {
        {"fast path", "Fast Path Router"},
        {"router", "Router"},
        {"pushdown", "Adaptive"},
        {"join-order", "Adaptive"}};
    const std::vector<std::pair<const char*, std::string>> shapes = {
        {"fast-path SELECT", "SELECT v FROM kv WHERE key = 1"},
        {"single-shard HAVING",
         "SELECT count(*) FROM kv WHERE key = 1 HAVING count(*) > 0"},
        {"single-shard GROUP BY",
         "SELECT key, sum(v) FROM kv WHERE key = 1 GROUP BY key"},
        {"multi-shard count", "SELECT count(*) FROM kv"},
        {"single-shard UPDATE", "UPDATE kv SET v = v + 1 WHERE key = 2"},
        {"multi-shard UPDATE", "UPDATE kv SET v = v + 1"},
        {"single-shard DELETE", "DELETE FROM kv WHERE key = 3"},
        {"one-row INSERT", "INSERT INTO kv VALUES (100, 1)"},
        {"two-row INSERT", "INSERT INTO kv VALUES (101, 1), (102, 2)"},
        {"reference read", "SELECT name FROM ref WHERE id = 1"},
    };
    for (const auto& [name, sql] : shapes) {
      std::string text = ExplainText(must("EXPLAIN " + sql));
      const std::string scan = "Custom Scan (Citus ";
      const std::string count = "Task Count: ";
      size_t at = text.find(scan);
      size_t count_at = text.find(count);
      EXPECT_NE(at, std::string::npos) << name << "\n" << text;
      EXPECT_NE(count_at, std::string::npos) << name << "\n" << text;
      if (at == std::string::npos || count_at == std::string::npos) continue;
      std::string label = text.substr(
          at + scan.size(), text.find(')', at) - at - scan.size());
      int64_t tasks = std::atoll(text.c_str() + count_at + count.size());

      must("SELECT citus_stat_statements_reset()");
      must(sql);
      engine::QueryResult stats =
          must("SELECT tier, calls, shards_hit FROM citus_stat_statements");
      ASSERT_EQ(stats.rows.size(), 1u) << name;
      EXPECT_EQ(stats.rows[0][1].int_value(), 1) << name;
      const std::string tier = stats.rows[0][0].text_value();
      ASSERT_EQ(label_of_tier.count(tier), 1u) << name << ": " << tier;
      EXPECT_EQ(label, label_of_tier.at(tier))
          << name << " executed at tier " << tier << "\n" << text;
      EXPECT_EQ(tasks, stats.rows[0][2].int_value()) << name << "\n" << text;
    }
  });
}

// kv: 40 rows with v = key % 7; other: 10 rows keyed 0..9, distributed but
// not co-located with kv.
void LoadStageTables(net::Connection& conn) {
  for (const char* sql :
       {"CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)",
        "SELECT create_distributed_table('kv', 'key')",
        "CREATE TABLE other (id bigint, w bigint)",
        "SELECT create_distributed_table('other', 'id', "
        "colocate_with := 'none')"}) {
    auto r = conn.Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  std::string kv, other;
  for (int i = 0; i < 40; i++) {
    kv += StrFormat("%s(%d, %d)", kv.empty() ? "" : ", ", i, i % 7);
  }
  for (int i = 0; i < 10; i++) {
    other += StrFormat("%s(%d, %d)", other.empty() ? "" : ", ", i, i);
  }
  ASSERT_TRUE(conn.Query("INSERT INTO kv VALUES " + kv).ok());
  ASSERT_TRUE(conn.Query("INSERT INTO other VALUES " + other).ok());
}

const char* const kMaterializedCte =
    "WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key = 1) "
    "SELECT count(*) FROM kv JOIN c ON kv.v = c.v";
// The inlined tree joins a GROUP BY subquery with a non-co-located table,
// so both CTEs become stages.
const char* const kMixedCtes =
    "WITH m AS MATERIALIZED (SELECT key, v FROM kv WHERE key < 5), "
    "g AS (SELECT v, count(*) AS n FROM kv GROUP BY v) "
    "SELECT count(*) FROM g JOIN other ON other.id = g.v JOIN m ON m.v = g.v";

int CountStageLines(const std::string& text) {
  int n = 0;
  for (size_t at = text.find("Stage: "); at != std::string::npos;
       at = text.find("Stage: ", at + 1)) {
    n++;
  }
  return n;
}

// EXPLAIN of a multi-stage statement prints the plan execution runs: a
// stage per materialized CTE, with the body's own plan, and final tasks
// that read the stage's intermediate relation.
TEST_F(ExplainTest, ExplainShowsStages) {
  citus::DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  RunSim([&] {
    auto conn_r = deploy_->Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    LoadStageTables(conn);

    auto explain = conn.Query(std::string("EXPLAIN ") + kMaterializedCte);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    std::string text = ExplainText(*explain);
    EXPECT_EQ(CountStageLines(text), 1) << text;
    size_t stage = text.find("Stage: Materialize CTE c into citusx_repart_");
    ASSERT_NE(stage, std::string::npos) << text;
    EXPECT_NE(text.find("->  Custom Scan (Citus Fast Path Router)", stage),
              std::string::npos)
        << text;
    size_t task = text.find("Sample Task: ");
    ASSERT_NE(task, std::string::npos) << text;
    EXPECT_NE(text.find("citusx_repart_", task), std::string::npos)
        << "the final tasks do not read the stage\n" << text;

    explain = conn.Query(std::string("EXPLAIN ") + kMixedCtes);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    text = ExplainText(*explain);
    EXPECT_NE(text.find("Stage: Materialize CTE m"), std::string::npos)
        << text;
    EXPECT_NE(text.find("Stage: Materialize CTE g"), std::string::npos)
        << text;
    auto run = conn.Query(kMixedCtes);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->rows.size(), 1u);
    EXPECT_EQ(run->rows[0][0].int_value(), 5);
  });
}

// EXPLAIN dispatches nothing: no task, no relation on any node, and no
// CTE or repartition counter moves.
TEST_F(ExplainTest, ExplainRunsNoStage) {
  citus::DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  RunSim([&] {
    auto conn_r = deploy_->Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    LoadStageTables(conn);
    std::vector<engine::Node*> nodes = deploy_->workers();
    nodes.push_back(deploy_->coordinator());
    auto state = [&] {
      obs::Metrics& m = deploy_->coordinator()->metrics();
      std::vector<int64_t> out;
      for (const char* name :
           {"citus.cte.inlined", "citus.cte.materialized",
            "citus.repartition.joins", "citus.repartition.moves",
            "citus.repartition.shuffled_bytes", "citus.executor.tasks"}) {
        out.push_back(m.CounterValue(name));
      }
      for (engine::Node* n : nodes) {
        out.push_back(static_cast<int64_t>(n->catalog().AllTables().size()));
      }
      return out;
    };
    for (const char* sql :
         {kMaterializedCte, kMixedCtes,
          "WITH c AS (SELECT key FROM kv WHERE v = 1) "
          "SELECT count(*) FROM c JOIN kv ON kv.key = c.key",
          "WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key < 9) "
          "SELECT count(*) FROM c",
          "SELECT count(*) FROM kv JOIN other ON other.id = kv.v"}) {
      std::vector<int64_t> before = state();
      auto r = conn.Query(std::string("EXPLAIN ") + sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      EXPECT_EQ(state(), before) << sql << "\n" << ExplainText(*r);
    }
  });
}

}  // namespace
}  // namespace citusx
