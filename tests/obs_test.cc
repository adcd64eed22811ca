// Tests for the observability subsystem (src/obs/): the metrics registry,
// node/subsystem instrumentation, distributed tracing span trees, EXPLAIN
// ANALYZE rendering across all four planner tiers, the citus_stat_* views,
// and the 2PC counter invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "citus/deploy.h"
#include "citus/planner.h"
#include "common/str.h"
#include "deployment_fixture.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace citusx::citus {
namespace {

using engine::QueryResult;

// ---------------------------------------------------------------------------
// obs primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistograms) {
  obs::Metrics m;
  obs::Counter* c = m.counter("a.count");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(m.counter("a.count"), c);  // stable get-or-create
  EXPECT_EQ(m.CounterValue("a.count"), 5);
  EXPECT_EQ(m.CounterValue("never.registered"), 0);

  obs::Gauge* g = m.gauge("b.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);

  obs::Histogram* h = m.histogram("c.hist");
  for (int i = 1; i <= 100; i++) h->Record(i * 1000);
  EXPECT_EQ(h->count(), 100);
  EXPECT_GE(h->Percentile(99), h->Percentile(50));

  std::vector<obs::MetricSample> snap = m.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                             [](const obs::MetricSample& a,
                                const obs::MetricSample& b) {
                               return a.name < b.name;
                             }));
  EXPECT_EQ(snap[0].name, "a.count");
  EXPECT_EQ(snap[0].value, 5);
  EXPECT_EQ(snap[2].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(snap[2].value, 100);  // histogram count
}

TEST(TraceTest, ContextFormatAndParse) {
  EXPECT_EQ(obs::FormatTraceContext(5, 7), "5:7");
  obs::TraceId trace = 0;
  obs::SpanId span = 0;
  EXPECT_TRUE(obs::ParseTraceContext("5:7", &trace, &span));
  EXPECT_EQ(trace, 5u);
  EXPECT_EQ(span, 7u);
  EXPECT_FALSE(obs::ParseTraceContext("", &trace, &span));
  EXPECT_FALSE(obs::ParseTraceContext("5", &trace, &span));
  EXPECT_FALSE(obs::ParseTraceContext("x:y", &trace, &span));
  EXPECT_FALSE(obs::ParseTraceContext("5:", &trace, &span));
}

TEST(TraceTest, SpanTreeCollection) {
  obs::TraceCollector tc;
  obs::TraceId t = tc.NewTraceId();
  obs::SpanId root = tc.StartSpan(t, 0, "distributed query", "n1", 100);
  obs::SpanId child = tc.StartSpan(t, root, "task", "n1", 150);
  tc.SetAttr(child, "worker", "w1");
  tc.SetRows(child, 3);
  tc.EndSpan(child, 250);
  tc.EndSpan(root, 300);
  std::vector<obs::Span> spans = tc.TraceSpans(t);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "distributed query");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[1].attrs.at("worker"), "w1");
  EXPECT_EQ(spans[1].rows, 3);
  EXPECT_EQ(spans[1].duration(), 100);
  EXPECT_EQ(tc.last_trace_id(), t);
}

// ---------------------------------------------------------------------------
// Cluster-level observability
// ---------------------------------------------------------------------------

class ObsTest : public test::DeploymentTest {
 protected:
  static std::string Text(const QueryResult& r) {
    std::string out;
    for (const auto& row : r.rows) {
      out += row[0].text_value();
      out += "\n";
    }
    return out;
  }

  // Validate the span tree of the most recent trace: exactly one root
  // ("distributed query"), every task span a child of the root and nested
  // in its time range, every worker-execution span a child of a task and
  // nested in that task's time range. Returns the number of task spans.
  int CheckSpanTree(int* worker_spans_out = nullptr) {
    obs::TraceCollector& tc = deploy_->cluster().tracer();
    std::vector<obs::Span> spans = tc.TraceSpans(tc.last_trace_id());
    EXPECT_FALSE(spans.empty());
    const obs::Span* root = nullptr;
    for (const auto& s : spans) {
      if (s.parent_id == 0) {
        EXPECT_EQ(root, nullptr) << "more than one root span";
        EXPECT_EQ(s.name, "distributed query");
        root = &s;
      }
    }
    EXPECT_NE(root, nullptr);
    if (root == nullptr) return 0;
    std::map<obs::SpanId, const obs::Span*> by_id;
    for (const auto& s : spans) by_id[s.id] = &s;
    int tasks = 0, workers = 0;
    for (const auto& s : spans) {
      if (s.name == "task") {
        tasks++;
        EXPECT_EQ(s.parent_id, root->id);
        EXPECT_GE(s.start, root->start);
        EXPECT_LE(s.end, root->end);
        EXPECT_FALSE(s.attrs.at("worker").empty());
        EXPECT_EQ(s.node, deploy_->coordinator()->name());
      } else if (s.name == "worker execution") {
        workers++;
        auto it = by_id.find(s.parent_id);
        EXPECT_NE(it, by_id.end());
        if (it == by_id.end()) continue;
        EXPECT_EQ(it->second->name, "task");
        EXPECT_GE(s.start, it->second->start);
        EXPECT_LE(s.end, it->second->end);
        // The execution span is stamped by the worker that ran the task.
        EXPECT_EQ(s.node, it->second->attrs.at("worker"));
      }
    }
    if (worker_spans_out != nullptr) *worker_spans_out = workers;
    return tasks;
  }
};

TEST_F(ObsTest, NodeSubsystemMetrics) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 30; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    for (int i = 0; i < 30; i++) {
      MustQuery(**conn, StrFormat("SELECT v FROM kv WHERE key = %d", i));
    }
    // Worker-side storage and transaction metrics moved.
    int64_t hits = 0, commits = 0;
    for (engine::Node* w : deploy_->workers()) {
      hits += w->metrics().CounterValue("bufferpool.hits");
      commits += w->metrics().CounterValue("txn.commits");
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(commits, 0);
    // Coordinator-side executor and net metrics moved.
    obs::Metrics& cm = deploy_->coordinator()->metrics();
    EXPECT_GE(cm.CounterValue("citus.executor.tasks"), 60);
    EXPECT_GT(cm.CounterValue("net.round_trips"), 0);
    EXPECT_GT(cm.CounterValue("net.connections_opened"), 0);
    EXPECT_GE(cm.CounterValue("citus.planner.fast_path"), 60);
  });
}

TEST_F(ObsTest, ExplainAnalyzeFastPath) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (5, 'five')");
    QueryResult r =
        MustQuery(**conn, "EXPLAIN ANALYZE SELECT v FROM kv WHERE key = 5");
    std::string text = Text(r);
    EXPECT_NE(text.find("Custom Scan (Citus Fast Path Router)"),
              std::string::npos) << text;
    EXPECT_NE(text.find("Planner Tier: fast path"), std::string::npos) << text;
    EXPECT_NE(text.find("Task Count: 1"), std::string::npos) << text;
    EXPECT_NE(text.find("->  Task on worker"), std::string::npos) << text;
    EXPECT_NE(text.find("Worker Execution on worker"), std::string::npos)
        << text;
    EXPECT_NE(text.find("actual time="), std::string::npos) << text;
    EXPECT_NE(text.find("rows=1"), std::string::npos) << text;
    int workers = 0;
    EXPECT_EQ(CheckSpanTree(&workers), 1);
    EXPECT_EQ(workers, 1);
  });
}

TEST_F(ObsTest, ExplainAnalyzeRouter) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (5, 50)");
    // GROUP BY disqualifies the fast path but the key restriction still
    // routes to a single shard group.
    QueryResult r = MustQuery(
        **conn,
        "EXPLAIN ANALYZE SELECT key, sum(v) FROM kv WHERE key = 5 GROUP BY "
        "key");
    std::string text = Text(r);
    EXPECT_NE(text.find("Custom Scan (Citus Router)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("Planner Tier: router"), std::string::npos) << text;
    EXPECT_NE(text.find("Task Count: 1"), std::string::npos) << text;
    int workers = 0;
    EXPECT_EQ(CheckSpanTree(&workers), 1);
    EXPECT_EQ(workers, 1);
  });
}

TEST_F(ObsTest, ExplainAnalyzePushdown) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 20; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, %d)", i, i));
    }
    QueryResult r =
        MustQuery(**conn, "EXPLAIN ANALYZE SELECT count(*) FROM kv");
    std::string text = Text(r);
    EXPECT_NE(text.find("Custom Scan (Citus Adaptive)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("Planner Tier: pushdown"), std::string::npos) << text;
    EXPECT_NE(text.find("Task Count: 32"), std::string::npos) << text;
    int workers = 0;
    EXPECT_EQ(CheckSpanTree(&workers), 32);
    EXPECT_EQ(workers, 32);
  });
}

TEST_F(ObsTest, ExplainAnalyzeJoinOrder) {
  MakeDeployment(3);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE big (a bigint, bkey bigint)");
    MustQuery(**conn, "CREATE TABLE other (b bigint, val bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('big', 'a')");
    MustQuery(**conn, "SELECT create_distributed_table('other', 'b')");
    for (int i = 0; i < 20; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO big VALUES (%d, %d)", i, i % 5));
      MustQuery(**conn, StrFormat("INSERT INTO other VALUES (%d, %d)", i, i));
    }
    // Non-co-located join: forced through the logical join-order planner.
    QueryResult r = MustQuery(
        **conn,
        "EXPLAIN ANALYZE SELECT count(*) FROM big JOIN other ON big.bkey = "
        "other.b");
    std::string text = Text(r);
    EXPECT_NE(text.find("Custom Scan (Citus Adaptive)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("Planner Tier: join-order"), std::string::npos)
        << text;
    EXPECT_GE(CheckSpanTree(), 1);
  });
}

TEST_F(ObsTest, StatStatementsAggregatesNormalizedQueries) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'a')");
    MustQuery(**conn, "INSERT INTO kv VALUES (2, 'b')");
    // Same shape, different constants: one normalized entry, calls = 3.
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 1");
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 2");
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 3");
    QueryResult r = MustQuery(
        **conn,
        "SELECT query, tier, calls, shards_hit FROM citus_stat_statements "
        "WHERE tier = 'fast path' ORDER BY calls DESC");
    ASSERT_FALSE(r.rows.empty());
    // The hottest fast-path entry is the normalized SELECT with 3 calls.
    EXPECT_NE(r.rows[0][0].text_value().find("?"), std::string::npos)
        << r.rows[0][0].text_value();
    EXPECT_EQ(r.rows[0][1].text_value(), "fast path");
    EXPECT_EQ(r.rows[0][2].int_value(), 3);
    EXPECT_EQ(r.rows[0][3].int_value(), 3);  // one shard task per call
    // Single-row INSERTs also route through the fast path; they normalize
    // to one entry with calls = 2.
    r = MustQuery(**conn,
                  "SELECT tier, calls FROM citus_stat_statements WHERE "
                  "query = 'INSERT INTO kv VALUES (?, ?)'");
    ASSERT_FALSE(r.rows.empty());
    EXPECT_EQ(r.rows[0][0].text_value(), "fast path");
    EXPECT_EQ(r.rows[0][1].int_value(), 2);
    // Reset clears the view.
    MustQuery(**conn, "SELECT citus_stat_statements_reset()");
    r = MustQuery(**conn, "SELECT count(*) FROM citus_stat_statements");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
  });
}

// A stat view read inside a WITH body is built as for the main FROM list.
TEST_F(ObsTest, StatViewsResolveInsideWithBodies) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 1");
    QueryResult direct =
        MustQuery(**conn, "SELECT count(*) FROM citus_stat_statements");
    QueryResult with = MustQuery(
        **conn,
        "WITH s AS (SELECT * FROM citus_stat_statements) SELECT count(*) "
        "FROM s");
    ASSERT_EQ(direct.rows.size(), 1u);
    ASSERT_EQ(with.rows.size(), 1u);
    EXPECT_GT(with.rows[0][0].int_value(), 0);
    EXPECT_EQ(with.rows[0][0].int_value(), direct.rows[0][0].int_value());
  });
}

// Each entry records the tier its own plan took and the tasks its own calls
// dispatched: a concurrent session looping a 32-shard count(*) must not leak
// into the fast-path entry, nor the fast-path tasks into the count(*) entry.
TEST_F(ObsTest, StatStatementsIgnoreConcurrentSessions) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 32; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    MustQuery(**conn, "SELECT citus_stat_statements_reset()");
    bool scanning = true;
    bool scanner_done = false;
    sim_.Spawn("scanner", [&] {
      auto scan = deploy_->Connect();
      ASSERT_TRUE(scan.ok());
      while (scanning) {
        QueryResult r = MustQuery(**scan, "SELECT count(*) FROM kv");
        EXPECT_EQ(r.rows[0][0].int_value(), 32);
      }
      scanner_done = true;
    });
    for (int i = 1; i <= 40; i++) {
      MustQuery(**conn, StrFormat("SELECT v FROM kv WHERE key = %d", i % 32));
      QueryResult r = MustQuery(
          **conn,
          "SELECT tier, calls, shards_hit FROM citus_stat_statements "
          "WHERE query LIKE 'SELECT v FROM kv WHERE%'");
      EXPECT_EQ(r.rows.size(), 1u) << "call " << i;
      if (r.rows.size() != 1u) break;
      EXPECT_EQ(r.rows[0][0].text_value(), "fast path") << "call " << i;
      EXPECT_EQ(r.rows[0][1].int_value(), i);
      EXPECT_EQ(r.rows[0][2].int_value(), i) << "call " << i;
    }
    scanning = false;
    while (!scanner_done) sim_.WaitFor(sim::kMillisecond);
    QueryResult r = MustQuery(
        **conn,
        "SELECT tier, calls, shards_hit FROM citus_stat_statements "
        "WHERE query LIKE 'SELECT count(*) FROM kv%'");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "pushdown");
    EXPECT_GT(r.rows[0][1].int_value(), 1);  // the loops overlapped
    EXPECT_EQ(r.rows[0][2].int_value(), 32 * r.rows[0][1].int_value());
  });
}

// A multi-stage statement is recorded once, under its own text: its CTE
// bodies and the rewritten final query (which names per-execution
// intermediate relations) never get rows of their own.
TEST_F(ObsTest, StatStatementsRecordMultiStageStatementsOnce) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "CREATE TABLE other (id bigint, w bigint)");
    MustQuery(**conn,
              "SELECT create_distributed_table('other', 'id', "
              "colocate_with := 'none')");
    for (int i = 0; i < 20; i++) {
      MustQuery(**conn,
                StrFormat("INSERT INTO kv VALUES (%d, %d)", i, i % 7));
      MustQuery(**conn, StrFormat("INSERT INTO other VALUES (%d, %d)", i, i));
    }
    MustQuery(**conn, "SELECT citus_stat_statements_reset()");
    for (int i = 0; i < 3; i++) {
      MustQuery(**conn,
                "WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key = 1) "
                "SELECT count(*) FROM kv JOIN c ON kv.v = c.v");
    }
    QueryResult r =
        MustQuery(**conn, "SELECT query, calls FROM citus_stat_statements");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(),
              "WITH c AS MATERIALIZED (SELECT v FROM kv WHERE (key = ?)) "
              "SELECT count(*) FROM kv JOIN c ON (kv.v = c.v)");
    EXPECT_EQ(r.rows[0][1].int_value(), 3);

    MustQuery(**conn, "SELECT count(*) FROM kv JOIN other ON other.id = kv.v");
    r = MustQuery(**conn,
                  "SELECT query, tier FROM citus_stat_statements ORDER BY "
                  "query");
    ASSERT_EQ(r.rows.size(), 2u);
    for (const auto& row : r.rows) {
      EXPECT_EQ(row[0].text_value().find("citusx_"), std::string::npos)
          << row[0].text_value();
    }
    EXPECT_EQ(r.rows[0][0].text_value(),
              "SELECT count(*) FROM kv JOIN other ON (other.id = kv.v)");
    EXPECT_EQ(r.rows[0][1].text_value(), "join-order");
  });
}

TEST_F(ObsTest, StatActivityShowsDistributedTransactions) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    auto observer = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(observer.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'a')");
    QueryResult idle = MustQuery(
        **observer, "SELECT count(*) FROM citus_stat_activity");
    EXPECT_EQ(idle.rows[0][0].int_value(), 0);
    // Open a distributed transaction and observe it from another session.
    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, "UPDATE kv SET v = 'x' WHERE key = 1");
    QueryResult active = MustQuery(
        **observer,
        "SELECT node_name, dist_txn_id, state FROM citus_stat_activity");
    ASSERT_FALSE(active.rows.empty());
    for (const auto& row : active.rows) {
      EXPECT_FALSE(row[0].text_value().empty());
      EXPECT_NE(row[1].text_value().find("coordinator_"), std::string::npos);
      EXPECT_EQ(row[2].text_value(), "active");
    }
    MustQuery(**conn, "ROLLBACK");
    idle = MustQuery(**observer, "SELECT count(*) FROM citus_stat_activity");
    EXPECT_EQ(idle.rows[0][0].int_value(), 0);
  });
}

TEST_F(ObsTest, TwoPhaseCommitCounterInvariant) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE t (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    const CitusTable* ct = deploy_->metadata().Find("t");
    auto worker_of = [&](int64_t key) {
      int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
      return ct->shards[static_cast<size_t>(idx)].placement;
    };
    int64_t k1 = 1;
    while (worker_of(k1) != "worker1") k1++;
    int64_t k2 = k1 + 1;
    while (worker_of(k2) != "worker2") k2++;
    MustQuery(**conn, StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                                static_cast<long long>(k1),
                                static_cast<long long>(k2)));
    obs::Metrics& cm = deploy_->coordinator()->metrics();
    int64_t commits_before = cm.CounterValue("citus.2pc.commits");
    int64_t prepares_before = cm.CounterValue("citus.2pc.prepares");
    // A transaction writing on two nodes commits with 2PC: one PREPARE
    // TRANSACTION per participating worker connection.
    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                static_cast<long long>(k1)));
    MustQuery(**conn, StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                static_cast<long long>(k2)));
    MustQuery(**conn, "COMMIT");
    EXPECT_EQ(cm.CounterValue("citus.2pc.commits"), commits_before + 1);
    EXPECT_EQ(cm.CounterValue("citus.2pc.prepares"), prepares_before + 2);
    EXPECT_EQ(cm.CounterValue("citus.2pc.prepares"),
              2 * cm.CounterValue("citus.2pc.commits"));
  });
}

}  // namespace
}  // namespace citusx::citus
