// Integration tests for the Citus extension: distributed tables, the four
// planner tiers, reference tables, 2PC, distributed deadlock detection,
// COPY, INSERT..SELECT, DDL propagation, and procedure delegation.
#include <gtest/gtest.h>

#include "citus/deploy.h"
#include "citus/rebalancer.h"
#include "citus/planner.h"
#include "common/str.h"
#include "deployment_fixture.h"

namespace citusx::citus {
namespace {

using engine::QueryResult;

class CitusTest : public test::DeploymentTest {
 protected:
  /// Plans the coordinator has counted at `tier` (citus.planner.<tier>).
  int64_t Planned(const std::string& tier) {
    return deploy_->coordinator()->metrics().CounterValue("citus.planner." +
                                                          tier);
  }

  /// kv: 40 rows with v = key % 7; ref: a 7-row reference table keyed by
  /// v's values; other: 10 rows keyed 0..9, distributed but not co-located
  /// with kv.
  void LoadStageTables(net::Connection& conn) {
    MustQuery(conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v bigint)");
    MustQuery(conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(conn, "CREATE TABLE ref (id bigint PRIMARY KEY, name text)");
    MustQuery(conn, "SELECT create_reference_table('ref')");
    MustQuery(conn, "CREATE TABLE other (id bigint, w bigint)");
    MustQuery(conn,
              "SELECT create_distributed_table('other', 'id', "
              "colocate_with := 'none')");
    std::string kv, ref, other;
    for (int i = 0; i < 40; i++) {
      kv += StrFormat("%s(%d, %d)", kv.empty() ? "" : ", ", i, i % 7);
    }
    for (int i = 0; i < 7; i++) {
      ref += StrFormat("%s(%d, 'r%d')", ref.empty() ? "" : ", ", i, i);
    }
    for (int i = 0; i < 10; i++) {
      other += StrFormat("%s(%d, %d)", other.empty() ? "" : ", ", i, i);
    }
    MustQuery(conn, "INSERT INTO kv VALUES " + kv);
    MustQuery(conn, "INSERT INTO ref VALUES " + ref);
    MustQuery(conn, "INSERT INTO other VALUES " + other);
  }
};

TEST_F(CitusTest, CreateDistributedTableMakesShards) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE items (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('items', 'key')");
    const CitusTable* t = deploy_->metadata().Find("items");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->shards.size(), 32u);
    EXPECT_EQ(t->dist_col_index, 0);
    // Shards placed round robin over 4 workers.
    std::map<std::string, int> per_worker;
    for (const auto& s : t->shards) per_worker[s.placement]++;
    EXPECT_EQ(per_worker.size(), 4u);
    for (const auto& [w, n] : per_worker) EXPECT_EQ(n, 8);
    // Shard tables exist on workers.
    int found = 0;
    for (engine::Node* w : deploy_->workers()) {
      for (const auto& s : t->shards) {
        if (w->catalog().Find(t->ShardName(s.shard_id)) != nullptr) found++;
      }
    }
    EXPECT_EQ(found, 32);
  });
}

TEST_F(CitusTest, FastPathRoutingReadsAndWrites) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    int64_t fast_before = Planned("fast_path");
    for (int i = 0; i < 20; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    for (int i = 0; i < 20; i++) {
      QueryResult r =
          MustQuery(**conn, StrFormat("SELECT v FROM kv WHERE key = %d", i));
      ASSERT_EQ(r.rows.size(), 1u) << i;
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("v%d", i));
    }
    MustQuery(**conn, "UPDATE kv SET v = 'updated' WHERE key = 7");
    QueryResult r = MustQuery(**conn, "SELECT v FROM kv WHERE key = 7");
    EXPECT_EQ(r.rows[0][0].text_value(), "updated");
    MustQuery(**conn, "DELETE FROM kv WHERE key = 7");
    r = MustQuery(**conn, "SELECT count(*) FROM kv WHERE key = 7");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    EXPECT_GT(Planned("fast_path"), fast_before + 30);
    // Data is actually spread across workers.
    int64_t on_workers = 0;
    const CitusTable* t = deploy_->metadata().Find("kv");
    for (engine::Node* w : deploy_->workers()) {
      for (const auto& s : t->shards) {
        engine::TableInfo* info = w->catalog().Find(t->ShardName(s.shard_id));
        if (info != nullptr && info->heap != nullptr) {
          on_workers += info->heap->num_rows() > 0 ? 1 : 0;
        }
      }
    }
    EXPECT_GT(on_workers, 5);  // many shards have data
  });
}

TEST_F(CitusTest, PushdownAggregation) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn,
              "CREATE TABLE events (device bigint, kind text, value double precision)");
    MustQuery(**conn, "SELECT create_distributed_table('events', 'device')");
    for (int i = 0; i < 100; i++) {
      MustQuery(**conn,
                StrFormat("INSERT INTO events VALUES (%d, '%s', %d.5)", i % 10,
                          i % 2 == 0 ? "click" : "view", i));
    }
    int64_t pushdown_before = Planned("pushdown");
    // Global aggregate without grouping: partial agg + merge.
    QueryResult r = MustQuery(**conn, "SELECT count(*), avg(value) FROM events");
    EXPECT_EQ(r.rows[0][0].int_value(), 100);
    EXPECT_NEAR(r.rows[0][1].float_value(), 50.0, 0.01);
    // Group by non-dist column: merge step re-aggregates.
    r = MustQuery(**conn,
                  "SELECT kind, count(*), min(value), max(value) FROM events "
                  "GROUP BY kind ORDER BY kind");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].text_value(), "click");
    EXPECT_EQ(r.rows[0][1].int_value(), 50);
    EXPECT_EQ(r.rows[0][2].float_value(), 0.5);
    EXPECT_EQ(r.rows[0][3].float_value(), 98.5);
    // Group by dist column: full pushdown (no re-aggregation).
    r = MustQuery(**conn,
                  "SELECT device, count(*) FROM events GROUP BY device "
                  "ORDER BY device");
    ASSERT_EQ(r.rows.size(), 10u);
    for (const auto& row : r.rows) EXPECT_EQ(row[1].int_value(), 10);
    // Plain multi-shard select with order/limit.
    r = MustQuery(**conn,
                  "SELECT value FROM events ORDER BY value DESC LIMIT 3");
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][0].float_value(), 99.5);
    EXPECT_EQ(r.rows[2][0].float_value(), 97.5);
    EXPECT_GT(Planned("pushdown"), pushdown_before + 3);
  });
}

TEST_F(CitusTest, VeniceDbNestedSubqueryPushdown) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn,
              "CREATE TABLE reports (deviceid bigint, metric double precision)");
    MustQuery(**conn, "SELECT create_distributed_table('reports', 'deviceid')");
    for (int d = 0; d < 20; d++) {
      for (int j = 0; j < 5; j++) {
        MustQuery(**conn, StrFormat("INSERT INTO reports VALUES (%d, %d)", d,
                                    d * 10 + j));
      }
    }
    // The §5 RQV query shape: inner GROUP BY deviceid pushes down whole.
    QueryResult r = MustQuery(
        **conn,
        "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS "
        "device_avg FROM reports GROUP BY deviceid) AS subq");
    ASSERT_EQ(r.rows.size(), 1u);
    // device d average = 10d + 2; mean over d=0..19 = 10*9.5 + 2 = 97.
    EXPECT_NEAR(r.rows[0][0].float_value(), 97.0, 0.01);
  });
}

TEST_F(CitusTest, ColocatedJoinAndReferenceJoin) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE orders (tenant bigint, id bigint, amount bigint)");
    MustQuery(**conn, "CREATE TABLE lines (tenant bigint, order_id bigint, qty bigint)");
    MustQuery(**conn, "CREATE TABLE currencies (code text, rate double precision)");
    MustQuery(**conn, "SELECT create_distributed_table('orders', 'tenant')");
    MustQuery(**conn,
              "SELECT create_distributed_table('lines', 'tenant', "
              "colocate_with := 'orders')");
    MustQuery(**conn, "SELECT create_reference_table('currencies')");
    const CitusTable* o = deploy_->metadata().Find("orders");
    const CitusTable* l = deploy_->metadata().Find("lines");
    EXPECT_EQ(o->colocation_id, l->colocation_id);
    MustQuery(**conn, "INSERT INTO currencies VALUES ('usd', 1.0), ('eur', 1.1)");
    for (int t = 0; t < 8; t++) {
      MustQuery(**conn,
                StrFormat("INSERT INTO orders VALUES (%d, %d, %d)", t, t * 100, t));
      MustQuery(**conn,
                StrFormat("INSERT INTO lines VALUES (%d, %d, 2)", t, t * 100));
    }
    // Co-located distributed join (parallel, multi-shard).
    QueryResult r = MustQuery(
        **conn,
        "SELECT count(*) FROM orders JOIN lines ON orders.tenant = "
        "lines.tenant AND orders.id = lines.order_id");
    EXPECT_EQ(r.rows[0][0].int_value(), 8);
    // Join with a reference table replica on each worker.
    r = MustQuery(**conn,
                  "SELECT count(*) FROM orders, currencies WHERE "
                  "currencies.code = 'usd'");
    EXPECT_EQ(r.rows[0][0].int_value(), 8);
    // Router join: single tenant.
    r = MustQuery(**conn,
                  "SELECT orders.id, lines.qty FROM orders JOIN lines ON "
                  "orders.tenant = lines.tenant WHERE orders.tenant = 3");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 300);
  });
}

// The co-located LEFT JOIN's WHERE filters the join's output on every
// shard, as PostgreSQL's does, at the pushdown and the router tier.
TEST_F(CitusTest, ColocatedLeftJoinWhereFiltersTheJoinOutput) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE ji (k bigint, g bigint)");
    MustQuery(**conn, "CREATE TABLE jf (k bigint, c double precision)");
    MustQuery(**conn, "SELECT create_distributed_table('ji', 'k')");
    MustQuery(**conn,
              "SELECT create_distributed_table('jf', 'k', "
              "colocate_with := 'ji')");
    MustQuery(**conn, "INSERT INTO ji VALUES (1, 1), (2, 3), (3, 4), (4, NULL)");
    MustQuery(**conn,
              "INSERT INTO jf VALUES (2, 3.0), (1, 3.5), (4, 1.0), (3, -0.0), "
              "(3, 4.0)");
    // k = 2 and k = 3 match; k = 1 and k = 4 are NULL-extended.
    QueryResult r = MustQuery(
        **conn,
        "SELECT ji.k FROM ji LEFT JOIN jf ON ji.k = jf.k AND ji.g = jf.c "
        "WHERE jf.c IS NULL ORDER BY 1");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
    EXPECT_EQ(r.rows[1][0].int_value(), 4);
    r = MustQuery(**conn,
                  "SELECT ji.k FROM ji LEFT JOIN jf ON ji.k = jf.k AND "
                  "ji.g = jf.c WHERE ji.k = 4 AND jf.c IS NULL");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 4);
  });
}

TEST_F(CitusTest, ReferenceTableReplicationAndWrites) {
  MakeDeployment(3);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE dims (id bigint PRIMARY KEY, name text)");
    MustQuery(**conn, "SELECT create_reference_table('dims')");
    MustQuery(**conn, "INSERT INTO dims VALUES (1, 'one'), (2, 'two')");
    const CitusTable* t = deploy_->metadata().Find("dims");
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->is_reference);
    // Replicated to all nodes, including the coordinator (writes are 2PC).
    EXPECT_EQ(t->replica_nodes.size(), 4u);
    std::string shard = t->ShardName(t->shards[0].shard_id);
    for (engine::Node* w : deploy_->workers()) {
      engine::TableInfo* info = w->catalog().Find(shard);
      ASSERT_NE(info, nullptr) << w->name();
      EXPECT_EQ(info->heap->num_rows(), 2u) << w->name();
    }
    EXPECT_NE(deploy_->coordinator()->catalog().Find(shard), nullptr);
    // Updates hit every replica.
    MustQuery(**conn, "UPDATE dims SET name = 'uno' WHERE id = 1");
    QueryResult r = MustQuery(**conn, "SELECT name FROM dims WHERE id = 1");
    EXPECT_EQ(r.rows[0][0].text_value(), "uno");
    // 2PC was used for the multi-node write.
    EXPECT_GT(CoordCounter("citus.2pc.commits"), 0);
  });
}

TEST_F(CitusTest, MultiStatementTransactionSingleNodeDelegation) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE acc (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('acc', 'key')");
    // Pick two keys that land on different workers.
    const CitusTable* ct = deploy_->metadata().Find("acc");
    auto worker_of = [&](int64_t key) {
      int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
      return ct->shards[static_cast<size_t>(idx)].placement;
    };
    int64_t k1 = 1, k2 = 2;
    while (worker_of(k2) == worker_of(k1)) k2++;
    MustQuery(**conn, StrFormat("INSERT INTO acc VALUES (%lld, 100), (%lld, 200)",
                                static_cast<long long>(k1),
                                static_cast<long long>(k2)));
    int64_t tpc_before = CoordCounter("citus.2pc.commits");
    int64_t single_before = CoordCounter("citus.2pc.single_node_commits");
    // Same key twice: single worker transaction, no 2PC.
    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, StrFormat("UPDATE acc SET v = v - 10 WHERE key = %lld",
                                static_cast<long long>(k1)));
    MustQuery(**conn, StrFormat("UPDATE acc SET v = v + 10 WHERE key = %lld",
                                static_cast<long long>(k1)));
    MustQuery(**conn, "COMMIT");
    EXPECT_EQ(CoordCounter("citus.2pc.commits"), tpc_before);
    EXPECT_EQ(CoordCounter("citus.2pc.single_node_commits"), single_before + 1);
    // Different keys on different nodes: 2PC.
    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, StrFormat("UPDATE acc SET v = v - 10 WHERE key = %lld",
                                static_cast<long long>(k1)));
    MustQuery(**conn, StrFormat("UPDATE acc SET v = v + 10 WHERE key = %lld",
                                static_cast<long long>(k2)));
    MustQuery(**conn, "COMMIT");
    EXPECT_GE(CoordCounter("citus.2pc.commits"), tpc_before + 1);
    QueryResult r = MustQuery(**conn, "SELECT sum(v) FROM acc");
    EXPECT_EQ(r.rows[0][0].int_value(), 300);
    // Rollback undoes on all nodes.
    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, StrFormat("UPDATE acc SET v = 0 WHERE key = %lld",
                                static_cast<long long>(k1)));
    MustQuery(**conn, StrFormat("UPDATE acc SET v = 0 WHERE key = %lld",
                                static_cast<long long>(k2)));
    MustQuery(**conn, "ROLLBACK");
    r = MustQuery(**conn, "SELECT sum(v) FROM acc");
    EXPECT_EQ(r.rows[0][0].int_value(), 300);
  });
}

TEST_F(CitusTest, TwoPhaseCommitRecoveryAfterWorkerCrash) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    // Find two keys on different workers.
    const CitusTable* ct = deploy_->metadata().Find("t");
    auto worker_of = [&](int64_t key) {
      int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
      return ct->shards[static_cast<size_t>(idx)].placement;
    };
    int64_t key1 = 1;
    while (worker_of(key1) != "worker1") key1++;
    // A second key on the same shard as key1 (so both prepared transactions
    // live on worker1 without touching the same row).
    int64_t key1b = key1 + 1;
    while (worker_of(key1b) != worker_of(key1) ||
           ct->ShardIndexForHash(sql::Datum::Int8(key1b).PartitionHash()) !=
               ct->ShardIndexForHash(sql::Datum::Int8(key1).PartitionHash())) {
      key1b++;
    }
    MustQuery(**conn, StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                                static_cast<long long>(key1),
                                static_cast<long long>(key1b)));
    // Simulate a coordinator-side failure *between* prepare and commit
    // prepared: run a 2PC, then manually re-prepare state on one worker by
    // crashing it right after commit... Instead we drive the recovery path
    // directly: create a prepared transaction on a worker with a matching
    // commit record, and one without.
    engine::Node* w1 = deploy_->cluster().directory().Find(worker_of(key1));
    auto ws = w1->OpenSession();
    std::string key1_str = std::to_string(key1);
    std::string shard1 =
        ct->ShardName(ct->shards[static_cast<size_t>(
            ct->ShardIndexForHash(sql::Datum::Int8(key1).PartitionHash()))].shard_id);
    ASSERT_TRUE(ws->Execute("BEGIN").ok());
    ASSERT_TRUE(
        ws->Execute("UPDATE " + shard1 + " SET v = 42 WHERE key = " + key1_str)
            .ok());
    ASSERT_TRUE(
        ws->Execute("PREPARE TRANSACTION 'citusx_coordinator_999_0'").ok());
    ASSERT_TRUE(ws->Execute("BEGIN").ok());
    ASSERT_TRUE(ws->Execute("UPDATE " + shard1 + " SET v = 77 WHERE key = " +
                            std::to_string(key1b))
                    .ok());
    ASSERT_TRUE(
        ws->Execute("PREPARE TRANSACTION 'citusx_coordinator_998_0'").ok());
    // Commit record exists only for txn 999.
    auto coord_session = deploy_->coordinator()->OpenSession();
    ASSERT_TRUE(coord_session
                    ->Execute("INSERT INTO pg_dist_transaction VALUES "
                              "('citusx_coordinator_999_0')")
                    .ok());
    CitusExtension* ext = deploy_->extension(deploy_->coordinator());
    auto recovered = ext->RecoverTwoPhaseCommits(*coord_session);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(*recovered, 2);  // one committed, one rolled back
    EXPECT_TRUE(w1->txns().PreparedGids().empty());
    QueryResult r = MustQuery(
        **conn, "SELECT v FROM t WHERE key = " + key1_str);
    EXPECT_EQ(r.rows[0][0].int_value(), 42);  // 999 committed
    r = MustQuery(**conn,
                  "SELECT v FROM t WHERE key = " + std::to_string(key1b));
    EXPECT_EQ(r.rows[0][0].int_value(), 0);  // 998 rolled back
  });
}

TEST_F(CitusTest, DistributedDeadlockDetected) {
  MakeDeployment(2);
  auto conn1_holder = std::make_shared<std::unique_ptr<net::Connection>>();
  auto conn2_holder = std::make_shared<std::unique_ptr<net::Connection>>();
  int deadlocks = 0, commits = 0;
  int64_t deadlock_key1 = 0, deadlock_key2 = 0;
  sim_.Spawn("setup", [&] {
    auto c = deploy_->Connect();
    ASSERT_TRUE(c.ok());
    auto conn = std::move(*c);
    MustQuery(*conn, "CREATE TABLE t (key bigint PRIMARY KEY, v bigint)");
    MustQuery(*conn, "SELECT create_distributed_table('t', 'key')");
    const CitusTable* ct = deploy_->metadata().Find("t");
    auto worker_of = [&](int64_t key) {
      int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
      return ct->shards[static_cast<size_t>(idx)].placement;
    };
    // Cross-node deadlock requires the two keys on different workers.
    deadlock_key1 = 1;
    while (worker_of(deadlock_key1) != "worker1") deadlock_key1++;
    deadlock_key2 = deadlock_key1 + 1;
    while (worker_of(deadlock_key2) != "worker2") deadlock_key2++;
    MustQuery(*conn, StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                               static_cast<long long>(deadlock_key1),
                               static_cast<long long>(deadlock_key2)));
    *conn1_holder = std::move(*deploy_->Connect());
    *conn2_holder = std::move(*deploy_->Connect());
  });
  sim_.Run();
  auto txn = [&](net::Connection& conn, int first, int second, int* out) {
    auto r = conn.Query("BEGIN");
    ASSERT_TRUE(r.ok());
    r = conn.Query(StrFormat("UPDATE t SET v = v + 1 WHERE key = %d", first));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    sim_.WaitFor(100 * sim::kMillisecond);
    r = conn.Query(StrFormat("UPDATE t SET v = v + 1 WHERE key = %d", second));
    if (r.ok()) {
      ASSERT_TRUE(conn.Query("COMMIT").ok());
      *out = 1;
    } else {
      EXPECT_TRUE(r.status().IsDeadlock() || r.status().IsAborted())
          << r.status().ToString();
      auto rb = conn.Query("ROLLBACK");
      *out = 2;
    }
  };
  int out1 = 0, out2 = 0;
  sim_.Spawn("t1", [&] {
    txn(**conn1_holder, static_cast<int>(deadlock_key1),
        static_cast<int>(deadlock_key2), &out1);
  });
  sim_.Spawn("t2", [&] {
    txn(**conn2_holder, static_cast<int>(deadlock_key2),
        static_cast<int>(deadlock_key1), &out2);
  });
  sim_.Run();
  commits = (out1 == 1 ? 1 : 0) + (out2 == 1 ? 1 : 0);
  deadlocks = (out1 == 2 ? 1 : 0) + (out2 == 2 ? 1 : 0);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(deadlocks, 1);
  CitusExtension* ext = deploy_->extension(deploy_->coordinator());
  EXPECT_GE(ext->deadlocks_detected, 1);
}

TEST_F(CitusTest, DistributedCopyPartitionsRows) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE ev (id bigint, data text)");
    MustQuery(**conn, "SELECT create_distributed_table('ev', 'id')");
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 500; i++) {
      rows.push_back({std::to_string(i), "payload" + std::to_string(i)});
    }
    auto r = (*conn)->CopyIn("ev", {}, rows);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_affected, 500);
    QueryResult count = MustQuery(**conn, "SELECT count(*) FROM ev");
    EXPECT_EQ(count.rows[0][0].int_value(), 500);
    // Every worker got some rows.
    const CitusTable* t = deploy_->metadata().Find("ev");
    std::map<std::string, int64_t> per_worker;
    for (const auto& s : t->shards) {
      engine::Node* w = deploy_->cluster().directory().Find(s.placement);
      engine::TableInfo* info = w->catalog().Find(t->ShardName(s.shard_id));
      if (info != nullptr) per_worker[s.placement] += info->heap->num_rows();
    }
    EXPECT_EQ(per_worker.size(), 4u);
    for (const auto& [w, n] : per_worker) EXPECT_GT(n, 50);
  });
}

TEST_F(CitusTest, ColocatedInsertSelectRollup) {
  MakeDeployment(4);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE raw (device bigint, metric bigint)");
    MustQuery(**conn, "CREATE TABLE rollup (device bigint, total bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('raw', 'device')");
    MustQuery(**conn,
              "SELECT create_distributed_table('rollup', 'device', "
              "colocate_with := 'raw')");
    for (int i = 0; i < 40; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO raw VALUES (%d, %d)", i % 8, i));
    }
    int64_t pushdown_before = Planned("pushdown");
    // Co-located INSERT..SELECT: per-shard, no coordinator merge.
    MustQuery(**conn,
              "INSERT INTO rollup SELECT device, sum(metric) FROM raw "
              "GROUP BY device");
    EXPECT_GT(Planned("pushdown"), pushdown_before);
    QueryResult r = MustQuery(
        **conn, "SELECT sum(total) FROM rollup");
    EXPECT_EQ(r.rows[0][0].int_value(), 40 * 39 / 2);
    QueryResult n = MustQuery(**conn, "SELECT count(*) FROM rollup");
    EXPECT_EQ(n.rows[0][0].int_value(), 8);
  });
}

TEST_F(CitusTest, InsertSelectViaCoordinatorWhenMergeNeeded) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE src (a bigint, b bigint)");
    MustQuery(**conn, "CREATE TABLE dst (b bigint, n bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('src', 'a')");
    MustQuery(**conn, "SELECT create_distributed_table('dst', 'b')");
    for (int i = 0; i < 30; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO src VALUES (%d, %d)", i, i % 3));
    }
    // Grouping by a non-dist column: needs merge, then re-COPY (strategy 3).
    MustQuery(**conn,
              "INSERT INTO dst SELECT b, count(*) FROM src GROUP BY b");
    QueryResult r = MustQuery(**conn, "SELECT count(*), sum(n) FROM dst");
    EXPECT_EQ(r.rows[0][0].int_value(), 3);
    EXPECT_EQ(r.rows[0][1].int_value(), 30);
  });
}

TEST_F(CitusTest, DistributedDdlPropagatesIndexes) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (key bigint, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    MustQuery(**conn, "CREATE INDEX t_v ON t (v)");
    const CitusTable* ct = deploy_->metadata().Find("t");
    EXPECT_EQ(ct->post_ddl.size(), 1u);
    // Index exists on every shard.
    int with_index = 0;
    for (const auto& s : ct->shards) {
      engine::Node* w = deploy_->cluster().directory().Find(s.placement);
      engine::TableInfo* info = w->catalog().Find(ct->ShardName(s.shard_id));
      ASSERT_NE(info, nullptr);
      for (const auto& idx : info->indexes) {
        if (idx->name.rfind("t_v", 0) == 0) with_index++;
      }
    }
    EXPECT_EQ(with_index, 32);
    // TRUNCATE propagates.
    MustQuery(**conn, "INSERT INTO t VALUES (1, 'x')");
    MustQuery(**conn, "TRUNCATE t");
    QueryResult r = MustQuery(**conn, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    // DROP removes shards and metadata.
    MustQuery(**conn, "DROP TABLE t");
    EXPECT_EQ(deploy_->metadata().Find("t"), nullptr);
    auto gone = (*conn)->Query("SELECT count(*) FROM t");
    EXPECT_FALSE(gone.ok());
  });
}

TEST_F(CitusTest, JoinOrderPlannerRepartitionJoin) {
  MakeDeployment(3);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE big (a bigint, bkey bigint)");
    MustQuery(**conn, "CREATE TABLE other (b bigint, val bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('big', 'a')");
    MustQuery(**conn, "SELECT create_distributed_table('other', 'b')");
    // Join big.bkey = other.b: non-co-located (different dist columns).
    for (int i = 0; i < 50; i++) {
      MustQuery(**conn,
                StrFormat("INSERT INTO big VALUES (%d, %d)", i, i % 10));
      MustQuery(**conn,
                StrFormat("INSERT INTO other VALUES (%d, %d)", i, i * 2));
    }
    int64_t join_order_before = Planned("join_order");
    QueryResult r = MustQuery(
        **conn,
        "SELECT count(*), sum(other.val) FROM big JOIN other ON big.bkey = "
        "other.b");
    EXPECT_EQ(r.rows[0][0].int_value(), 50);
    // each big row joins other row with b = bkey (val = 2*bkey).
    int64_t expected = 0;
    for (int i = 0; i < 50; i++) expected += 2 * (i % 10);
    EXPECT_EQ(r.rows[0][1].int_value(), expected);
    EXPECT_GT(Planned("join_order"), join_order_before);
  });
}

// A FROM subquery that needs a merge step (GROUP BY a non-distribution
// column, or LIMIT) must not run per shard when it sits under an explicit
// JOIN: the plain shapes are refused or answered exactly, and the CTE
// spelling, whose inlined tree is the first shape, falls back to
// materializing the CTE.
TEST_F(CitusTest, SubqueryUnderJoinIsCheckedForPushdown) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    const std::vector<std::pair<std::string, int64_t>> plain = {
        {"SELECT count(*) FROM ref JOIN (SELECT v, count(*) AS n FROM kv "
         "GROUP BY v) g ON ref.id = g.v",
         7},
        {"SELECT count(*) FROM ref JOIN (SELECT key FROM kv ORDER BY key "
         "LIMIT 3) g ON ref.id = g.key",
         3},
    };
    for (const auto& [sql, oracle] : plain) {
      auto r = (*conn)->Query(sql);
      if (r.ok()) {
        ASSERT_EQ(r->rows.size(), 1u) << sql;
        EXPECT_EQ(r->rows[0][0].int_value(), oracle) << sql;
      } else {
        EXPECT_TRUE(r.status().IsNotSupported())
            << sql << ": " << r.status().ToString();
      }
    }
    int64_t materialized = CoordCounter("citus.cte.materialized");
    QueryResult r = MustQuery(
        **conn,
        "WITH g AS (SELECT v, count(*) AS n FROM kv GROUP BY v) "
        "SELECT count(*) FROM ref JOIN g ON ref.id = g.v");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 7);
    EXPECT_EQ(CoordCounter("citus.cte.materialized") - materialized, 1);
  });
}

// A pushdown ORDER BY on a column the query does not select sorts the
// merged rows by that gathered column.
TEST_F(CitusTest, PushdownOrdersByUnselectedColumn) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    QueryResult r =
        MustQuery(**conn, "SELECT key FROM kv ORDER BY v, key LIMIT 3");
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    EXPECT_EQ(r.rows[1][0].int_value(), 7);
    EXPECT_EQ(r.rows[2][0].int_value(), 14);
  });
}

// A final query that reads only reference relations runs where its stage
// was placed, whichever relation comes first in FROM.
TEST_F(CitusTest, ReferenceJoinReadsMaterializedCte) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    for (const char* from : {"ref JOIN g", "g JOIN ref"}) {
      QueryResult r = MustQuery(
          **conn, StrFormat("WITH g AS MATERIALIZED (SELECT v, count(*) AS n "
                            "FROM kv GROUP BY v) SELECT count(*) FROM %s "
                            "ON ref.id = g.v",
                            from));
      ASSERT_EQ(r.rows.size(), 1u) << from;
      EXPECT_EQ(r.rows[0][0].int_value(), 7) << from;
    }
  });
}

// A statement mixing a MATERIALIZED and an inlinable CTE is planned once:
// the inlined tree joins a GROUP BY subquery with a non-co-located table,
// so planning falls back to materializing both CTEs, each run exactly once.
TEST_F(CitusTest, MixedCtesMaterializeEachCteOnce) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    int64_t materialized = CoordCounter("citus.cte.materialized");
    QueryResult r = MustQuery(
        **conn,
        "WITH m AS MATERIALIZED (SELECT key, v FROM kv WHERE key < 5), "
        "g AS (SELECT v, count(*) AS n FROM kv GROUP BY v) "
        "SELECT count(*) FROM g JOIN other ON other.id = g.v "
        "JOIN m ON m.v = g.v");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 5);
    EXPECT_EQ(CoordCounter("citus.cte.materialized") - materialized, 2);
  });
}

// Planning a stage draws no shard id: an EXPLAIN of a multi-stage
// statement leaves the sequence create_distributed_table draws from alone.
TEST_F(CitusTest, ExplainOfStagedStatementDrawsNoShardId) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    auto first_shard = [&](const char* name) {
      MustQuery(**conn, StrFormat("CREATE TABLE %s (k bigint)", name));
      MustQuery(**conn, StrFormat("SELECT create_distributed_table('%s', 'k')",
                                  name));
      return deploy_->metadata().Find(name)->shards[0].shard_id;
    };
    uint64_t before = first_shard("seq_a");
    uint64_t per_table = deploy_->metadata().Find("seq_a")->shards.size();
    MustQuery(**conn,
              "EXPLAIN WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key < 3) "
              "SELECT count(*) FROM kv JOIN c ON kv.v = c.v");
    EXPECT_EQ(first_shard("seq_b"), before + per_table);
  });
}

// A nested WITH entry that shares its name with a top-level entry is a CTE
// of its own: the top-level entry's reference count does not keep it
// materialized, so it folds into its subquery under either spelling.
TEST_F(CitusTest, NestedCteSharingTopLevelNameFolds) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (k bigint, x bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'k')");
    MustQuery(**conn, "INSERT INTO t VALUES (1, 10), (2, 20)");
    for (const char* outer : {"a", "b"}) {
      QueryResult r = MustQuery(
          **conn, StrFormat("WITH %s AS (SELECT k, x FROM t) "
                            "SELECT count(*) FROM %s, %s AS a2, "
                            "(WITH a AS (SELECT 1 AS y) SELECT y FROM a) s",
                            outer, outer, outer));
      ASSERT_EQ(r.rows.size(), 1u) << outer;
      EXPECT_EQ(r.rows[0][0].int_value(), 4) << outer;
    }
  });
}

// citus.max_intermediate_result_size caps every stage, whichever kind, and
// a capped statement leaves no intermediate result behind.
TEST_F(CitusTest, IntermediateResultSizeCapsEveryStage) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    MustQuery(**conn, "SET citus.max_intermediate_result_size = 0");
    for (const char* sql :
         {"WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key < 3) "
          "SELECT count(*) FROM kv JOIN c ON kv.v = c.v",
          "SELECT count(*) FROM kv JOIN other ON other.id = kv.v"}) {
      auto r = (*conn)->Query(sql);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_NE(r.status().message().find("max_intermediate_result_size"),
                std::string::npos)
          << sql << ": " << r.status().ToString();
    }
    for (engine::Node* w : deploy_->workers()) {
      for (engine::TableInfo* t : w->catalog().AllTables()) {
        EXPECT_EQ(t->name.find("citusx_"), std::string::npos)
            << "intermediate result " << t->name << " left on " << w->name();
      }
    }
  });
}

// Stage relations are statement-local: a materialized CTE, a repartition
// join and an EXPLAIN of each leave every node's Citus metadata (table map,
// generation, drop log) as it was, and no intermediate result behind.
TEST_F(CitusTest, StageRelationsAreStatementLocal) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    LoadStageTables(**conn);
    std::vector<engine::Node*> nodes = deploy_->workers();
    nodes.push_back(deploy_->coordinator());
    auto snapshot = [&] {
      std::vector<std::string> out;
      for (engine::Node* n : nodes) {
        CitusMetadata& md = deploy_->extension(n)->metadata();
        std::string state = StrFormat(
            "%s gen=%llu", n->name().c_str(),
            static_cast<unsigned long long>(md.generation()));
        for (const auto& [name, t] : md.tables()) state += " " + name;
        for (const std::string& d : md.DroppedSince(0)) state += " -" + d;
        out.push_back(state);
      }
      return out;
    };
    std::vector<std::string> before = snapshot();
    for (const char* sql :
         {"WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key < 3) "
          "SELECT count(*) FROM kv JOIN c ON kv.v = c.v",
          "SELECT count(*) FROM kv JOIN other ON other.id = kv.v"}) {
      MustQuery(**conn, sql);
      MustQuery(**conn, std::string("EXPLAIN ") + sql);
    }
    EXPECT_EQ(snapshot(), before);
    for (engine::Node* n : nodes) {
      for (engine::TableInfo* t : n->catalog().AllTables()) {
        EXPECT_EQ(t->name.find("citusx_"), std::string::npos)
            << "intermediate result " << t->name << " left on " << n->name();
      }
    }
  });
}

TEST_F(CitusTest, ShardRebalancerMovesShards) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    for (int i = 0; i < 100; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO t VALUES (%d, 'v%d')", i, i));
    }
    // Simulate cluster growth: a third worker joins.
    // (Workers are fixed in this deployment; instead, move everything to
    // worker1 and rebalance back.)
    CitusTable* ct = deploy_->metadata().Find("t");
    Rebalancer rebalancer(deploy_->extension(deploy_->coordinator()));
    auto session = deploy_->coordinator()->OpenSession();
    // Force imbalance: move all worker2 shards to worker1.
    std::vector<uint64_t> to_move;
    for (const auto& s : ct->shards) {
      if (s.placement == "worker2") to_move.push_back(s.shard_id);
    }
    for (uint64_t sid : to_move) {
      ASSERT_TRUE(
          rebalancer.MoveShard(*session, sid, "worker2", "worker1").ok());
    }
    std::map<std::string, int> counts;
    for (const auto& s : ct->shards) counts[s.placement]++;
    EXPECT_EQ(counts["worker1"], 32);
    // Data still all reachable.
    QueryResult r = MustQuery(**conn, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 100);
    // Rebalance evens the distribution again.
    auto moves = rebalancer.Rebalance(*session, RebalanceStrategy::kByShardCount);
    ASSERT_TRUE(moves.ok()) << moves.status().ToString();
    EXPECT_GE(*moves, 15);
    counts.clear();
    for (const auto& s : ct->shards) counts[s.placement]++;
    EXPECT_EQ(counts["worker1"], 16);
    EXPECT_EQ(counts["worker2"], 16);
    r = MustQuery(**conn, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 100);
    // Point queries still route correctly after the moves.
    r = MustQuery(**conn, "SELECT v FROM t WHERE key = 42");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "v42");
  });
}

TEST_F(CitusTest, ProcedureDelegationRunsOnWorker) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE acct (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('acct', 'key')");
    MustQuery(**conn, "INSERT INTO acct VALUES (5, 100)");
    // Register the procedure on every node (workloads do the same).
    for (size_t i = 0; i < deploy_->cluster().num_nodes(); i++) {
      deploy_->cluster().node(i)->RegisterProcedure(
          "add_balance",
          [](engine::Session& s,
             const std::vector<sql::Datum>& args) -> Result<engine::QueryResult> {
            return s.Execute(
                StrFormat("UPDATE acct SET v = v + %lld WHERE key = %lld",
                          static_cast<long long>(args[1].AsInt64()),
                          static_cast<long long>(args[0].AsInt64())));
          });
    }
    MustQuery(**conn,
              "SELECT create_distributed_procedure('add_balance', 0, 'acct')");
    MustQuery(**conn, "CALL add_balance(5, 25)");
    QueryResult r = MustQuery(**conn, "SELECT v FROM acct WHERE key = 5");
    EXPECT_EQ(r.rows[0][0].int_value(), 125);
  });
}

TEST_F(CitusTest, WorkerActsAsCoordinator) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'one'), (2, 'two')");
    // Connect directly to a worker: metadata is synced, so it can plan.
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    QueryResult r = MustQuery(**wconn, "SELECT v FROM kv WHERE key = 1");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "one");
    MustQuery(**wconn, "UPDATE kv SET v = 'ONE' WHERE key = 1");
    r = MustQuery(**conn, "SELECT v FROM kv WHERE key = 1");
    EXPECT_EQ(r.rows[0][0].text_value(), "ONE");
    // But DDL via a worker is rejected.
    MustQuery(**wconn, "CREATE TABLE other (a bigint)");
    auto ddl = (*wconn)->Query("SELECT create_distributed_table('other', 'a')");
    EXPECT_FALSE(ddl.ok());
  });
}

TEST_F(CitusTest, SnapshotIsolationAnomalyDocumented) {
  // §3.7.4: Citus does not provide distributed snapshot isolation; a
  // concurrent multi-node read may see a multi-node transaction half
  // applied. This test demonstrates (and pins down) that behaviour.
  MakeDeployment(2);
  auto writer_conn = std::make_shared<std::unique_ptr<net::Connection>>();
  auto reader_conn = std::make_shared<std::unique_ptr<net::Connection>>();
  int64_t half_sum = -1;
  sim_.Spawn("setup", [&] {
    auto c = deploy_->Connect();
    auto conn = std::move(*c);
    MustQuery(*conn, "CREATE TABLE pairs (key bigint PRIMARY KEY, v bigint)");
    MustQuery(*conn, "SELECT create_distributed_table('pairs', 'key')");
    MustQuery(*conn, "INSERT INTO pairs VALUES (1, 50), (2, 50)");
    *writer_conn = std::move(*deploy_->Connect());
    *reader_conn = std::move(*deploy_->Connect());
  });
  sim_.Run();
  // Writer: move 10 from key 1 to key 2 in a 2PC transaction; artificially
  // slow so the reader lands between the two COMMIT PREPAREDs.
  sim_.Spawn("writer", [&] {
    net::Connection& c = **writer_conn;
    ASSERT_TRUE(c.Query("BEGIN").ok());
    ASSERT_TRUE(c.Query("UPDATE pairs SET v = v - 10 WHERE key = 1").ok());
    ASSERT_TRUE(c.Query("UPDATE pairs SET v = v + 10 WHERE key = 2").ok());
    ASSERT_TRUE(c.Query("COMMIT").ok());
  });
  sim_.Spawn("reader", [&] {
    // Poll during the commit window; record any half-applied sum.
    for (int i = 0; i < 200; i++) {
      auto r = (*reader_conn)->Query("SELECT sum(v) FROM pairs");
      if (r.ok() && !r->rows.empty() && !r->rows[0][0].is_null()) {
        int64_t sum = r->rows[0][0].int_value();
        if (sum != 100) half_sum = sum;
      }
      sim_.WaitFor(100 * sim::kMicrosecond);
    }
  });
  sim_.Run();
  // The anomaly is timing dependent but this schedule reliably exposes it;
  // what must ALWAYS hold is that the final state is consistent.
  sim_.Spawn("check", [&] {
    auto r = (*reader_conn)->Query("SELECT sum(v) FROM pairs");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 100);
  });
  sim_.Run();
  // Report whether the anomaly was observed (not asserted: schedules vary).
  if (half_sum != -1) {
    EXPECT_NE(half_sum, 100);
  }
}

TEST_F(CitusTest, Citus0Plus1SingleNodeCluster) {
  MakeDeployment(0);  // coordinator is the only worker
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (key bigint, v bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    for (int i = 0; i < 50; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
    }
    QueryResult r = MustQuery(**conn, "SELECT count(*), sum(v) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 50);
    EXPECT_EQ(r.rows[0][1].int_value(), 49 * 50 / 2);
    r = MustQuery(**conn, "SELECT v FROM t WHERE key = 30");
    EXPECT_EQ(r.rows[0][0].int_value(), 30);
  });
}

TEST_F(CitusTest, AddNodeAndRebalanceGrowsCluster) {
  // §3.4: grow the cluster, then rebalance onto the new node.
  citus::DeploymentOptions options;
  options.num_workers = 2;
  options.spare_workers = 1;
  deploy_ = std::make_unique<Deployment>(&sim_, options);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "CREATE TABLE ref (id bigint, name text)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'key')");
    MustQuery(**conn, "SELECT create_reference_table('ref')");
    MustQuery(**conn, "INSERT INTO ref VALUES (1, 'one')");
    for (int i = 0; i < 60; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO t VALUES (%d, 'v%d')", i, i));
    }
    EXPECT_EQ(deploy_->metadata().workers.size(), 2u);
    MustQuery(**conn, "SELECT citus_add_node('worker3')");
    EXPECT_EQ(deploy_->metadata().workers.size(), 3u);
    // Reference table now has a replica on worker3 with the data.
    const CitusTable* ref = deploy_->metadata().Find("ref");
    bool has_w3 = false;
    for (const auto& n : ref->replica_nodes) has_w3 |= n == "worker3";
    EXPECT_TRUE(has_w3);
    engine::Node* w3 = deploy_->cluster().directory().Find("worker3");
    engine::TableInfo* replica =
        w3->catalog().Find(ref->ShardName(ref->shards[0].shard_id));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->heap->num_rows(), 1u);
    // Rebalance moves shards onto the new node.
    Rebalancer rebalancer(deploy_->extension(deploy_->coordinator()));
    auto session = deploy_->coordinator()->OpenSession();
    auto moves = rebalancer.Rebalance(*session,
                                      RebalanceStrategy::kByShardCount);
    ASSERT_TRUE(moves.ok()) << moves.status().ToString();
    EXPECT_GT(*moves, 5);
    std::map<std::string, int> counts;
    const CitusTable* ct = deploy_->metadata().Find("t");
    for (const auto& s : ct->shards) counts[s.placement]++;
    EXPECT_GT(counts["worker3"], 8);
    // Everything still reachable, reads route correctly.
    QueryResult r = MustQuery(**conn, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 60);
    r = MustQuery(**conn,
                  "SELECT t.v FROM t, ref WHERE t.key = 42 AND ref.id = 1");
    ASSERT_EQ(r.rows.size(), 1u);
  });
}

TEST_F(CitusTest, CitusRemoveNode) {
  // worker3 exists in the directory but starts unregistered (spare).
  DeploymentOptions options;
  options.num_workers = 2;
  options.spare_workers = 1;
  deploy_ = std::make_unique<Deployment>(&sim_, options);
  RunSim([&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "CREATE TABLE ref (id bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_reference_table('ref')");
    MustQuery(**conn, "INSERT INTO ref VALUES (1, 'a')");
    // Unregistered / unknown nodes cannot be removed.
    EXPECT_FALSE((*conn)->Query("SELECT citus_remove_node('worker3')").ok());
    EXPECT_FALSE((*conn)->Query("SELECT citus_remove_node('nosuch')").ok());
    // Register worker3; it gets a reference-table replica but no kv shards
    // (shards only move on rebalance).
    MustQuery(**conn, "SELECT citus_add_node('worker3')");
    EXPECT_EQ(deploy_->metadata().workers.size(), 3u);
    const CitusTable* ref = deploy_->metadata().Find("ref");
    int replicas_on_w3 = 0;
    for (const auto& r : ref->replica_nodes) replicas_on_w3 += r == "worker3";
    EXPECT_EQ(replicas_on_w3, 1);
    // A worker that still holds shard placements is refused.
    auto refused = (*conn)->Query("SELECT citus_remove_node('worker1')");
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.status().ToString().find("placements"),
              std::string::npos);
    EXPECT_EQ(deploy_->metadata().workers.size(), 3u);
    // worker3 holds no kv placements: removal succeeds and drops its
    // reference replica.
    MustQuery(**conn, "SELECT citus_remove_node('worker3')");
    EXPECT_EQ(deploy_->metadata().workers.size(), 2u);
    for (const auto& r : ref->replica_nodes) EXPECT_NE(r, "worker3");
    engine::Node* w3 = deploy_->cluster().directory().Find("worker3");
    ASSERT_NE(w3, nullptr);
    EXPECT_EQ(w3->catalog().Find(ref->ShardName(ref->shards[0].shard_id)),
              nullptr);
    // The cluster still works after the removal.
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'x')");
    QueryResult r = MustQuery(**conn, "SELECT count(*) FROM kv");
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
  });
}

TEST_F(CitusTest, ExistingRowsMigrateOnDistribution) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE pre (key bigint, v text)");
    MustQuery(**conn, "INSERT INTO pre VALUES (1, 'a'), (2, 'b'), (3, 'c')");
    MustQuery(**conn, "SELECT create_distributed_table('pre', 'key')");
    QueryResult r = MustQuery(**conn, "SELECT count(*) FROM pre");
    EXPECT_EQ(r.rows[0][0].int_value(), 3);
    // The shell is empty; the rows live in shards.
    engine::TableInfo* shell = deploy_->coordinator()->catalog().Find("pre");
    EXPECT_EQ(shell->heap->num_rows(), 0u);
  });
}

}  // namespace
}  // namespace citusx::citus
