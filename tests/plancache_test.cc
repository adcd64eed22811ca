// Tests for the distributed plan cache and PREPARE/EXECUTE: cache hits,
// shard queries deparsed as worker-side prepared statements or with literal
// values, parameter coercion, shard routing per parameter,
// metadata-generation invalidation after shard moves / rebalances / node
// removal, and the observability surface.
#include <gtest/gtest.h>

#include <set>

#include "citus/deploy.h"
#include "citus/plancache.h"
#include "citus/planner.h"
#include "citus/rebalancer.h"
#include "common/str.h"
#include "deployment_fixture.h"

namespace citusx::citus {
namespace {

using engine::QueryResult;

class PlanCacheTest : public test::DeploymentTest {
 protected:
  void MakeDeployment(int workers, bool enable_plan_cache = true) {
    DeploymentOptions options;
    options.num_workers = workers;
    options.citus.enable_plan_cache = enable_plan_cache;
    Deploy(options);
  }
};

TEST_F(PlanCacheTest, RepeatedQueriesHitTheCache) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 10; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    int64_t hits0 = CoordCounter("citus.plancache.hit");
    int64_t miss0 = CoordCounter("citus.plancache.miss");
    // Same shape, different constants: one miss, then hits.
    for (int i = 0; i < 10; i++) {
      QueryResult r = MustQuery(
          **conn, StrFormat("SELECT v FROM kv WHERE key = %d", i));
      ASSERT_EQ(r.rows.size(), 1u);
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("v%d", i));
    }
    EXPECT_EQ(CoordCounter("citus.plancache.miss") - miss0, 1);
    EXPECT_EQ(CoordCounter("citus.plancache.hit") - hits0, 9);
  });
}

TEST_F(PlanCacheTest, PrepareExecuteRoundTripAndErrors) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn,
              "PREPARE ins (bigint, text) AS INSERT INTO kv VALUES ($1, $2)");
    MustQuery(**conn, "PREPARE sel (bigint) AS SELECT v FROM kv WHERE key = $1");
    for (int i = 0; i < 20; i++) {
      MustQuery(**conn, StrFormat("EXECUTE ins (%d, 'val%d')", i, i));
    }
    for (int i = 0; i < 20; i++) {
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u);
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("val%d", i));
    }
    // The 20 keys cover more than one shard, so parameter values really
    // drive the routing.
    const CitusTable* t = deploy_->metadata().Find("kv");
    ASSERT_NE(t, nullptr);
    std::set<int> shard_indexes;
    for (int i = 0; i < 20; i++) {
      auto h = sql::Datum::Int8(i).PartitionHash();
      shard_indexes.insert(t->ShardIndexForHash(h));
    }
    EXPECT_GT(shard_indexes.size(), 1u);

    // Unknown prepared statement.
    auto missing = (*conn)->Query("EXECUTE nosuch (1)");
    EXPECT_FALSE(missing.ok());
    EXPECT_NE(missing.status().message().find("does not exist"),
              std::string::npos);
    // Wrong parameter count.
    EXPECT_FALSE((*conn)->Query("EXECUTE sel (1, 2)").ok());
    // Duplicate PREPARE with a different body errors.
    EXPECT_FALSE(
        (*conn)
            ->Query("PREPARE sel (bigint) AS SELECT key FROM kv WHERE key = $1")
            .ok());
    // DEALLOCATE removes it; re-EXECUTE then fails.
    MustQuery(**conn, "DEALLOCATE sel");
    EXPECT_FALSE((*conn)->Query("EXECUTE sel (1)").ok());
    MustQuery(**conn, "DEALLOCATE ALL");
    EXPECT_FALSE((*conn)->Query("EXECUTE ins (99, 'x')").ok());
  });
}

// Raw SQL and an EXECUTE of the same shape share one cache entry: the
// raw statement's lifted constant and the EXECUTE's $1 bind the same place.
TEST_F(PlanCacheTest, RawSqlAndExecuteShareOneEntry) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 10; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    MustQuery(**conn, "PREPARE sel (bigint) AS SELECT v FROM kv WHERE key = $1");
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 1");
    int64_t hits0 = CoordCounter("citus.plancache.hit");
    int64_t miss0 = CoordCounter("citus.plancache.miss");
    for (int i = 0; i < 10; i++) {
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u);
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("v%d", i));
    }
    EXPECT_EQ(CoordCounter("citus.plancache.hit") - hits0, 10);
    EXPECT_EQ(CoordCounter("citus.plancache.miss") - miss0, 0);
  });
}

// A $n used only inside a WITH body counts toward the statement's
// parameters.
TEST_F(PlanCacheTest, PrepareCountsParametersInsideWithBodies) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE t (k bigint PRIMARY KEY, x bigint)");
    MustQuery(**conn, "SELECT create_distributed_table('t', 'k')");
    MustQuery(**conn, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
    MustQuery(**conn,
              "PREPARE p AS WITH c AS (SELECT x FROM t WHERE k = $1) "
              "SELECT x FROM c");
    QueryResult r = MustQuery(**conn, "EXECUTE p (2)");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 20);
  });
}

TEST_F(PlanCacheTest, ExecuteCoercesParameterTypes) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn,
              "PREPARE ins (bigint, text) AS INSERT INTO kv VALUES ($1, $2)");
    // Text literal for the bigint key and an int literal for the text value:
    // both must be coerced to the declared types, so routing hashes the key
    // as a bigint (matching non-prepared INSERTs).
    MustQuery(**conn, "EXECUTE ins ('7', 123)");
    QueryResult r = MustQuery(**conn, "SELECT v FROM kv WHERE key = 7");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "123");
  });
}

TEST_F(PlanCacheTest, ExecuteInsideExplicitTransaction) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'one'), (2, 'two')");
    MustQuery(**conn,
              "PREPARE upd (bigint, text) AS UPDATE kv SET v = $2 WHERE key = $1");
    MustQuery(**conn, "PREPARE sel (bigint) AS SELECT v FROM kv WHERE key = $1");

    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, "EXECUTE upd (1, 'uno')");
    QueryResult in_txn = MustQuery(**conn, "EXECUTE sel (1)");
    ASSERT_EQ(in_txn.rows.size(), 1u);
    EXPECT_EQ(in_txn.rows[0][0].text_value(), "uno");
    MustQuery(**conn, "ROLLBACK");
    QueryResult after = MustQuery(**conn, "EXECUTE sel (1)");
    ASSERT_EQ(after.rows.size(), 1u);
    EXPECT_EQ(after.rows[0][0].text_value(), "one");

    MustQuery(**conn, "BEGIN");
    MustQuery(**conn, "EXECUTE upd (2, 'dos')");
    MustQuery(**conn, "COMMIT");
    QueryResult committed = MustQuery(**conn, "EXECUTE sel (2)");
    ASSERT_EQ(committed.rows.size(), 1u);
    EXPECT_EQ(committed.rows[0][0].text_value(), "dos");
  });
}

// A prepared body that leaves a parameter unused has no dense parameter
// list, so its cached plan sends the shard query with the bound values
// deparsed as literals rather than as a worker-side prepared statement.
TEST_F(PlanCacheTest, SparseParametersRenderAsLiterals) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 8; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    MustQuery(**conn,
              "PREPARE p (text, bigint) AS SELECT v FROM kv WHERE key = $2");
    int64_t hits0 = CoordCounter("citus.plancache.hit");
    int64_t miss0 = CoordCounter("citus.plancache.miss");
    for (int i = 0; i < 8; i++) {
      QueryResult r =
          MustQuery(**conn, StrFormat("EXECUTE p ('it''s %d', %d)", i, i));
      ASSERT_EQ(r.rows.size(), 1u);
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("v%d", i));
      EXPECT_EQ(CoordCounter("citus.plancache.miss") - miss0, 1);
      EXPECT_EQ(CoordCounter("citus.plancache.hit") - hits0, i);
    }
  });
}

// The regression test of the invalidation protocol: a cached plan must be
// discarded — and the statement re-routed to the new placement — after
// citus_move_shard_placement, a rebalance, and citus_remove_node.
TEST_F(PlanCacheTest, CachedPlanInvalidatedByShardMoveRebalanceRemoveNode) {
  MakeDeployment(3);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 30; i++) {
      MustQuery(**conn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    MustQuery(**conn, "PREPARE sel (bigint) AS SELECT v FROM kv WHERE key = $1");
    MustQuery(**conn,
              "PREPARE upd (bigint, text) AS UPDATE kv SET v = $2 WHERE key = $1");
    // Warm the cache.
    for (int i = 0; i < 30; i++) {
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u) << "key " << i;
    }
    CitusTable* t = deploy_->metadata().Find("kv");
    ASSERT_NE(t, nullptr);

    // 1) Move the shard holding key 5 to a different worker.
    int idx = t->ShardIndexForHash(sql::Datum::Int8(5).PartitionHash());
    ASSERT_GE(idx, 0);
    uint64_t shard_id = t->shards[static_cast<size_t>(idx)].shard_id;
    std::string source = t->shards[static_cast<size_t>(idx)].placement;
    std::string target = source == "worker1" ? "worker2" : "worker1";
    int64_t inval0 = CoordCounter("citus.plancache.invalidation");
    MustQuery(**conn,
              StrFormat("SELECT citus_move_shard_placement(%llu, '%s', '%s')",
                        static_cast<unsigned long long>(shard_id),
                        source.c_str(), target.c_str()));
    EXPECT_EQ(t->shards[static_cast<size_t>(idx)].placement, target);
    QueryResult moved = MustQuery(**conn, "EXECUTE sel (5)");
    ASSERT_EQ(moved.rows.size(), 1u);
    EXPECT_EQ(moved.rows[0][0].text_value(), "v5");
    EXPECT_GT(CoordCounter("citus.plancache.invalidation"), inval0);
    // Writes re-route too.
    MustQuery(**conn, "EXECUTE upd (5, 'v5-moved')");
    QueryResult updated = MustQuery(**conn, "EXECUTE sel (5)");
    EXPECT_EQ(updated.rows[0][0].text_value(), "v5-moved");

    // 2) Rebalance the cluster; cached plans must keep answering correctly.
    Rebalancer rebalancer(deploy_->extension(deploy_->coordinator()));
    auto session = deploy_->coordinator()->OpenSession();
    auto moves =
        rebalancer.Rebalance(*session, RebalanceStrategy::kByShardCount);
    ASSERT_TRUE(moves.ok()) << moves.status().ToString();
    for (int i = 0; i < 30; i++) {
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u) << "key " << i << " after rebalance";
    }

    // 3) Drain worker3 and remove it; cached plans must re-route off it.
    std::vector<std::pair<uint64_t, std::string>> on_w3;
    for (const auto& s : t->shards) {
      if (s.placement == "worker3") on_w3.emplace_back(s.shard_id, s.placement);
    }
    for (const auto& [sid, src] : on_w3) {
      ASSERT_TRUE(rebalancer.MoveShard(*session, sid, src, "worker1").ok());
    }
    MustQuery(**conn, "SELECT citus_remove_node('worker3')");
    for (int i = 0; i < 30; i++) {
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u) << "key " << i << " after remove_node";
      EXPECT_NE(r.rows[0][0].text_value(), "");
    }
    for (const auto& s : t->shards) EXPECT_NE(s.placement, "worker3");
  });
}

// Multi-stage statements keep their intermediate results out of the
// metadata, so they invalidate no cached plan: another session's cached
// fast-path read still hits after a materialized CTE and after a
// repartition join.
TEST_F(PlanCacheTest, StagesKeepOtherSessionsPlansCached) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    auto reader = deploy_->Connect();
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
    MustQuery(**reader, "SELECT v FROM kv WHERE key = 1");  // cache it
    int64_t invalidations = CoordCounter("citus.plancache.invalidation");
    for (const char* sql :
         {"WITH c AS MATERIALIZED (SELECT v FROM kv WHERE key < 4) "
          "SELECT count(*) FROM kv JOIN c ON kv.v = c.v",
          "SELECT count(*) FROM kv JOIN other ON other.id = kv.v"}) {
      MustQuery(**conn, sql);
      int64_t hits = CoordCounter("citus.plancache.hit");
      MustQuery(**reader, "SELECT v FROM kv WHERE key = 2");
      EXPECT_EQ(CoordCounter("citus.plancache.hit") - hits, 1) << sql;
    }
    EXPECT_EQ(CoordCounter("citus.plancache.invalidation") - invalidations, 0);
  });
}

TEST_F(PlanCacheTest, ExplainMarksCachedShapes) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    auto explain_text = [&](const QueryResult& r) {
      std::string all;
      for (const auto& row : r.rows) {
        all += row[0].text_value();
        all += "\n";
      }
      return all;
    };
    QueryResult cold =
        MustQuery(**conn, "EXPLAIN SELECT v FROM kv WHERE key = 3");
    ASSERT_FALSE(cold.rows.empty());
    EXPECT_EQ(explain_text(cold).find("(cached)"), std::string::npos);
    MustQuery(**conn, "SELECT v FROM kv WHERE key = 3");
    QueryResult warm =
        MustQuery(**conn, "EXPLAIN SELECT v FROM kv WHERE key = 99");
    // Same shape, different constant: the cache serves it, EXPLAIN says so.
    EXPECT_NE(explain_text(warm).find("Fast Path Router"), std::string::npos);
    EXPECT_NE(explain_text(warm).find("(cached)"), std::string::npos);
  });
}

TEST_F(PlanCacheTest, StatPlanCacheViewExposesCounters) {
  MakeDeployment(2);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "INSERT INTO kv VALUES (1, 'one')");
    for (int i = 0; i < 5; i++) {
      MustQuery(**conn, "SELECT v FROM kv WHERE key = 1");
    }
    QueryResult r = MustQuery(
        **conn,
        "SELECT query, hits, misses FROM citus_stat_plan_cache ORDER BY query");
    ASSERT_FALSE(r.rows.empty());
    bool found = false;
    for (const auto& row : r.rows) {
      if (row[0].text_value().find("SELECT v FROM kv") != std::string::npos) {
        found = true;
        EXPECT_GE(row[1].int_value(), 4);  // hits
        EXPECT_GE(row[2].int_value(), 1);  // misses
      }
    }
    EXPECT_TRUE(found);
    // The raw obs counters are exposed on the coordinator node as well.
    EXPECT_GE(CoordCounter("citus.plancache.hit"), 4);
    EXPECT_GE(CoordCounter("citus.plancache.miss"), 1);
    EXPECT_EQ(CoordCounter("citus.plancache.invalidation"), 0);
  });
}

TEST_F(PlanCacheTest, DisablingThePlanCacheStillAnswersQueries) {
  MakeDeployment(2, /*enable_plan_cache=*/false);
  RunSim([&] {
    auto conn = deploy_->Connect();
    MustQuery(**conn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**conn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**conn, "PREPARE ins (bigint, text) AS INSERT INTO kv VALUES ($1, $2)");
    MustQuery(**conn, "PREPARE sel (bigint) AS SELECT v FROM kv WHERE key = $1");
    for (int i = 0; i < 8; i++) {
      MustQuery(**conn, StrFormat("EXECUTE ins (%d, 'x%d')", i, i));
      QueryResult r = MustQuery(**conn, StrFormat("EXECUTE sel (%d)", i));
      ASSERT_EQ(r.rows.size(), 1u);
      EXPECT_EQ(r.rows[0][0].text_value(), StrFormat("x%d", i));
    }
    EXPECT_EQ(CoordCounter("citus.plancache.hit"), 0);
    EXPECT_EQ(CoordCounter("citus.plancache.miss"), 0);
  });
}

// The binary-search pruning must agree with a linear scan over the
// min_hash-sorted intervals, including gap and boundary hashes.
TEST(ShardPruningTest, BinarySearchMatchesLinearScan) {
  CitusTable t;
  t.name = "t";
  auto intervals = MakeHashIntervals(32);
  uint64_t sid = 1;
  for (auto [lo, hi] : intervals) {
    ShardInterval s;
    s.shard_id = sid++;
    s.min_hash = lo;
    s.max_hash = hi;
    t.shards.push_back(s);
  }
  auto linear = [&](int32_t h) {
    for (size_t i = 0; i < t.shards.size(); i++) {
      if (h >= t.shards[i].min_hash && h <= t.shards[i].max_hash) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  std::vector<int32_t> probes = {INT32_MIN, INT32_MIN + 1, -1, 0, 1,
                                 INT32_MAX - 1, INT32_MAX};
  for (const auto& s : t.shards) {
    probes.push_back(s.min_hash);
    probes.push_back(s.max_hash);
    if (s.min_hash > INT32_MIN) probes.push_back(s.min_hash - 1);
    if (s.max_hash < INT32_MAX) probes.push_back(s.max_hash + 1);
  }
  for (uint32_t i = 0; i < 5000; i++) {
    probes.push_back(static_cast<int32_t>(i * 858993459u + 7u));
  }
  for (int32_t h : probes) {
    EXPECT_EQ(t.ShardIndexForHash(h), linear(h)) << "hash " << h;
  }
  // With a gap (a dropped interval), hashes inside the gap miss.
  t.shards.erase(t.shards.begin() + 10);
  for (int32_t h : probes) {
    EXPECT_EQ(t.ShardIndexForHash(h), linear(h)) << "gap hash " << h;
  }
}

}  // namespace
}  // namespace citusx::citus
