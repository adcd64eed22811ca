// Citus MX tests (§3.10): metadata syncing to workers and any-node
// coordination — router reads/writes and multi-shard queries via workers
// match coordinator-originated results, worker-originated 2PC, stale-node
// rejection (never wrong answers), re-sync healing (deltas, snapshots, the
// snapshot retry after a refused delta), rejection of malformed sync
// payloads, the sync admin UDFs, and the citus_stat_metadata_sync view.
#include <gtest/gtest.h>

#include "citus/deploy.h"
#include "citus/rebalancer.h"
#include "common/str.h"
#include "deployment_fixture.h"
#include "sim/fault.h"

namespace citusx::citus {
namespace {

using engine::QueryResult;

class MxTest : public test::DeploymentTest {
 protected:
  // Placement worker of `key` in distributed table `table`.
  std::string WorkerOf(const std::string& table, int64_t key) {
    const CitusTable* ct = deploy_->metadata().Find(table);
    int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
    return ct->shards[static_cast<size_t>(idx)].placement;
  }

  // Smallest key >= `from` whose shard lives on `worker`.
  int64_t KeyOn(const std::string& table, const std::string& worker,
                int64_t from = 1) {
    int64_t key = from;
    while (WorkerOf(table, key) != worker) key++;
    return key;
  }

  CitusExtension* ExtOf(const std::string& name) {
    return deploy_->extension(deploy_->cluster().directory().Find(name));
  }

  size_t PreparedCount() {
    size_t n = 0;
    for (engine::Node* w : deploy_->workers()) {
      n += w->txns().PreparedGids().size();
    }
    return n;
  }
};

// Router reads and writes through a worker return exactly what the
// coordinator returns.
TEST_F(MxTest, WorkerRoutedReadsAndWritesMatchCoordinator) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    for (int i = 0; i < 16; i++) {
      MustQuery(**cconn, StrFormat("INSERT INTO kv VALUES (%d, 'v%d')", i, i));
    }
    auto wconn = deploy_->Connect("worker2");
    ASSERT_TRUE(wconn.ok());
    for (int i = 0; i < 16; i++) {
      QueryResult via_worker =
          MustQuery(**wconn, StrFormat("SELECT v FROM kv WHERE key = %d", i));
      QueryResult via_coord =
          MustQuery(**cconn, StrFormat("SELECT v FROM kv WHERE key = %d", i));
      ASSERT_EQ(via_worker.rows.size(), 1u) << i;
      ASSERT_EQ(via_coord.rows.size(), 1u) << i;
      EXPECT_EQ(via_worker.rows[0][0].text_value(),
                via_coord.rows[0][0].text_value());
    }
    // Worker-routed writes are visible everywhere.
    MustQuery(**wconn, "UPDATE kv SET v = 'mx' WHERE key = 3");
    MustQuery(**wconn, "INSERT INTO kv VALUES (100, 'new')");
    EXPECT_EQ(MustQuery(**cconn, "SELECT v FROM kv WHERE key = 3")
                  .rows[0][0]
                  .text_value(),
              "mx");
    EXPECT_EQ(MustQuery(**cconn, "SELECT v FROM kv WHERE key = 100")
                  .rows[0][0]
                  .text_value(),
              "new");
    MustQuery(**wconn, "DELETE FROM kv WHERE key = 100");
    EXPECT_EQ(MustQuery(**cconn, "SELECT count(*) FROM kv WHERE key = 100")
                  .rows[0][0]
                  .int_value(),
              0);
  });
}

// Multi-shard scans, aggregates, and GROUP BY through a worker produce the
// same answers as through the coordinator.
TEST_F(MxTest, MultiShardSelectFromWorkerMatchesCoordinator) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn,
              "CREATE TABLE events (device bigint, kind text, value bigint)");
    MustQuery(**cconn, "SELECT create_distributed_table('events', 'device')");
    for (int i = 0; i < 60; i++) {
      MustQuery(**cconn,
                StrFormat("INSERT INTO events VALUES (%d, '%s', %d)", i % 6,
                          i % 2 == 0 ? "click" : "view", i));
    }
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    for (const char* q :
         {"SELECT count(*) FROM events", "SELECT sum(value) FROM events",
          "SELECT count(*) FROM events WHERE kind = 'click'"}) {
      QueryResult via_worker = MustQuery(**wconn, q);
      QueryResult via_coord = MustQuery(**cconn, q);
      ASSERT_EQ(via_worker.rows.size(), 1u) << q;
      EXPECT_EQ(via_worker.rows[0][0].int_value(),
                via_coord.rows[0][0].int_value())
          << q;
    }
    QueryResult grouped = MustQuery(
        **wconn,
        "SELECT device, count(*) FROM events GROUP BY device ORDER BY device");
    ASSERT_EQ(grouped.rows.size(), 6u);
    for (const auto& row : grouped.rows) EXPECT_EQ(row[1].int_value(), 10);
  });
}

// A worker can run a multi-node write transaction end to end: it drives the
// 2PC itself, and nothing stays prepared afterwards.
TEST_F(MxTest, WorkerOriginatedTwoPhaseCommit) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE t (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**cconn, "SELECT create_distributed_table('t', 'key')");
    int64_t k1 = KeyOn("t", "worker1");
    int64_t k2 = KeyOn("t", "worker2", k1 + 1);
    MustQuery(**cconn, StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                                 static_cast<long long>(k1),
                                 static_cast<long long>(k2)));
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    MustQuery(**wconn, "BEGIN");
    MustQuery(**wconn, StrFormat("UPDATE t SET v = 21 WHERE key = %lld",
                                 static_cast<long long>(k1)));
    MustQuery(**wconn, StrFormat("UPDATE t SET v = 21 WHERE key = %lld",
                                 static_cast<long long>(k2)));
    MustQuery(**wconn, "COMMIT");
    EXPECT_EQ(PreparedCount(), 0u);
    EXPECT_EQ(
        MustQuery(**cconn, "SELECT sum(v) FROM t").rows[0][0].int_value(), 42);
  });
}

// With metadata sync disabled nothing reaches the workers: a worker must
// refuse to coordinate (retryable stale-metadata error), never answer from
// its empty shell tables. A manual citus_sync_metadata() heals it.
TEST_F(MxTest, UnsyncedWorkerRefusesMxRoutingUntilManualSync) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.citus.enable_metadata_sync = false;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "INSERT INTO kv VALUES (1, 'one')");
    EXPECT_FALSE(ExtOf("worker1")->MxReady());
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r = (*wconn)->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kAborted);
    EXPECT_EQ(r.status().error_class(), ErrorClass::kRetryableTransient);
    EXPECT_GE(ExtOf("worker1")->metric_mx_rejections->value(), 1);
    // The rejection shows up in citus_stat_failures (last column).
    QueryResult failures =
        MustQuery(**cconn, "SELECT * FROM citus_stat_failures");
    bool saw = false;
    for (const auto& row : failures.rows) {
      if (row[0].ToText() == "worker1") {
        saw = true;
        EXPECT_GE(row[10].int_value(), 1);
      }
    }
    EXPECT_TRUE(saw);
    // Heal: one manual sync round from the coordinator.
    QueryResult synced = MustQuery(**cconn, "SELECT citus_sync_metadata()");
    EXPECT_EQ(synced.rows[0][0].int_value(), 2);
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    QueryResult ok = MustQuery(**wconn, "SELECT v FROM kv WHERE key = 1");
    ASSERT_EQ(ok.rows.size(), 1u);
    EXPECT_EQ(ok.rows[0][0].text_value(), "one");
  });
}

// start_metadata_sync_to_node() syncs exactly one node.
TEST_F(MxTest, StartMetadataSyncToNodeSyncsOneWorker) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.citus.enable_metadata_sync = false;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "INSERT INTO kv VALUES (1, 'one')");
    MustQuery(**cconn, "SELECT start_metadata_sync_to_node('worker1')");
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    EXPECT_FALSE(ExtOf("worker2")->MxReady());
    auto w1 = deploy_->Connect("worker1");
    ASSERT_TRUE(w1.ok());
    EXPECT_EQ(MustQuery(**w1, "SELECT v FROM kv WHERE key = 1")
                  .rows[0][0]
                  .text_value(),
              "one");
    auto w2 = deploy_->Connect("worker2");
    ASSERT_TRUE(w2.ok());
    auto r = (*w2)->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
  });
}

// Every authoritative DDL bumps the cluster version and the auto-sync
// brings all workers to the same version.
TEST_F(MxTest, DdlBumpsClusterVersionAndResyncsWorkers) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    uint64_t v0 = deploy_->metadata().cluster_version();
    MustQuery(**cconn, "CREATE INDEX kv_v ON kv (v)");
    uint64_t v1 = deploy_->metadata().cluster_version();
    EXPECT_GT(v1, v0);
    for (const char* w : {"worker1", "worker2"}) {
      EXPECT_EQ(ExtOf(w)->metadata().cluster_version(), v1) << w;
      EXPECT_TRUE(ExtOf(w)->MxReady()) << w;
    }
    // Same for TRUNCATE.
    MustQuery(**cconn, "TRUNCATE kv");
    uint64_t v2 = deploy_->metadata().cluster_version();
    EXPECT_GT(v2, v1);
    EXPECT_EQ(ExtOf("worker1")->metadata().cluster_version(), v2);
  });
}

// A worker that observes a newer cluster version on the wire than its own
// copy (its sync round failed) refuses to coordinate until re-synced.
TEST_F(MxTest, ObservedNewerVersionMarksWorkerStale) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "INSERT INTO kv VALUES (1, 'one')");
    ASSERT_TRUE(ExtOf("worker1")->MxReady());
    // Fail every sync round to worker1 from here on: it stays at the old
    // version while the cluster moves ahead.
    CitusExtension* cext = ExtOf("coordinator");
    cext->metadata_sync_fault_hook = [](const std::string& target,
                                        MetadataSyncPoint point) {
      if (target == "worker1" && point == MetadataSyncPoint::kBeforeApply) {
        return Status::Unavailable("injected sync failure");
      }
      return Status::OK();
    };
    MustQuery(**cconn, "CREATE INDEX kv_v ON kv (v)");
    // The failed round never reached worker1, so by its own lights it is
    // still synced (at the old version).
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    // Route a coordinator-planned statement through worker1: the stamped
    // version is newer than worker1's copy, raising its watermark.
    MustQuery(**cconn, "INSERT INTO kv VALUES (2, 'two')");
    MustQuery(**cconn, "SELECT count(*) FROM kv");
    EXPECT_GT(ExtOf("worker1")->metadata().known_cluster_version(),
              ExtOf("worker1")->metadata().cluster_version());
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r = (*wconn)->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
    // Heal and verify the worker answers again.
    cext->metadata_sync_fault_hook = nullptr;
    MustQuery(**cconn, "SELECT citus_sync_metadata()");
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    EXPECT_EQ(MustQuery(**wconn, "SELECT v FROM kv WHERE key = 1")
                  .rows[0][0]
                  .text_value(),
              "one");
  });
}

// A shard move invalidates worker routing through the metadata sync: a
// worker keeps returning correct results after the placement changed.
TEST_F(MxTest, ShardMoveResyncsWorkerRouting) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE t (key bigint PRIMARY KEY, v bigint)");
    MustQuery(**cconn, "SELECT create_distributed_table('t', 'key')");
    for (int64_t i = 0; i < 50; i++) {
      MustQuery(**cconn, StrFormat("INSERT INTO t VALUES (%lld, %lld)",
                                   static_cast<long long>(i),
                                   static_cast<long long>(i)));
    }
    auto wconn = deploy_->Connect("worker2");
    ASSERT_TRUE(wconn.ok());
    int64_t k = KeyOn("t", "worker1");
    EXPECT_EQ(MustQuery(**wconn, StrFormat("SELECT v FROM t WHERE key = %lld",
                                           static_cast<long long>(k)))
                  .rows[0][0]
                  .int_value(),
              k);
    // Move k's shard group from worker1 to worker2.
    const CitusTable* ct = deploy_->metadata().Find("t");
    int idx = ct->ShardIndexForHash(sql::Datum::Int8(k).PartitionHash());
    uint64_t shard_id = ct->shards[static_cast<size_t>(idx)].shard_id;
    Rebalancer rebalancer(ExtOf("coordinator"));
    auto session = deploy_->coordinator()->OpenSession();
    ASSERT_TRUE(
        rebalancer.MoveShard(*session, shard_id, "worker1", "worker2").ok());
    EXPECT_EQ(WorkerOf("t", k), "worker2");
    // The sync that followed the move republished the placements: both the
    // worker route and the total stay correct.
    EXPECT_TRUE(ExtOf("worker2")->MxReady());
    EXPECT_EQ(MustQuery(**wconn, StrFormat("SELECT v FROM t WHERE key = %lld",
                                           static_cast<long long>(k)))
                  .rows[0][0]
                  .int_value(),
              k);
    EXPECT_EQ(MustQuery(**wconn, "SELECT count(*) FROM t")
                  .rows[0][0]
                  .int_value(),
              50);
  });
}

// A restart wipes the in-memory metadata state: the worker must refuse MX
// routing until the next sync round reaches it.
TEST_F(MxTest, RestartClearsSyncedStateUntilResync) {
  DeploymentOptions options;
  options.num_workers = 2;
  // Park the maintenance daemon so the stale window is observable.
  options.cost.deadlock_poll_interval = 600 * sim::kSecond;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "INSERT INTO kv VALUES (1, 'one')");
    ASSERT_TRUE(ExtOf("worker1")->MxReady());
    sim_.faults().Crash("worker1");
    sim_.faults().Restart("worker1");
    EXPECT_FALSE(ExtOf("worker1")->MxReady());
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r = (*wconn)->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
    // The authority notices the restart (epoch change) on its next round;
    // trigger it manually here.
    EXPECT_TRUE(ExtOf("coordinator")->AnyMetadataSyncPending());
    MustQuery(**cconn, "SELECT citus_sync_metadata()");
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    EXPECT_EQ(MustQuery(**wconn, "SELECT v FROM kv WHERE key = 1")
                  .rows[0][0]
                  .text_value(),
              "one");
  });
}

// citus_stat_metadata_sync: per-worker sync bookkeeping on the authority, a
// single self row on a worker.
TEST_F(MxTest, StatMetadataSyncViewExposesSyncState) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    QueryResult r = MustQuery(
        **cconn,
        "SELECT * FROM citus_stat_metadata_sync ORDER BY node_name");
    ASSERT_EQ(r.rows.size(), 3u);  // coordinator + 2 workers
    uint64_t version = deploy_->metadata().cluster_version();
    for (const auto& row : r.rows) {
      bool authority = row[0].ToText() == "coordinator";
      EXPECT_EQ(row[1].int_value(), authority ? 1 : 0);
      EXPECT_EQ(row[2].int_value(), 1);  // synced
      EXPECT_EQ(row[3].int_value(), static_cast<int64_t>(version));
      if (!authority) {
        EXPECT_GE(row[5].int_value(), 1);  // >= 1 round trip per sync
        EXPECT_GE(row[6].int_value(), 1);  // >= 1 successful sync
        EXPECT_GE(row[7].int_value(), row[6].int_value());  // attempts
      }
    }
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    QueryResult w = MustQuery(**wconn,
                              "SELECT * FROM citus_stat_metadata_sync");
    ASSERT_EQ(w.rows.size(), 1u);
    EXPECT_EQ(w.rows[0][0].ToText(), "worker1");
    EXPECT_EQ(w.rows[0][1].int_value(), 0);
    EXPECT_EQ(w.rows[0][2].int_value(), 1);
    EXPECT_EQ(w.rows[0][3].int_value(), static_cast<int64_t>(version));
  });
}

// The sync admin UDFs are authority-only, like the DDL UDFs.
TEST_F(MxTest, SyncAdminUdfsRequireCoordinator) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r1 = (*wconn)->Query("SELECT citus_sync_metadata()");
    EXPECT_FALSE(r1.ok());
    auto r2 = (*wconn)->Query("SELECT start_metadata_sync_to_node('worker2')");
    EXPECT_FALSE(r2.ok());
  });
}

// DDL stays single-master: schema changes against distributed tables are
// refused on workers, while purely local worker tables are untouched.
TEST_F(MxTest, DdlOnDistributedTablesRefusedOnWorker) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    for (const char* ddl :
         {"CREATE INDEX kv_v ON kv (v)", "DROP TABLE kv", "TRUNCATE kv"}) {
      auto r = (*wconn)->Query(ddl);
      ASSERT_FALSE(r.ok()) << ddl;
      EXPECT_EQ(r.status().code(), StatusCode::kNotSupported) << ddl;
    }
    // Local (non-distributed) DDL on the worker still works.
    MustQuery(**wconn, "CREATE TABLE scratch (a bigint)");
    MustQuery(**wconn, "CREATE INDEX scratch_a ON scratch (a)");
    MustQuery(**wconn, "DROP TABLE scratch");
  });
}

// Adding a node mid-flight syncs it and extends reference-table placement;
// dropped tables disappear from worker copies on the next sync.
// Once a worker is synced, further metadata changes ship as one-round-trip
// deltas; a restarted worker (stale base) gets a snapshot and then resumes
// delta syncing.
TEST_F(MxTest, DeltaSyncShipsIncrementsInOneRoundTrip) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    CitusExtension* coord = ExtOf("coordinator");
    const NodeSyncState& st = coord->sync_states().at("worker1");
    int64_t deltas0 = st.delta_syncs;
    int64_t rts0 = st.round_trips;
    // DDL on an already-synced cluster: the version bump syncs via delta.
    MustQuery(**cconn, "CREATE INDEX kv_v ON kv (v)");
    EXPECT_GT(st.delta_syncs, deltas0);
    EXPECT_EQ(st.round_trips, rts0 + 1);  // one RT
    EXPECT_EQ(ExtOf("worker1")->metadata().cluster_version(),
              deploy_->metadata().cluster_version());
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    // A dropped table rides the delta's drop log.
    MustQuery(**cconn, "DROP TABLE kv");
    EXPECT_EQ(ExtOf("worker1")->metadata().Find("kv"), nullptr);
    // Restart invalidates the peer's epoch: the next sync must be a
    // snapshot (delta count unchanged), after which deltas resume.
    int64_t deltas1 = st.delta_syncs;
    sim_.faults().Crash("worker1");
    sim_.faults().Restart("worker1");
    MustQuery(**cconn, "CREATE TABLE kv2 (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv2', 'key')");
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    EXPECT_EQ(st.delta_syncs, deltas1);  // snapshot after the restart
    MustQuery(**cconn, "CREATE INDEX kv2_v ON kv2 (v)");
    EXPECT_GT(st.delta_syncs, deltas1);  // deltas resume
    // A non-forcing sweep (the eager post-DDL / maintenance-daemon path)
    // over an already-current peer must ship nothing: a sweep triggered by
    // one lagging node must not re-send the catalog to the other 127.
    int64_t rts2 = st.round_trips;
    int64_t attempts2 = st.attempts;
    auto swept = coord->SyncMetadataToWorkers();
    ASSERT_TRUE(swept.ok());
    EXPECT_EQ(st.round_trips, rts2);
    EXPECT_EQ(st.attempts, attempts2);
    // The explicit repair UDF forces a snapshot.
    MustQuery(**cconn, "SELECT citus_sync_metadata()");
    EXPECT_GT(st.round_trips, rts2);
  });
}

// A delta is decoded and validated in full before it touches the copy: a
// valid table followed by a malformed one (missing fields, or a number no
// integer field can hold) is rejected and leaves the copy exactly as it
// was (still synced, no table or shell from the payload).
TEST_F(MxTest, MalformedSyncPayloadLeavesCopyUntouched) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    CitusExtension* w1 = ExtOf("worker1");
    ASSERT_TRUE(w1->MxReady());
    const uint64_t version = w1->metadata().cluster_version();
    auto table = [&](const char* name, const char* approx_rows) {
      return StrFormat(
          "{\"name\": \"%s\", \"is_reference\": false, "
          "\"dist_column\": \"key\", \"dist_col_index\": 0, "
          "\"dist_col_type\": 0, \"colocation_id\": 99, "
          "\"columnar_shards\": false, \"approx_rows\": %s, "
          "\"approx_bytes\": 0, \"modified_version\": %llu, "
          "\"shards\": [], \"replica_nodes\": [], \"post_ddl\": []}",
          name, approx_rows, static_cast<unsigned long long>(version + 1));
    };
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    for (const std::string& bad :
         {std::string("{\"name\": \"bad\"}"), table("bad", "1e300")}) {
      SCOPED_TRACE(bad);
      const std::string payload = StrFormat(
          "{\"from\": %llu, \"to\": %llu, \"default_shard_count\": 32, "
          "\"dropped\": [], \"tables\": [%s, %s]}",
          static_cast<unsigned long long>(version),
          static_cast<unsigned long long>(version + 1),
          table("evil", "0").c_str(), bad.c_str());
      auto r = (*wconn)->Query("SELECT citus_internal_metadata_apply_delta(" +
                               QuoteSqlLiteral(payload) + ")");
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(w1->metadata().Find("evil"), nullptr);
      EXPECT_FALSE(w1->IsShellTable("evil"));
      EXPECT_EQ(w1->metadata().cluster_version(), version);
      EXPECT_TRUE(w1->MxReady());
      EXPECT_NE(w1->metadata().Find("kv"), nullptr);
    }
  });
}

// A table dropped while every round to worker1 fails never reaches its
// copy as a delta; the next round is a snapshot, which drops the table and
// its shell registration all the same.
TEST_F(MxTest, SnapshotHealDropsTablesMissedWhileRoundsFailed) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "CREATE TABLE gone (key bigint PRIMARY KEY)");
    MustQuery(**cconn, "SELECT create_distributed_table('gone', 'key')");
    CitusExtension* w1 = ExtOf("worker1");
    ASSERT_TRUE(w1->IsShellTable("gone"));
    CitusExtension* coord = ExtOf("coordinator");
    const NodeSyncState& st = coord->sync_states().at("worker1");
    const int64_t deltas = st.delta_syncs;
    coord->metadata_sync_fault_hook = [](const std::string& target,
                                         MetadataSyncPoint point) {
      if (target == "worker1" && point == MetadataSyncPoint::kBeforeApply) {
        return Status::Unavailable("injected sync failure");
      }
      return Status::OK();
    };
    MustQuery(**cconn, "DROP TABLE gone");
    EXPECT_NE(w1->metadata().Find("gone"), nullptr);  // round never arrived
    EXPECT_TRUE(coord->AnyMetadataSyncPending());
    coord->metadata_sync_fault_hook = nullptr;
    // A non-forcing sweep, as the maintenance daemon runs it.
    ASSERT_TRUE(coord->SyncMetadataToWorkers().ok());
    EXPECT_EQ(w1->metadata().Find("gone"), nullptr);
    EXPECT_FALSE(w1->IsShellTable("gone"));
    EXPECT_TRUE(w1->IsShellTable("kv"));
    EXPECT_TRUE(w1->MxReady());
    EXPECT_EQ(st.delta_syncs, deltas);
  });
}

// A peer that refuses a delta (here its copy lost its synced mark behind
// the authority's back) gets a snapshot in the same call: two round trips
// instead of one, and no delta counted.
TEST_F(MxTest, RefusedDeltaFallsBackToSnapshotInTheSameCall) {
  MakeDeployment(2);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    const NodeSyncState& st = ExtOf("coordinator")->sync_states().at("worker1");
    const int64_t rts = st.round_trips;
    const int64_t deltas = st.delta_syncs;
    ExtOf("worker1")->metadata().set_mx_synced(false);
    MustQuery(**cconn, "CREATE INDEX kv_v ON kv (v)");
    EXPECT_EQ(st.round_trips, rts + 2);
    EXPECT_EQ(st.delta_syncs, deltas);
    EXPECT_TRUE(ExtOf("worker1")->MxReady());
    EXPECT_EQ(ExtOf("worker1")->metadata().cluster_version(),
              deploy_->metadata().cluster_version());
  });
}

TEST_F(MxTest, AddNodeAndDropTablePropagateThroughSync) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.spare_workers = 1;
  Deploy(options);
  RunSim([&] {
    auto cconn = deploy_->Connect();
    ASSERT_TRUE(cconn.ok());
    MustQuery(**cconn, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**cconn, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**cconn, "INSERT INTO kv VALUES (1, 'one')");
    MustQuery(**cconn, "SELECT citus_add_node('worker3')");
    EXPECT_TRUE(ExtOf("worker3")->MxReady());
    auto w3 = deploy_->Connect("worker3");
    ASSERT_TRUE(w3.ok());
    EXPECT_EQ(MustQuery(**w3, "SELECT v FROM kv WHERE key = 1")
                  .rows[0][0]
                  .text_value(),
              "one");
    // DROP on the coordinator reaches every copy.
    MustQuery(**cconn, "DROP TABLE kv");
    EXPECT_EQ(ExtOf("worker3")->metadata().Find("kv"), nullptr);
    EXPECT_EQ(ExtOf("worker1")->metadata().Find("kv"), nullptr);
    EXPECT_FALSE(ExtOf("worker1")->IsShellTable("kv"));
  });
}

}  // namespace
}  // namespace citusx::citus
