// Chaos tests: the fault-injection framework (sim::FaultInjector) and the
// failure-hardened distributed execution path — task retries, replica
// failover, connection pruning, 2PC crash recovery at every phase boundary,
// clean rebalance aborts, crashes around a metadata-sync round, connection
// accounting when a client leaves during pool growth, and the
// citus_stat_failures view.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "citus/deploy.h"
#include "citus/rebalancer.h"
#include "common/str.h"
#include "pool/pooler.h"
#include "sim/fault.h"

namespace citusx::citus {
namespace {

// ---------------------------------------------------------------------------
// Net-layer faults against a plain (no Citus) cluster.
// ---------------------------------------------------------------------------

class ChaosNetTest : public ::testing::Test {
 protected:
  void MakeCluster(const sim::CostModel& cost, int num_workers) {
    cluster_ = std::make_unique<net::Cluster>(&sim_, cost, num_workers);
  }

  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
  }

  void TearDown() override {
    sim_.Shutdown();
    cluster_.reset();
  }

  sim::Simulation sim_;
  std::unique_ptr<net::Cluster> cluster_;
};

TEST_F(ChaosNetTest, ScheduledCrashAndRestartAreDelivered) {
  MakeCluster(sim::DefaultCostModel(), 2);
  sim_.faults().ScheduleCrash(1 * sim::kSecond, "worker1", 2 * sim::kSecond);
  RunSim([&] {
    engine::Node* w1 = cluster_->directory().Find("worker1");
    ASSERT_NE(w1, nullptr);
    EXPECT_FALSE(w1->is_down());
    sim_.WaitFor(1500 * sim::kMillisecond);  // t = 1.5 s: crashed
    EXPECT_TRUE(w1->is_down());
    sim_.WaitFor(2 * sim::kSecond);  // t = 3.5 s: restarted
    EXPECT_FALSE(w1->is_down());
    EXPECT_EQ(w1->restart_epoch(), 1u);
    EXPECT_EQ(sim_.faults().injected(sim::FaultKind::kCrash), 1);
    EXPECT_EQ(sim_.faults().injected(sim::FaultKind::kRestart), 1);
    EXPECT_EQ(sim_.faults().injected_on("worker1"), 2);
    EXPECT_EQ(sim_.faults().total_injected(), 2);
  });
}

TEST_F(ChaosNetTest, GateCountsRejectedConnections) {
  sim::CostModel cost = sim::DefaultCostModel();
  cost.max_connections = 2;
  MakeCluster(cost, 1);
  RunSim([&] {
    auto c1 = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(c1.ok());
    auto c2 = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(c2.ok());
    auto c3 = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_FALSE(c3.ok());
    EXPECT_EQ(c3.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(c3.status().error_class(), ErrorClass::kRetryableTransient);
    EXPECT_EQ(cluster_->directory().GateFor("worker1")->rejected(), 1);
    EXPECT_GE(cluster_->directory()
                  .Find("worker1")
                  ->metrics()
                  .CounterValue("net.admission_rejected"),
              1);
    (*c1)->Close();
    (*c2)->Close();
  });
}

TEST_F(ChaosNetTest, RefusedConnectionsFault) {
  MakeCluster(sim::DefaultCostModel(), 1);
  RunSim([&] {
    sim_.faults().SetRefuseConnections("worker1", true);
    auto c = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_FALSE(c.ok());
    EXPECT_TRUE(c.status().IsUnavailable()) << c.status().ToString();
    sim_.faults().SetRefuseConnections("worker1", false);
    auto c2 = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(c2.ok()) << c2.status().ToString();
    EXPECT_GE(sim_.faults().injected(sim::FaultKind::kRefusal), 1);
    (*c2)->Close();
  });
}

TEST_F(ChaosNetTest, OpenWithRetryOutlastsShortOutage) {
  MakeCluster(sim::DefaultCostModel(), 1);
  sim_.faults().ScheduleCrash(1 * sim::kMillisecond, "worker1",
                              50 * sim::kMillisecond);
  RunSim([&] {
    sim_.WaitFor(2 * sim::kMillisecond);
    ASSERT_TRUE(cluster_->directory().Find("worker1")->is_down());
    sim::Time t0 = sim_.now();
    auto c = cluster_->directory().ConnectWithRetry(nullptr, "worker1");
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    // The connection was only obtainable after the restart at t = 51 ms.
    EXPECT_GE(sim_.now() - t0, 40 * sim::kMillisecond);
    EXPECT_TRUE((*c)->usable());
    (*c)->Close();
  });
}

TEST_F(ChaosNetTest, StatementTimeoutBreaksTheConnection) {
  MakeCluster(sim::DefaultCostModel(), 1);
  RunSim([&] {
    auto c = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Query("CREATE TABLE s (key bigint PRIMARY KEY)").ok());
    (*c)->SetStatementTimeout(1 * sim::kMillisecond);
    sim_.faults().SetDelaySpike("worker1", 10 * sim::kMillisecond,
                                sim_.now() + 1 * sim::kSecond);
    auto r = (*c)->Query("SELECT count(*) FROM s");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
    EXPECT_EQ(r.status().error_class(), ErrorClass::kRetryableTransient);
    EXPECT_TRUE((*c)->broken());
    EXPECT_FALSE((*c)->usable());
    // A desynced connection must not carry further statements.
    auto r2 = (*c)->Query("SELECT count(*) FROM s");
    ASSERT_FALSE(r2.ok());
    EXPECT_TRUE(r2.status().IsConnectionLost()) << r2.status().ToString();
    EXPECT_GE(cluster_->directory()
                  .Find("worker1")
                  ->metrics()
                  .CounterValue("net.statement_timeouts"),
              1);
    (*c)->Close();
  });
}

TEST_F(ChaosNetTest, ServerRestartBreaksEstablishedConnections) {
  MakeCluster(sim::DefaultCostModel(), 1);
  RunSim([&] {
    auto c = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Query("SELECT 1 + 1").ok());
    sim_.faults().Crash("worker1");
    sim_.faults().Restart("worker1");
    // The server is up again but this backend died with the crash.
    EXPECT_FALSE((*c)->usable());
    auto r = (*c)->Query("SELECT 1 + 1");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsConnectionLost() || r.status().IsUnavailable())
        << r.status().ToString();
    auto fresh = cluster_->directory().Connect(nullptr, "worker1");
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE((*fresh)->Query("SELECT 1 + 1").ok());
    (*c)->Close();
    (*fresh)->Close();
  });
}

// ---------------------------------------------------------------------------
// Failure-hardened distributed execution (Citus deployment).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Transaction-pool admission under faults: a session that cannot attach
// before its deadline gets a retryable error, never a hang.
// ---------------------------------------------------------------------------

TEST_F(ChaosNetTest, PoolAttachFailsRetryablyWhileNodeRefusesConnections) {
  MakeCluster(sim::DefaultCostModel(), 2);
  RunSim([&] {
    pool::PoolerOptions opts;
    opts.pool_size = 2;
    opts.attach_timeout = 50 * sim::kMillisecond;
    pool::TransactionPooler pooler(&sim_, &cluster_->directory(), nullptr,
                                   "worker1", opts);
    sim_.faults().SetRefuseConnections("worker1", true);
    auto session = pooler.OpenSession();
    sim::Time t0 = sim_.now();
    auto r = session->Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_EQ(r.status().error_class(), ErrorClass::kRetryableTransient);
    // Bounded by the deadline (plus one retry-probe interval), not a hang.
    EXPECT_GE(sim_.now() - t0, opts.attach_timeout);
    EXPECT_LE(sim_.now() - t0, opts.attach_timeout + 4 * opts.retry_interval);
    EXPECT_GT(cluster_->directory()
                  .Find("worker1")
                  ->metrics()
                  .CounterValue("pool.attach_timeouts"),
              0);
    // The fault lifts and the same session works — the failure was
    // retryable in practice, not just in classification.
    sim_.faults().SetRefuseConnections("worker1", false);
    auto ok = session->Query("SELECT 1");
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  });
}

TEST_F(ChaosNetTest, PoolSaturationTimesOutWaiterThenRecovers) {
  MakeCluster(sim::DefaultCostModel(), 2);
  RunSim([&] {
    pool::PoolerOptions opts;
    opts.pool_size = 1;
    opts.attach_timeout = 50 * sim::kMillisecond;
    pool::TransactionPooler pooler(&sim_, &cluster_->directory(), nullptr,
                                   "worker1", opts);
    auto holder = pooler.OpenSession();
    auto waiter = pooler.OpenSession();
    // holder pins the only backend for the whole transaction block.
    ASSERT_TRUE(holder->Query("BEGIN").ok());
    auto r = waiter->Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    ASSERT_TRUE(holder->Query("COMMIT").ok());
    // The backend detached at the transaction boundary; the waiter's retry
    // attaches without growing the pool.
    auto ok = waiter->Query("SELECT 1");
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(pooler.physical_connections(), 1);
  });
}

class ChaosTest : public ::testing::Test {
 protected:
  void Deploy(const DeploymentOptions& options) {
    deploy_ = std::make_unique<Deployment>(&sim_, options);
  }

  void TearDown() override {
    sim_.Shutdown();
    deploy_.reset();
  }

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

  CitusExtension* CoordinatorExt() {
    return deploy_->extension(deploy_->coordinator());
  }

  // CREATE + distribute a two-column table and insert (k1, 0), (k2, 0) with
  // k1 on worker1 and k2 on worker2.
  void SetupPairTable(net::Connection& conn, int64_t* k1, int64_t* k2) {
    ASSERT_TRUE(
        conn.Query("CREATE TABLE t (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(
        conn.Query("SELECT create_distributed_table('t', 'key')").ok());
    *k1 = KeyOn("t", "worker1");
    *k2 = KeyOn("t", "worker2", *k1 + 1);
    ASSERT_TRUE(conn.Query(StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                                     static_cast<long long>(*k1),
                                     static_cast<long long>(*k2)))
                    .ok());
  }

  int64_t SumV(net::Connection& conn) {
    auto r = conn.Query("SELECT sum(v) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  }

  size_t PreparedCount() {
    size_t n = 0;
    for (engine::Node* w : deploy_->workers()) {
      n += w->txns().PreparedGids().size();
    }
    return n;
  }

  sim::Simulation sim_;
  std::unique_ptr<Deployment> deploy_;
};

TEST_F(ChaosTest, ReadRetriesOnDroppedConnection) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    // Warm the pooled coordinator->worker1 connection, then reset it
    // mid-statement: the read must be retried on a fresh connection.
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                      static_cast<long long>(k1)))
                    .ok());
    sim_.faults().DropNextRoundTrips("worker1", 1);
    auto r = (*conn)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                      static_cast<long long>(k1)));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].int_value(), 0);
    CitusExtension* ext = CoordinatorExt();
    EXPECT_GE(ext->metric_task_retries->value(), 1);
    EXPECT_GE(ext->metric_pruned->value(), 1);
    EXPECT_GE(deploy_->cluster()
                  .directory()
                  .Find("worker1")
                  ->metrics()
                  .CounterValue("net.connection_drops"),
              1);
  });
  sim_.Run();
}

TEST_F(ChaosTest, SingleShardQueriesSurviveOtherWorkerDown) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    auto select = [&](int64_t key) {
      return (*conn)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                      static_cast<long long>(key)));
    };
    // Warm pooled connections to both workers.
    ASSERT_TRUE(select(k1).ok());
    ASSERT_TRUE(select(k2).ok());
    sim_.faults().Crash("worker2");
    // Queries routed to the healthy worker keep working even though the
    // session pool holds a dead connection to worker2.
    auto r1 = select(k1);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    // Queries routed to the dead worker fail with a node-down error.
    auto r2 = select(k2);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().error_class(), ErrorClass::kNodeDown)
        << r2.status().ToString();
    CitusExtension* ext = CoordinatorExt();
    EXPECT_TRUE(ext->IsWorkerMarkedDown("worker2"));
    EXPECT_GE(ext->metric_node_down->value(), 1);
    sim_.faults().Restart("worker2");
    // The pool heals: the broken connection is pruned, a fresh one opened.
    auto r3 = select(k2);
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();
    EXPECT_EQ(r3->rows[0][0].int_value(), 0);
    EXPECT_GE(ext->metric_pruned->value(), 1);
    EXPECT_FALSE(ext->IsWorkerMarkedDown("worker2"));
  });
  sim_.Run();
}

TEST_F(ChaosTest, ReferenceTableReadFailsOverToAnotherReplica) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE r (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE((*conn)->Query("SELECT create_reference_table('r')").ok());
    ASSERT_TRUE((*conn)->Query("INSERT INTO r VALUES (1, 42)").ok());
    // Reference reads prefer the coordinator's local replica; trim it so
    // the read has to route to a worker (the planner's "replicas trimmed"
    // case), then crash that worker.
    CitusTable* rt = deploy_->metadata().Find("r");
    ASSERT_NE(rt, nullptr);
    rt->replica_nodes.erase(std::remove(rt->replica_nodes.begin(),
                                        rt->replica_nodes.end(),
                                        "coordinator"),
                            rt->replica_nodes.end());
    deploy_->metadata().BumpGeneration();
    ASSERT_GE(rt->replica_nodes.size(), 2u);
    // Reads route to the first replica; crash it and the read must fail
    // over to another replica holding the same data.
    sim_.faults().Crash(rt->replica_nodes.front());
    auto r = (*conn)->Query("SELECT v FROM r WHERE key = 1");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].int_value(), 42);
    EXPECT_GE(CoordinatorExt()->metric_failovers->value(), 1);
  });
  sim_.Run();
}

TEST_F(ChaosTest, MultiShardReadReportsPartialFailure) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    ASSERT_EQ(SumV(**conn), 0);
    sim_.faults().Crash("worker2");
    auto r = (*conn)->Query("SELECT sum(v) FROM t");
    ASSERT_FALSE(r.ok());
    std::string msg = r.status().ToString();
    EXPECT_NE(msg.find("partial query failure"), std::string::npos) << msg;
    EXPECT_NE(msg.find("worker2"), std::string::npos) << msg;
    EXPECT_GE(CoordinatorExt()->metric_partial_failures->value(), 1);
    sim_.faults().Restart("worker2");
    EXPECT_EQ(SumV(**conn), 0);
  });
  sim_.Run();
}

TEST_F(ChaosTest, CommitFailureBeforePrepareAbortsEverywhere) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    CitusExtension* ext = CoordinatorExt();
    ext->twophase_fault_hook = [](TwoPhasePoint p) {
      return p == TwoPhasePoint::kBeforePrepare
                 ? Status::Internal("injected crash before prepare")
                 : Status::OK();
    };
    ASSERT_TRUE((*conn)->Query("BEGIN").ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                      static_cast<long long>(k1)))
                    .ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                      static_cast<long long>(k2)))
                    .ok());
    auto c = (*conn)->Query("COMMIT");
    EXPECT_FALSE(c.ok());
    ext->twophase_fault_hook = nullptr;
    CITUSX_IGNORE_STATUS((*conn)->Query("ROLLBACK"),
                         "fault injected on purpose; rollback may fail");
    // Nothing was prepared, nothing committed.
    EXPECT_EQ(PreparedCount(), 0u);
    EXPECT_EQ(SumV(**conn), 0);
  });
  sim_.Run();
}

TEST_F(ChaosTest, CrashAfterPrepareIsRolledBackByRecovery) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.deadlock_poll_interval = 1 * sim::kSecond;
  options.cost.recovery_poll_interval = 5 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    CitusExtension* ext = CoordinatorExt();
    bool fired = false;
    ext->twophase_fault_hook = [&](TwoPhasePoint p) {
      if (p == TwoPhasePoint::kAfterPrepare && !fired) {
        fired = true;
        return Status::Internal("injected crash after prepare");
      }
      return Status::OK();
    };
    ASSERT_TRUE((*conn)->Query("BEGIN").ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 5 WHERE key = %lld",
                                      static_cast<long long>(k1)))
                    .ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 5 WHERE key = %lld",
                                      static_cast<long long>(k2)))
                    .ok());
    auto c = (*conn)->Query("COMMIT");
    EXPECT_FALSE(c.ok());
    ext->twophase_fault_hook = nullptr;
    CITUSX_IGNORE_STATUS((*conn)->Query("ROLLBACK"),
                         "fault injected on purpose; rollback may fail");
    // Both workers hold orphaned prepared transactions; with no commit
    // record, the recovery daemon must ROLLBACK PREPARED them.
    EXPECT_EQ(PreparedCount(), 2u);
    sim_.WaitFor(15 * sim::kSecond);
    EXPECT_EQ(PreparedCount(), 0u);
    EXPECT_EQ(SumV(**conn), 0);
    EXPECT_GE(ext->metric_recovered->value(), 2);
  });
  sim_.Run();
}

TEST_F(ChaosTest, CrashAfterCommitRecordIsCommittedByRecovery) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.deadlock_poll_interval = 1 * sim::kSecond;
  options.cost.recovery_poll_interval = 5 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    CitusExtension* ext = CoordinatorExt();
    // Coordinator "crashes" right after its local commit made the commit
    // records durable: COMMIT PREPARED is never sent from this session.
    ext->suppress_post_commit_2pc_once = true;
    ASSERT_TRUE((*conn)->Query("BEGIN").ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 7 WHERE key = %lld",
                                      static_cast<long long>(k1)))
                    .ok());
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("UPDATE t SET v = 7 WHERE key = %lld",
                                      static_cast<long long>(k2)))
                    .ok());
    // The client was acked: this commit must never be lost.
    ASSERT_TRUE((*conn)->Query("COMMIT").ok());
    EXPECT_EQ(PreparedCount(), 2u);
    sim_.WaitFor(15 * sim::kSecond);
    EXPECT_EQ(PreparedCount(), 0u);
    EXPECT_EQ(SumV(**conn), 14);
    EXPECT_GE(ext->metric_recovered->value(), 2);
  });
  sim_.Run();
}

TEST_F(ChaosTest, ShardMoveAbortsCleanlyWhenTargetDies) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.recovery_poll_interval = 2 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE t (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('t', 'key')").ok());
    std::vector<std::vector<std::string>> rows;
    for (int64_t i = 0; i < 400; i++) {
      rows.push_back({std::to_string(i), std::to_string(i)});
    }
    ASSERT_TRUE((*conn)->CopyIn("t", {}, std::move(rows)).ok());
    const CitusTable* ct = deploy_->metadata().Find("t");
    // Pick a shard on worker2 to move to worker1.
    uint64_t shard_id = 0;
    for (const auto& s : ct->shards) {
      if (s.placement == "worker2") {
        shard_id = s.shard_id;
        break;
      }
    }
    ASSERT_NE(shard_id, 0u);
    std::vector<std::string> before;
    for (const auto& s : ct->shards) before.push_back(s.placement);
    // Slow the target down so the scheduled crash lands mid-copy.
    sim_.faults().SetDelaySpike("worker1", 2 * sim::kMillisecond,
                                sim_.now() + 10 * sim::kSecond);
    sim_.faults().ScheduleCrash(sim_.now() + 5 * sim::kMillisecond, "worker1",
                                100 * sim::kMillisecond);
    CitusExtension* ext = CoordinatorExt();
    Rebalancer rebalancer(ext);
    auto session = deploy_->coordinator()->OpenSession();
    Status mv = rebalancer.MoveShard(*session, shard_id, "worker2", "worker1");
    EXPECT_FALSE(mv.ok());
    // The distributed metadata is untouched: every placement as before.
    for (size_t i = 0; i < ct->shards.size(); i++) {
      EXPECT_EQ(ct->shards[i].placement, before[i]) << "shard " << i;
    }
    // Wait out the restart and a couple of maintenance rounds: the orphaned
    // target placements must be dropped by the deferred cleanup.
    sim_.WaitFor(5 * sim::kSecond);
    EXPECT_EQ(ext->pending_cleanup_count(), 0);
    // All data still readable from the original placements.
    auto r = (*conn)->Query("SELECT count(*) FROM t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].int_value(), 400);
  });
  sim_.Run();
}

// A worker that crashes mid-metadata-sync comes back stale: it refuses MX
// routing (retryable error, never a wrong answer) until the maintenance
// daemon re-syncs it, after which it coordinates correctly again.
TEST_F(ChaosTest, CrashDuringMetadataSyncLeavesNodeStaleUntilResync) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.deadlock_poll_interval = 1 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    CitusExtension* ext = CoordinatorExt();
    // Crash worker1 right before the sync round ships its payload: the
    // round fails mid-flight.
    bool fired = false;
    ext->metadata_sync_fault_hook = [&](const std::string& target,
                                        MetadataSyncPoint point) {
      if (target == "worker1" && point == MetadataSyncPoint::kBeforeApply &&
          !fired) {
        fired = true;
        sim_.faults().Crash("worker1");
      }
      return Status::OK();
    };
    auto sync = (*conn)->Query("SELECT citus_sync_metadata()");
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_EQ(sync->rows[0][0].int_value(), 1);  // only worker2 made it
    ASSERT_TRUE(fired);
    ext->metadata_sync_fault_hook = nullptr;
    EXPECT_GE(ext->metric_mx_sync_failures->value(), 1);
    sim_.faults().Restart("worker1");
    // Back up but stale: a direct query must be refused retryably.
    CitusExtension* wext = deploy_->extension(
        deploy_->cluster().directory().Find("worker1"));
    EXPECT_FALSE(wext->MxReady());
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r = (*wconn)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                       static_cast<long long>(k1)));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
    EXPECT_EQ(r.status().error_class(), ErrorClass::kRetryableTransient);
    // The maintenance daemon notices (failed round + restart epoch) and
    // re-syncs within a couple of poll rounds.
    sim_.WaitFor(3 * sim::kSecond);
    EXPECT_TRUE(wext->MxReady());
    auto healed = deploy_->Connect("worker1");
    ASSERT_TRUE(healed.ok());
    auto r2 = (*healed)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                         static_cast<long long>(k1)));
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r2->rows[0][0].int_value(), 0);
  });
  sim_.Run();
}

// A worker that crashes right after a sync round applied on it (the
// authority already saw the round succeed) is caught by its restart epoch:
// it refuses MX routing after the restart until the daemon re-syncs it.
TEST_F(ChaosTest, CrashAfterMetadataApplyIsHealedByDaemon) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.deadlock_poll_interval = 1 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    CitusExtension* ext = CoordinatorExt();
    bool fired = false;
    ext->metadata_sync_fault_hook = [&](const std::string& target,
                                        MetadataSyncPoint point) {
      if (target == "worker1" && point == MetadataSyncPoint::kAfterApply &&
          !fired) {
        fired = true;
        sim_.faults().Crash("worker1");
      }
      return Status::OK();
    };
    auto sync = (*conn)->Query("SELECT citus_sync_metadata()");
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    ASSERT_TRUE(fired);
    ext->metadata_sync_fault_hook = nullptr;
    sim_.faults().Restart("worker1");
    EXPECT_TRUE(ext->AnyMetadataSyncPending());
    CitusExtension* wext = deploy_->extension(
        deploy_->cluster().directory().Find("worker1"));
    EXPECT_FALSE(wext->MxReady());
    auto wconn = deploy_->Connect("worker1");
    ASSERT_TRUE(wconn.ok());
    auto r = (*wconn)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                       static_cast<long long>(k1)));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(IsStaleMetadataStatus(r.status())) << r.status().ToString();
    sim_.WaitFor(3 * sim::kSecond);
    EXPECT_TRUE(wext->MxReady());
    EXPECT_FALSE(ext->AnyMetadataSyncPending());
    auto healed = deploy_->Connect("worker1");
    ASSERT_TRUE(healed.ok());
    auto r2 = (*healed)->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                         static_cast<long long>(k1)));
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r2->rows[0][0].int_value(), 0);
  });
  sim_.Run();
}

// A client that disconnects right after a multi-shard read, while the
// executor's pool-growth connects are still in flight, must not leak them:
// each late connection is closed and never counted against the worker.
// Both admission policies grow the pool this way: a plain read is
// pipelined, the same read inside a transaction block uses slow start.
TEST_F(ChaosTest, ClientCloseDuringPoolGrowthLeaksNoConnections) {
  for (bool in_txn_block : {false, true}) {
    SCOPED_TRACE(in_txn_block ? "slow start" : "pipelined");
    sim::Simulation sim;
    DeploymentOptions options;
    options.num_workers = 2;
    options.citus.shard_count = 64;
    options.cost.connect_cost = 40 * sim::kMillisecond;
    Deployment deploy(&sim, options);
    CitusExtension* ext = deploy.extension(deploy.coordinator());
    sim.Spawn("test", [&] {
      {
        auto setup = deploy.Connect();
        ASSERT_TRUE(setup.ok());
        ASSERT_TRUE((*setup)->Query("CREATE TABLE t (key bigint, v bigint)")
                        .ok());
        ASSERT_TRUE(
            (*setup)->Query("SELECT create_distributed_table('t', 'key')")
                .ok());
        ASSERT_TRUE(
            (*setup)->Query("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
                .ok());
        (*setup)->Close();
      }
      sim.WaitFor(200 * sim::kMillisecond);
      std::map<std::string, int> outgoing;
      std::map<std::string, int64_t> gate;
      for (engine::Node* w : deploy.workers()) {
        outgoing[w->name()] = ext->outgoing_connections(w->name());
        gate[w->name()] =
            deploy.cluster().directory().GateFor(w->name())->in_use();
      }
      auto client = deploy.Connect();
      ASSERT_TRUE(client.ok());
      if (in_txn_block) {
        ASSERT_TRUE((*client)->Query("BEGIN").ok());
      }
      auto r = (*client)->Query("SELECT count(*) FROM t");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->rows[0][0].int_value(), 3);
      if (in_txn_block) {
        ASSERT_TRUE((*client)->Query("COMMIT").ok());
      }
      (*client)->Close();
      sim.WaitFor(200 * sim::kMillisecond);
      for (engine::Node* w : deploy.workers()) {
        EXPECT_EQ(ext->outgoing_connections(w->name()), outgoing[w->name()])
            << w->name();
        EXPECT_EQ(deploy.cluster().directory().GateFor(w->name())->in_use(),
                  gate[w->name()])
            << w->name();
      }
    });
    sim.Run();
    sim.Shutdown();  // before the deployment goes away
  }
}

// A worker crash landing mid-scan under the vectorized executor must surface
// at the coordinator as a retryable error — never a hang (morsel workers on
// the dead node just stop; the coordinator's task fails fast) and never a
// partial answer. Once the worker restarts, the same query succeeds.
TEST_F(ChaosTest, VectorizedScanSurvivesMidQueryWorkerCrash) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("SET citusx.shard_access_method = 'columnar'").ok());
    ASSERT_TRUE((*conn)->Query("CREATE TABLE big (k bigint, v bigint)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('big', 'k')").ok());
    std::vector<std::vector<std::string>> rows;
    for (int64_t i = 0; i < 30000; i++) {
      rows.push_back({std::to_string(i), std::to_string(i % 100)});
      if (rows.size() == 4000) {
        ASSERT_TRUE((*conn)->CopyIn("big", {}, std::move(rows)).ok());
        rows.clear();
      }
    }
    if (!rows.empty()) {
      ASSERT_TRUE((*conn)->CopyIn("big", {}, std::move(rows)).ok());
    }
    const char* q = "SELECT count(*), sum(v) FROM big WHERE v >= 0";
    // First run warms the buffer pools and checks the answer; second run
    // measures the warm virtual duration, so the crash below can be timed
    // to land mid-query deterministically.
    auto base = (*conn)->Query(q);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base->rows[0][0].int_value(), 30000);
    sim::Time t0 = sim_.now();
    ASSERT_TRUE((*conn)->Query(q).ok());
    sim::Time dur = sim_.now() - t0;
    ASSERT_GT(dur, 0);
    sim_.faults().ScheduleCrash(sim_.now() + dur / 2, "worker2",
                                50 * sim::kMillisecond);
    auto r = (*conn)->Query(q);
    ASSERT_FALSE(r.ok()) << "query must not return a partial answer";
    EXPECT_TRUE(r.status().error_class() == ErrorClass::kRetryableTransient ||
                r.status().error_class() == ErrorClass::kNodeDown)
        << r.status().ToString();
    // After the restart the same session recovers and the answer is intact.
    sim_.WaitFor(200 * sim::kMillisecond);
    auto healed = (*conn)->Query(q);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed->rows[0][0].int_value(), 30000);
  });
  sim_.Run();
}

TEST_F(ChaosTest, StatFailuresViewExposesFailureCounters) {
  DeploymentOptions options;
  options.num_workers = 2;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    int64_t k1 = 0, k2 = 0;
    SetupPairTable(**conn, &k1, &k2);
    sim_.faults().DropNextRoundTrips("worker1", 1);
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("SELECT v FROM t WHERE key = %lld",
                                      static_cast<long long>(k1)))
                    .ok());
    auto r = (*conn)->Query("SELECT * FROM citus_stat_failures");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 3u);  // coordinator + 2 workers
    bool saw_worker1 = false, saw_retry = false;
    for (const auto& row : r->rows) {
      if (row[0].ToText() == "worker1") {
        saw_worker1 = true;
        EXPECT_GE(row[1].int_value(), 1);  // faults_injected
        EXPECT_GE(row[2].int_value(), 1);  // connection_drops
      }
      if (row[0].ToText() == "coordinator") {
        saw_retry = row[5].int_value() >= 1;  // task_retries
      }
    }
    EXPECT_TRUE(saw_worker1);
    EXPECT_TRUE(saw_retry);
  });
  sim_.Run();
}

// A worker crash between the repartition shuffle and the final join must
// fail (or fail over) cleanly: never wrong rows, and no leaked
// intermediate-result shards — the crashed worker's temp shard drains
// through the deferred-cleanup queue once the node is back.
TEST_F(ChaosTest, CrashMidRepartitionJoinCleansUpIntermediateResults) {
  DeploymentOptions options;
  options.num_workers = 3;
  options.cost.recovery_poll_interval = 2 * sim::kSecond;
  Deploy(options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    auto exec = [&](const std::string& sql) {
      auto r = (*conn)->Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    // Two distributed tables, NOT co-located, joined on t1's distribution
    // column: plans at the join-order tier and repartitions t2 (1200 rows,
    // past the broadcast threshold).
    exec("CREATE TABLE t1 (a bigint, v bigint)");
    exec("SELECT create_distributed_table('t1', 'a')");
    exec("CREATE TABLE t2 (b bigint, w bigint)");
    exec("SELECT create_distributed_table('t2', 'b', "
         "colocate_with := 'none')");
    for (int base = 0; base < 1500; base += 250) {
      std::string v1, v2;
      for (int i = base; i < base + 250; i++) {
        if (!v1.empty()) v1 += ", ";
        v1 += StrFormat("(%d, %d)", i, i % 7);
        if (i < 1200) {
          if (!v2.empty()) v2 += ", ";
          v2 += StrFormat("(%d, %d)", i, i % 5);
        }
      }
      exec("INSERT INTO t1 VALUES " + v1);
      if (!v2.empty()) exec("INSERT INTO t2 VALUES " + v2);
    }
    const std::string join_sql =
        "SELECT count(*), sum(w) FROM t1 JOIN t2 ON b = a";
    auto good = (*conn)->Query(join_sql);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    ASSERT_EQ(good->rows.size(), 1u);
    EXPECT_EQ(good->rows[0][0].int_value(), 1200);

    CitusExtension* ext = CoordinatorExt();
    bool fired = false;
    ext->repartition_fault_hook = [&](const std::string& name,
                                      RepartitionPoint p) {
      if (p == RepartitionPoint::kAfterShuffle && !fired) {
        fired = true;
        sim_.faults().Crash("worker2");
      }
      return Status::OK();
    };
    auto r = (*conn)->Query(join_sql);
    ext->repartition_fault_hook = nullptr;
    EXPECT_TRUE(fired);
    // The final join fans out to the dead worker: a clean error is the
    // expected outcome; a correct answer (if nothing routed there) is also
    // acceptable — wrong rows never are.
    if (r.ok()) {
      ASSERT_EQ(r->rows.size(), 1u);
      EXPECT_EQ(r->rows[0][0].int_value(), good->rows[0][0].int_value());
      EXPECT_EQ(r->rows[0][1].int_value(), good->rows[0][1].int_value());
    }
    // The crashed worker's temp shard could not be dropped: it must be
    // queued for deferred cleanup, and drained once the worker restarts.
    EXPECT_GT(ext->pending_cleanup_count(), 0);
    sim_.faults().Restart("worker2");
    sim_.WaitFor(5 * sim::kSecond);  // a few maintenance rounds
    EXPECT_EQ(ext->pending_cleanup_count(), 0);
    for (engine::Node* w : deploy_->workers()) {
      for (engine::TableInfo* t : w->catalog().AllTables()) {
        EXPECT_EQ(t->name.find("citusx_repart"), std::string::npos)
            << "leaked intermediate result " << t->name;
      }
    }
    // Retried query returns the pre-crash answer.
    auto again = (*conn)->Query(join_sql);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_EQ(again->rows.size(), 1u);
    EXPECT_EQ(again->rows[0][0].int_value(), good->rows[0][0].int_value());
    EXPECT_EQ(again->rows[0][1].int_value(), good->rows[0][1].int_value());
  });
  sim_.Run();
}

}  // namespace
}  // namespace citusx::citus
