// Tests for the maintenance daemon (§3.1 background workers): automatic 2PC
// recovery over virtual time, and the consistent restore point (§3.9).
#include <gtest/gtest.h>

#include "citus/deploy.h"
#include "common/str.h"

namespace citusx::citus {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    sim_.Shutdown();
    deploy_.reset();
  }
  sim::Simulation sim_;
  std::unique_ptr<Deployment> deploy_;
};

TEST_F(MaintenanceTest, DaemonRecoversOrphanedPreparedTransaction) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.recovery_poll_interval = 10 * sim::kSecond;
  deploy_ = std::make_unique<Deployment>(&sim_, options);
  sim_.Spawn("test", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE t (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('t', 'key')").ok());
    const CitusTable* ct = deploy_->metadata().Find("t");
    int64_t key = 1;
    while (ct->shards[static_cast<size_t>(ct->ShardIndexForHash(
                          sql::Datum::Int8(key).PartitionHash()))]
               .placement != "worker1") {
      key++;
    }
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("INSERT INTO t VALUES (%lld, 0)",
                                      static_cast<long long>(key)))
                    .ok());
    // Orphan a prepared transaction on worker1 with a commit record on the
    // coordinator (as if the coordinator died between local commit and
    // COMMIT PREPARED).
    engine::Node* w1 = deploy_->cluster().directory().Find("worker1");
    auto ws = w1->OpenSession();
    std::string shard = ct->ShardName(
        ct->shards[static_cast<size_t>(ct->ShardIndexForHash(
                       sql::Datum::Int8(key).PartitionHash()))]
            .shard_id);
    ASSERT_TRUE(ws->Execute("BEGIN").ok());
    ASSERT_TRUE(ws->Execute(StrFormat("UPDATE %s SET v = 9 WHERE key = %lld",
                                      shard.c_str(),
                                      static_cast<long long>(key)))
                    .ok());
    ASSERT_TRUE(
        ws->Execute("PREPARE TRANSACTION 'citusx_coordinator_777_0'").ok());
    auto cs = deploy_->coordinator()->OpenSession();
    ASSERT_TRUE(cs->Execute("INSERT INTO pg_dist_transaction VALUES "
                            "('citusx_coordinator_777_0')")
                    .ok());
    ASSERT_EQ(w1->txns().PreparedGids().size(), 1u);
    // Let virtual time pass; the maintenance daemon must finish the commit.
    sim_.WaitFor(30 * sim::kSecond);
    EXPECT_TRUE(w1->txns().PreparedGids().empty());
    auto r = (*conn)->Query(
        StrFormat("SELECT v FROM t WHERE key = %lld",
                  static_cast<long long>(key)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 9);
    EXPECT_GE(deploy_->coordinator()->metrics().CounterValue(
                  "citus.2pc.recovered"),
              1);
  });
  sim_.Run();
}

TEST_F(MaintenanceTest, RestorePointWaitsForInFlight2pc) {
  DeploymentOptions options;
  options.num_workers = 2;
  deploy_ = std::make_unique<Deployment>(&sim_, options);
  // The restore point takes an exclusive lock on pg_dist_transaction; a 2PC
  // in its commit phase holds a write on that table, so the restore point
  // serializes after it (§3.9).
  auto conn_holder = std::make_shared<std::unique_ptr<net::Connection>>();
  int64_t k1 = 0, k2 = 0;
  sim_.Spawn("setup", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE t (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('t', 'key')").ok());
    const CitusTable* ct = deploy_->metadata().Find("t");
    auto worker_of = [&](int64_t key) {
      return ct->shards[static_cast<size_t>(ct->ShardIndexForHash(
                            sql::Datum::Int8(key).PartitionHash()))]
          .placement;
    };
    k1 = 1;
    while (worker_of(k1) != "worker1") k1++;
    k2 = k1 + 1;
    while (worker_of(k2) != "worker2") k2++;
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("INSERT INTO t VALUES (%lld, 0), (%lld, 0)",
                                      static_cast<long long>(k1),
                                      static_cast<long long>(k2)))
                    .ok());
    *conn_holder = std::move(*conn);
  });
  sim_.Run();
  sim::Time restore_done = -1, commit_done = -1;
  sim_.Spawn("writer", [&] {
    net::Connection& c = **conn_holder;
    ASSERT_TRUE(c.Query("BEGIN").ok());
    ASSERT_TRUE(c.Query(StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                  static_cast<long long>(k1)))
                    .ok());
    ASSERT_TRUE(c.Query(StrFormat("UPDATE t SET v = 1 WHERE key = %lld",
                                  static_cast<long long>(k2)))
                    .ok());
    ASSERT_TRUE(c.Query("COMMIT").ok());  // 2PC with commit records
    commit_done = sim_.now();
  });
  sim_.Spawn("restore", [&] {
    sim_.WaitFor(100 * sim::kMicrosecond);  // land mid-commit
    auto rp = deploy_->Connect();
    ASSERT_TRUE(rp.ok());
    auto r = (*rp)->Query("SELECT citus_create_restore_point('backup1')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    restore_done = sim_.now();
  });
  sim_.Run();
  EXPECT_GT(restore_done, 0);
  EXPECT_GT(commit_done, 0);
}

// Regression: a two-node cross-shard update cycle must be resolved by the
// distributed deadlock detector with exactly one victim; the survivor's
// commit must go through and the victim's work must be rolled back.
TEST_F(MaintenanceTest, DistributedDeadlockAbortsExactlyOneVictim) {
  DeploymentOptions options;
  options.num_workers = 2;
  options.cost.deadlock_poll_interval = 500 * sim::kMillisecond;
  deploy_ = std::make_unique<Deployment>(&sim_, options);
  auto conn_a = std::make_shared<std::unique_ptr<net::Connection>>();
  auto conn_b = std::make_shared<std::unique_ptr<net::Connection>>();
  int64_t k1 = 0, k2 = 0;
  sim_.Spawn("setup", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Query("CREATE TABLE d (key bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(
        (*conn)->Query("SELECT create_distributed_table('d', 'key')").ok());
    const CitusTable* ct = deploy_->metadata().Find("d");
    auto worker_of = [&](int64_t key) {
      int idx = ct->ShardIndexForHash(sql::Datum::Int8(key).PartitionHash());
      return ct->shards[static_cast<size_t>(idx)].placement;
    };
    k1 = 1;
    while (worker_of(k1) != "worker1") k1++;
    k2 = k1 + 1;
    while (worker_of(k2) != "worker2") k2++;
    ASSERT_TRUE((*conn)
                    ->Query(StrFormat("INSERT INTO d VALUES (%lld, 0), (%lld, 0)",
                                      static_cast<long long>(k1),
                                      static_cast<long long>(k2)))
                    .ok());
    *conn_a = std::move(*deploy_->Connect());
    *conn_b = std::move(*deploy_->Connect());
  });
  sim_.Run();
  // outcome: 1 = committed, 2 = aborted as deadlock victim
  int outcome_a = 0, outcome_b = 0;
  auto txn = [&](net::Connection& conn, int64_t first, int64_t second,
                 int* outcome) {
    ASSERT_TRUE(conn.Query("BEGIN").ok());
    auto u1 = conn.Query(StrFormat("UPDATE d SET v = v + 1 WHERE key = %lld",
                                   static_cast<long long>(first)));
    ASSERT_TRUE(u1.ok()) << u1.status().ToString();
    sim_.WaitFor(50 * sim::kMillisecond);
    auto u2 = conn.Query(StrFormat("UPDATE d SET v = v + 1 WHERE key = %lld",
                                   static_cast<long long>(second)));
    if (u2.ok()) {
      ASSERT_TRUE(conn.Query("COMMIT").ok());
      *outcome = 1;
    } else {
      EXPECT_TRUE(u2.status().IsDeadlock() || u2.status().IsAborted())
          << u2.status().ToString();
      auto rb = conn.Query("ROLLBACK");
      *outcome = 2;
    }
  };
  sim_.Spawn("txn_a", [&] { txn(**conn_a, k1, k2, &outcome_a); });
  sim_.Spawn("txn_b", [&] { txn(**conn_b, k2, k1, &outcome_b); });
  sim_.Run();
  // Exactly one victim; the other transaction committed.
  EXPECT_EQ((outcome_a == 1 ? 1 : 0) + (outcome_b == 1 ? 1 : 0), 1)
      << "outcomes: " << outcome_a << " " << outcome_b;
  EXPECT_EQ((outcome_a == 2 ? 1 : 0) + (outcome_b == 2 ? 1 : 0), 1);
  CitusExtension* ext = deploy_->extension(deploy_->coordinator());
  EXPECT_GE(ext->deadlocks_detected, 1);
  // The survivor updated both rows; the victim's work was rolled back.
  sim_.Spawn("verify", [&] {
    auto conn = deploy_->Connect();
    ASSERT_TRUE(conn.ok());
    auto r = (*conn)->Query("SELECT sum(v) FROM d");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].int_value(), 2);
  });
  sim_.Run();
}

}  // namespace
}  // namespace citusx::citus
