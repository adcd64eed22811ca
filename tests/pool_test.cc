// Transaction-pooler tests: session-state correctness under multiplexing.
// The core test is a seeded differential check — a random stream of SET /
// PREPARE / EXECUTE / DEALLOCATE / DISCARD / transaction-block statements
// runs through pooled sessions (few physical connections, state replayed on
// attach) and through dedicated-connection oracle sessions, and every
// statement's outcome must match. Failures print the seed and the statement
// so they replay deterministically. Also: prepared-statement isolation
// across sessions sharing one backend, and citus.metadata_peer_version
// stamps surviving multiplexing (stale rejection follows the session, not
// the physical connection).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "citus/deploy.h"
#include "common/rng.h"
#include "common/str.h"
#include "deployment_fixture.h"
#include "pool/pooler.h"

namespace citusx::pool {
namespace {

using engine::QueryResult;

constexpr uint64_t kSeed = 20260809;
constexpr int kRounds = 120;
constexpr int kSessions = 5;

class PoolTest : public test::DeploymentTest {
 protected:
  net::NodeDirectory& directory() { return deploy_->cluster().directory(); }

  // Both sides must agree on success, error class, tag, and rows.
  void ExpectSame(const Result<QueryResult>& pooled,
                  const Result<QueryResult>& oracle, const std::string& sql) {
    ASSERT_EQ(pooled.ok(), oracle.ok())
        << sql << " pooled=" << (pooled.ok() ? "ok" : pooled.status().ToString())
        << " oracle=" << (oracle.ok() ? "ok" : oracle.status().ToString());
    if (!pooled.ok()) {
      EXPECT_EQ(pooled.status().code(), oracle.status().code()) << sql;
      return;
    }
    EXPECT_EQ(pooled->command_tag, oracle->command_tag) << sql;
    EXPECT_EQ(pooled->rows_affected, oracle->rows_affected) << sql;
    ASSERT_EQ(pooled->rows.size(), oracle->rows.size()) << sql;
    for (size_t i = 0; i < pooled->rows.size(); i++) {
      ASSERT_EQ(pooled->rows[i].size(), oracle->rows[i].size()) << sql;
      for (size_t c = 0; c < pooled->rows[i].size(); c++) {
        EXPECT_EQ(sql::Datum::Compare(pooled->rows[i][c], oracle->rows[i][c]),
                  0)
            << sql << " row " << i << " col " << c;
      }
    }
  }
};

// One random step of a session's statement stream. Transaction blocks are
// generated as a unit so the pooled/oracle txn states never diverge from
// test-side bookkeeping.
std::vector<std::string> GenStep(Rng* rng, int session) {
  switch (rng->Uniform(0, 9)) {
    case 0:
    case 1:
      return {"SET app.tag = 's" + std::to_string(session) + "_" +
              std::to_string(rng->Uniform(0, 99)) + "'"};
    case 2:
      // Same statement name in every session: leaks across backends show
      // up as wrong EXECUTE results or spurious duplicate-prepare errors.
      return {"PREPARE pq AS SELECT a + " +
              std::to_string(session * 1000 + rng->Uniform(0, 9)) +
              " FROM kv WHERE a <= $1"};
    case 3:
    case 4:
      return {"EXECUTE pq(" + std::to_string(rng->Uniform(0, 40)) + ")"};
    case 5:
      return {"DEALLOCATE pq"};
    case 6:
      return {"DISCARD ALL"};
    case 7: {
      std::vector<std::string> block = {"BEGIN"};
      int inserts = static_cast<int>(rng->Uniform(1, 3));
      for (int i = 0; i < inserts; i++) {
        block.push_back("INSERT INTO kv VALUES (" +
                        std::to_string(rng->Uniform(0, 40)) + ")");
      }
      block.push_back(rng->Uniform(0, 1) == 0 ? "COMMIT" : "ROLLBACK");
      return block;
    }
    default:
      return {"SELECT count(*), sum(a) FROM kv"};
  }
}

TEST_F(PoolTest, DifferentialPooledVsDedicatedOracle) {
  MakeDeployment(1);
  RunSim([&] {
    auto setup = deploy_->Connect();
    ASSERT_TRUE(setup.ok());
    MustQuery(**setup, "CREATE TABLE kv (a bigint)");

    PoolerOptions opts;
    opts.pool_size = 2;  // << kSessions: every attach likely swaps tenants
    TransactionPooler pooler(&sim_, &directory(), nullptr, "coordinator",
                             opts);
    std::vector<std::unique_ptr<PooledSession>> pooled;
    std::vector<std::unique_ptr<net::Connection>> oracle;
    for (int s = 0; s < kSessions; s++) {
      pooled.push_back(pooler.OpenSession());
      auto conn = deploy_->Connect();
      ASSERT_TRUE(conn.ok());
      oracle.push_back(std::move(*conn));
    }

    Rng rng(kSeed);
    for (int round = 0; round < kRounds; round++) {
      int s = static_cast<int>(rng.Uniform(0, kSessions - 1));
      for (const std::string& sql : GenStep(&rng, s)) {
        SCOPED_TRACE(StrFormat("seed=%llu round=%d session=%d",
                               static_cast<unsigned long long>(kSeed), round,
                               s));
        ExpectSame(pooled[static_cast<size_t>(s)]->Query(sql),
                   oracle[static_cast<size_t>(s)]->Query(sql), sql);
      }
      EXPECT_LE(pooler.physical_connections(), opts.pool_size);
    }
    // The whole point: far fewer backends than sessions, with real tenant
    // swapping (state replays actually happened).
    engine::Node* server = directory().Find("coordinator");
    EXPECT_GT(server->metrics().CounterValue("pool.state_replays"), 0);
    EXPECT_LE(pooler.physical_connections(), opts.pool_size);
  });
}

// Two sessions sharing one backend prepare the same statement name with
// different bodies; each EXECUTE must see its own definition.
TEST_F(PoolTest, PreparedStatementsIsolatedAcrossSessions) {
  MakeDeployment(1);
  RunSim([&] {
    PoolerOptions opts;
    opts.pool_size = 1;
    TransactionPooler pooler(&sim_, &directory(), nullptr, "coordinator",
                             opts);
    auto a = pooler.OpenSession();
    auto b = pooler.OpenSession();
    ASSERT_TRUE(a->Query("PREPARE q AS SELECT 10 + $1").ok());
    ASSERT_TRUE(b->Query("PREPARE q AS SELECT 20 + $1").ok());
    for (int i = 0; i < 3; i++) {
      auto ra = a->Query("EXECUTE q(1)");
      ASSERT_TRUE(ra.ok()) << ra.status().ToString();
      EXPECT_EQ(ra->rows[0][0].int_value(), 11);
      auto rb = b->Query("EXECUTE q(1)");
      ASSERT_TRUE(rb.ok()) << rb.status().ToString();
      EXPECT_EQ(rb->rows[0][0].int_value(), 21);
    }
    EXPECT_EQ(pooler.physical_connections(), 1);
  });
}

// SET state follows the session across backends and inside transaction
// blocks; DISCARD ALL drops it.
TEST_F(PoolTest, SetStateSurvivesTransactionBoundaries) {
  MakeDeployment(1);
  RunSim([&] {
    auto setup = deploy_->Connect();
    ASSERT_TRUE(setup.ok());
    MustQuery(**setup, "CREATE TABLE kv (a bigint)");
    PoolerOptions opts;
    opts.pool_size = 1;
    TransactionPooler pooler(&sim_, &directory(), nullptr, "coordinator",
                             opts);
    auto a = pooler.OpenSession();
    auto b = pooler.OpenSession();
    auto set = a->Query("SET app.tag = 'alpha'");
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set->command_tag, "SET");
    // b churns the single backend between a's statements.
    ASSERT_TRUE(b->Query("SELECT count(*) FROM kv").ok());
    ASSERT_TRUE(a->Query("BEGIN").ok());
    ASSERT_TRUE(a->Query("INSERT INTO kv VALUES (1)").ok());
    ASSERT_TRUE(a->Query("COMMIT").ok());
    EXPECT_EQ(a->state_entries(), 1);  // SET survived the txn boundary
    ASSERT_TRUE(a->Query("DISCARD ALL").ok());
    EXPECT_EQ(a->state_entries(), 0);
  });
}

// The MX routing stamp is session state too: a session carrying a stale
// citus.metadata_peer_version is rejected exactly like a dedicated stale
// connection, and its stamp never leaks to other sessions sharing the
// backend.
TEST_F(PoolTest, MetadataPeerVersionStampSurvivesMultiplexing) {
  MakeDeployment(2);
  RunSim([&] {
    auto setup = deploy_->Connect();
    ASSERT_TRUE(setup.ok());
    MustQuery(**setup, "CREATE TABLE kv (key bigint PRIMARY KEY, v text)");
    MustQuery(**setup, "SELECT create_distributed_table('kv', 'key')");
    MustQuery(**setup, "INSERT INTO kv VALUES (1, 'one')");

    PoolerOptions opts;
    opts.pool_size = 1;
    TransactionPooler pooler(&sim_, &directory(), nullptr, "coordinator",
                             opts);
    auto stale = pooler.OpenSession();
    auto fresh = pooler.OpenSession();
    ASSERT_TRUE(stale->Query("SET citus.metadata_peer_version = '1'").ok());
    // Unstamped session works...
    auto r = fresh->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].text_value(), "one");
    // ...the stamped one is rejected retryably, matching a dedicated
    // connection that ran the same SET.
    auto rejected = stale->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(rejected.ok());
    auto dedicated = deploy_->Connect();
    ASSERT_TRUE(dedicated.ok());
    ASSERT_TRUE(
        (*dedicated)->Query("SET citus.metadata_peer_version = '1'").ok());
    auto oracle = (*dedicated)->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(rejected.status().code(), oracle.status().code());
    EXPECT_EQ(citus::IsStaleMetadataStatus(rejected.status()),
              citus::IsStaleMetadataStatus(oracle.status()));
    // The stamp stayed with its session: the fresh one still works on the
    // same (single) physical connection.
    r = fresh->Query("SELECT v FROM kv WHERE key = 1");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].text_value(), "one");
  });
}

}  // namespace
}  // namespace citusx::pool
