// Property-based tests: randomized data and queries checked against
// C++-computed oracles, and plain-vs-distributed result equivalence.
// Each suite runs six seeds from a base read from CITUSX_PROPERTY_SEED
// (default 1, so a plain run replays seeds 1-6).
#include <gtest/gtest.h>

#include <algorithm>

#include "citus/deploy.h"
#include "common/str.h"
#include "engine/node.h"
#include "engine/session.h"
#include "property_env.h"

namespace citusx {
namespace {

using engine::QueryResult;

/// The seed of suite instance `index` (0-5).
uint64_t Seed(int index) {
  return static_cast<uint64_t>(test::EnvInt("CITUSX_PROPERTY_SEED", 1) +
                               index);
}

struct OracleRow {
  int64_t k;
  int64_t grp;
  double val;
  std::string tag;
};

std::vector<OracleRow> GenerateRows(Rng& rng, int n) {
  std::vector<OracleRow> rows;
  const char* tags[] = {"red", "green", "blue", "cyan"};
  for (int i = 0; i < n; i++) {
    rows.push_back(OracleRow{i, rng.Uniform(0, 7),
                             static_cast<double>(rng.Uniform(0, 1000)) / 4.0,
                             tags[rng.Uniform(0, 3)]});
  }
  return rows;
}

Status LoadRows(net::Connection& conn, const std::vector<OracleRow>& rows) {
  std::vector<std::vector<std::string>> copy_rows;
  for (const auto& r : rows) {
    copy_rows.push_back({std::to_string(r.k), std::to_string(r.grp),
                         StrFormat("%.2f", r.val), r.tag});
  }
  return conn.CopyIn("t", {}, std::move(copy_rows)).status();
}

// ---- engine-level properties on a single node ----

class EnginePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { sim_.Shutdown(); }
  sim::Simulation sim_;
};

TEST_P(EnginePropertyTest, FilterAggSortMatchOracle) {
  engine::Node node(&sim_, "pg", sim::DefaultCostModel());
  Rng rng(Seed(GetParam()) * 31 + 7);
  auto rows = GenerateRows(rng, 400);
  sim_.Spawn("test", [&] {
    auto s = node.OpenSession();
    ASSERT_TRUE(s->Execute("CREATE TABLE t (k bigint PRIMARY KEY, grp bigint, "
                           "val double precision, tag text)")
                    .ok());
    for (const auto& r : rows) {
      ASSERT_TRUE(
          s->Execute(StrFormat("INSERT INTO t VALUES (%lld, %lld, %.2f, '%s')",
                               static_cast<long long>(r.k),
                               static_cast<long long>(r.grp), r.val,
                               r.tag.c_str()))
              .ok());
    }
    for (int probe = 0; probe < 10; probe++) {
      int64_t lo = rng.Uniform(0, 200), hi = rng.Uniform(lo, 400);
      int64_t g = rng.Uniform(0, 7);
      // Filtered count + sum.
      auto r = s->Execute(StrFormat(
          "SELECT count(*), sum(val) FROM t WHERE k >= %lld AND k < %lld "
          "AND grp <> %lld",
          static_cast<long long>(lo), static_cast<long long>(hi),
          static_cast<long long>(g)));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      int64_t expect_count = 0;
      double expect_sum = 0;
      for (const auto& row : rows) {
        if (row.k >= lo && row.k < hi && row.grp != g) {
          expect_count++;
          expect_sum += row.val;
        }
      }
      EXPECT_EQ(r->rows[0][0].int_value(), expect_count);
      if (expect_count > 0) {
        EXPECT_NEAR(r->rows[0][1].float_value(), expect_sum, 0.01);
      } else {
        EXPECT_TRUE(r->rows[0][1].is_null());
      }
      // Group-by matches a hand-rolled map.
      auto gb = s->Execute(
          StrFormat("SELECT tag, count(*), min(val) FROM t WHERE k < %lld "
                    "GROUP BY tag ORDER BY tag",
                    static_cast<long long>(hi)));
      ASSERT_TRUE(gb.ok());
      std::map<std::string, std::pair<int64_t, double>> oracle;
      for (const auto& row : rows) {
        if (row.k >= hi) continue;
        auto [it, fresh] = oracle.try_emplace(row.tag, 0, 1e300);
        it->second.first++;
        it->second.second = std::min(it->second.second, row.val);
      }
      ASSERT_EQ(gb->rows.size(), oracle.size());
      size_t i = 0;
      for (const auto& [tag, agg] : oracle) {
        EXPECT_EQ(gb->rows[i][0].text_value(), tag);
        EXPECT_EQ(gb->rows[i][1].int_value(), agg.first);
        EXPECT_NEAR(gb->rows[i][2].float_value(), agg.second, 0.01);
        i++;
      }
      // ORDER BY + LIMIT matches std::sort.
      auto top = s->Execute(
          StrFormat("SELECT k FROM t WHERE grp = %lld ORDER BY val DESC, k "
                    "LIMIT 5",
                    static_cast<long long>(g)));
      ASSERT_TRUE(top.ok());
      std::vector<OracleRow> filtered;
      for (const auto& row : rows) {
        if (row.grp == g) filtered.push_back(row);
      }
      std::sort(filtered.begin(), filtered.end(),
                [](const OracleRow& a, const OracleRow& b) {
                  if (a.val != b.val) return a.val > b.val;
                  return a.k < b.k;
                });
      ASSERT_EQ(top->rows.size(),
                std::min<size_t>(5, filtered.size()));
      for (size_t j = 0; j < top->rows.size(); j++) {
        EXPECT_EQ(top->rows[j][0].int_value(), filtered[j].k);
      }
    }
  });
  sim_.Run();
}

TEST_P(EnginePropertyTest, UpdatesNeverLoseRows) {
  engine::Node node(&sim_, "pg", sim::DefaultCostModel());
  Rng rng(Seed(GetParam()) * 97 + 3);
  sim_.Spawn("test", [&] {
    auto s = node.OpenSession();
    ASSERT_TRUE(
        s->Execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").ok());
    int n = 100;
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(
          s->Execute(StrFormat("INSERT INTO t VALUES (%d, 0)", i)).ok());
    }
    int64_t expected_sum = 0;
    for (int op = 0; op < 200; op++) {
      int64_t k = rng.Uniform(0, n - 1);
      int64_t delta = rng.Uniform(-5, 5);
      auto r = s->Execute(StrFormat(
          "UPDATE t SET v = v + %lld WHERE k = %lld",
          static_cast<long long>(delta), static_cast<long long>(k)));
      ASSERT_TRUE(r.ok());
      expected_sum += delta;
    }
    auto sum = s->Execute("SELECT sum(v), count(*) FROM t");
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum->rows[0][0].int_value(), expected_sum);
    EXPECT_EQ(sum->rows[0][1].int_value(), n);
  });
  sim_.Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest, ::testing::Range(0, 6));

// ---- distributed equivalence: Citus must return what a single node does ----

class DistributedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedEquivalenceTest, RandomQueriesMatchSingleNode) {
  Rng data_rng(Seed(GetParam()) * 1013 + 5);
  auto rows = GenerateRows(data_rng, 300);
  std::vector<std::string> queries;
  {
    Rng qrng(Seed(GetParam()) * 7 + 1);
    for (int i = 0; i < 8; i++) {
      int64_t g = qrng.Uniform(0, 7);
      int64_t lim = qrng.Uniform(1, 20);
      switch (qrng.Uniform(0, 4)) {
        case 0:
          queries.push_back(StrFormat(
              "SELECT count(*), sum(val), avg(val) FROM t WHERE grp = %lld",
              static_cast<long long>(g)));
          break;
        case 1:
          queries.push_back(StrFormat(
              "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp"));
          break;
        case 2:
          queries.push_back(StrFormat(
              "SELECT k, val FROM t WHERE grp = %lld ORDER BY val DESC, k "
              "LIMIT %lld",
              static_cast<long long>(g), static_cast<long long>(lim)));
          break;
        case 3:
          queries.push_back(StrFormat(
              "SELECT tag, max(val), min(k) FROM t WHERE k < 200 GROUP BY tag "
              "ORDER BY 1"));
          break;
        default:
          queries.push_back(StrFormat(
              "SELECT count(DISTINCT tag) FROM t WHERE k = %lld",
              static_cast<long long>(qrng.Uniform(0, 299))));
      }
    }
  }
  auto run_all = [&](int workers, bool use_citus) {
    std::vector<std::string> reprs;
    sim::Simulation sim;
    citus::DeploymentOptions options;
    options.num_workers = workers;
    options.install_citus = use_citus;
    citus::Deployment deploy(&sim, options);
    sim.Spawn("t", [&] {
      auto conn = deploy.Connect();
      ASSERT_TRUE(conn.ok());
      ASSERT_TRUE((*conn)
                      ->Query("CREATE TABLE t (k bigint PRIMARY KEY, grp "
                              "bigint, val double precision, tag text)")
                      .ok());
      if (use_citus) {
        ASSERT_TRUE(
            (*conn)->Query("SELECT create_distributed_table('t', 'k')").ok());
      }
      ASSERT_TRUE(LoadRows(**conn, rows).ok());
      for (const auto& q : queries) {
        auto r = (*conn)->Query(q);
        ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
        std::string repr;
        for (const auto& row : r->rows) {
          for (const auto& d : row) {
            repr += d.type() == sql::TypeId::kFloat8
                        ? StrFormat("%.3f|", d.float_value())
                        : d.ToText() + "|";
          }
          repr += "\n";
        }
        reprs.push_back(repr);
      }
    });
    sim.Run();
    sim.Shutdown();
    return reprs;
  };
  auto plain = run_all(0, false);
  auto distributed = run_all(3, true);
  ASSERT_EQ(plain.size(), queries.size());
  ASSERT_EQ(distributed.size(), queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    EXPECT_EQ(plain[i], distributed[i]) << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedEquivalenceTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace citusx
