// Seeded differential property test: generated filter/aggregate/join
// queries run through both the vectorized executor and the volcano oracle,
// diffing row sets. Covers NULL-heavy data, empty tables, heap and columnar
// storage, and morsel-boundary row counts. Any mismatch prints the seed and
// the offending SQL so failures replay deterministically.
//
// Environment knobs (property_env.h; the CI property job sets them):
//   CITUSX_PROPERTY_SEED    generator seed     (default 20260809)
//   CITUSX_PROPERTY_ROUNDS  generated queries  (default 40)
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str.h"
#include "engine/node.h"
#include "engine/session.h"
#include "exec/vectorized.h"
#include "property_env.h"
#include "result_compare.h"
#include "sim/simulation.h"

namespace citusx::exec {
namespace {

using engine::QueryResult;
using engine::Session;

/// Generates random single-table and two-table queries over a fixed schema:
/// tN(a bigint, b bigint, c double precision, g bigint), with NULLs mixed in.
class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  std::string Filter(const std::string& tbl) {
    auto col = [&] {
      const char* cols[] = {"a", "b", "c", "g"};
      return tbl.empty() ? std::string(cols[rng_->Uniform(0, 3)])
                         : tbl + "." + cols[rng_->Uniform(0, 3)];
    };
    auto cmp = [&] {
      const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
      return StrFormat("%s %s %lld", col().c_str(),
                       ops[rng_->Uniform(0, 5)],
                       static_cast<long long>(rng_->Uniform(-5, 120)));
    };
    std::string f = cmp();
    int extra = static_cast<int>(rng_->Uniform(0, 2));
    for (int i = 0; i < extra; i++) {
      f += rng_->Chance(0.7) ? " AND " : " OR ";
      f += rng_->Chance(0.8) ? cmp()
                             : StrFormat("%s IS NOT NULL", col().c_str());
    }
    return f;
  }

  std::string Agg() {
    switch (rng_->Uniform(0, 5)) {
      case 0: return "count(*)";
      case 1: return "sum(b)";
      case 2: return "avg(c)";
      case 3: return "min(a)";
      case 4: return "max(c)";
      default: return "count(DISTINCT g)";
    }
  }

  std::string SingleTable(const std::string& t) {
    switch (rng_->Uniform(0, 3)) {
      case 0:  // projection + filter, fully ordered
        return StrFormat("SELECT a, b, c, g FROM %s WHERE %s", t.c_str(),
                         Filter("").c_str());
      case 1:  // ungrouped aggregates
        return StrFormat("SELECT %s, %s FROM %s WHERE %s", Agg().c_str(),
                         Agg().c_str(), t.c_str(), Filter("").c_str());
      case 2:  // grouped aggregates
        return StrFormat("SELECT g, %s FROM %s WHERE %s GROUP BY g",
                         Agg().c_str(), t.c_str(), Filter("").c_str());
      default:  // sort + limit over a total order
        return StrFormat(
            "SELECT a, b FROM %s WHERE %s ORDER BY b, a LIMIT %lld",
            t.c_str(), Filter("").c_str(),
            static_cast<long long>(rng_->Uniform(1, 50)));
    }
  }

  std::string TwoTable(const std::string& t1, const std::string& t2) {
    const char* join = rng_->Chance(0.3) ? "LEFT JOIN" : "JOIN";
    std::string on = StrFormat("%s.g = %s.g", t1.c_str(), t2.c_str());
    if (rng_->Chance(0.5)) {
      return StrFormat("SELECT %s.a, %s.b FROM %s %s %s ON %s WHERE %s",
                       t1.c_str(), t2.c_str(), t1.c_str(), join, t2.c_str(),
                       on.c_str(), Filter(t1).c_str());
    }
    return StrFormat("SELECT %s.g, count(*), sum(%s.b) FROM %s %s %s ON %s "
                     "GROUP BY %s.g",
                     t1.c_str(), t2.c_str(), t1.c_str(), join, t2.c_str(),
                     on.c_str(), t1.c_str());
  }

 private:
  Rng* rng_;
};

TEST(ExecDiffTest, GeneratedQueriesMatchVolcano) {
  const uint64_t seed =
      static_cast<uint64_t>(test::EnvInt("CITUSX_PROPERTY_SEED", 20260809));
  const int rounds =
      static_cast<int>(test::EnvInt("CITUSX_PROPERTY_ROUNDS", 40));
  sim::Simulation sim;
  engine::Node node(&sim, "pg1", sim::DefaultCostModel());
  InstallVectorizedExecutor(&node);
  sim.Spawn("test", [&] {
    Rng rng(seed);
    auto s = node.OpenSession();
    auto must = [&](const std::string& sql) {
      auto r = s->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    // Table sizes hit the edge cases: empty (an empty shard), tiny,
    // one-morsel, and multi-stripe columnar.
    struct Spec { const char* name; int rows; bool columnar; };
    const Spec specs[] = {
        {"t0", 0, true},         // empty columnar
        {"t1", 7, false},        // tiny heap
        {"t2", 2500, true},      // open (unsealed) stripe only
        {"t3", 23000, true},     // sealed stripes + partial open stripe
    };
    for (const Spec& spec : specs) {
      must(StrFormat("CREATE TABLE %s (a bigint, b bigint, c double "
                     "precision, g bigint) USING %s",
                     spec.name, spec.columnar ? "columnar" : "heap"));
      for (int base = 0; base < spec.rows; base += 500) {
        std::string values;
        for (int i = base; i < std::min(spec.rows, base + 500); i++) {
          if (!values.empty()) values += ",";
          // ~15% NULLs per nullable column; values clustered so filters
          // and join keys actually select and match.
          std::string b = rng.Chance(0.15)
                              ? "NULL"
                              : std::to_string(rng.Uniform(0, 100));
          std::string c = rng.Chance(0.15)
                              ? "NULL"
                              : StrFormat("%lld.%lld",
                                          static_cast<long long>(
                                              rng.Uniform(-20, 20)),
                                          static_cast<long long>(
                                              rng.Uniform(0, 9)));
          std::string g = rng.Chance(0.1)
                              ? "NULL"
                              : std::to_string(rng.Uniform(0, 12));
          values += StrFormat("(%d, %s, %s, %s)", i, b.c_str(), c.c_str(),
                              g.c_str());
        }
        must(StrFormat("INSERT INTO %s VALUES %s", spec.name,
                       values.c_str()));
      }
    }

    QueryGen gen(&rng);
    int checked = 0;
    for (int round = 0; round < rounds; round++) {
      std::string sql;
      if (rng.Chance(0.3)) {
        const char* t1 = specs[rng.Uniform(0, 3)].name;
        const char* t2 = specs[rng.Uniform(0, 3)].name;
        if (std::string(t1) == t2) t2 = "t1";
        sql = gen.TwoTable(t1, t2);
      } else {
        sql = gen.SingleTable(specs[rng.Uniform(0, 3)].name);
      }
      ASSERT_TRUE(s->Execute("SET citus.use_vectorized_executor = 'off'").ok());
      auto oracle = s->Execute(sql);
      ASSERT_TRUE(s->Execute("SET citus.use_vectorized_executor = 'on'").ok());
      auto vec = s->Execute(sql);
      // Both executors must agree on errors too.
      ASSERT_EQ(oracle.ok(), vec.ok())
          << "seed " << seed << " round " << round << ": " << sql;
      if (!oracle.ok()) continue;
      // Generated queries avoid LIMIT without a total order, so multiset
      // equality is the right contract.
      EXPECT_TRUE(test::RowSetsClose(oracle->rows, vec->rows))
          << "seed " << seed << " round " << round << ": " << sql
          << "\n  volcano rows: " << oracle->rows.size()
          << "\n  vectorized rows: " << vec->rows.size();
      checked++;
    }
    // The generator must not degenerate into all-error queries.
    EXPECT_GE(checked, rounds / 2);
  });
  sim.Run();
  sim.Shutdown();
}

// A join key that appears only in ON must survive the columnar scans'
// projection: both executors, inner and LEFT, return the heap tables' rows.
TEST(ExecDiffTest, ColumnarJoinKeyOnlyInOnMatchesHeap) {
  sim::Simulation sim;
  engine::Node node(&sim, "pg1", sim::DefaultCostModel());
  InstallVectorizedExecutor(&node);
  sim.Spawn("test", [&] {
    auto s = node.OpenSession();
    auto must = [&](const std::string& sql) {
      auto r = s->Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      return r.ok() ? std::move(r).value() : QueryResult{};
    };
    for (const char* am : {"heap", "columnar"}) {
      must(StrFormat("CREATE TABLE a_%s (k bigint, x bigint) USING %s", am,
                     am));
      must(StrFormat("CREATE TABLE b_%s (k bigint, y bigint) USING %s", am,
                     am));
      must(StrFormat("INSERT INTO a_%s VALUES (1, 10), (2, 20), (3, 30)", am));
      must(StrFormat("INSERT INTO b_%s VALUES (1, 100), (3, 300), (3, 301)",
                     am));
    }
    for (const char* join : {"JOIN", "LEFT JOIN"}) {
      auto query = [&](const char* am) {
        return StrFormat("SELECT a.x, b.y FROM a_%s a %s b_%s b ON a.k = b.k",
                         am, join, am);
      };
      QueryResult heap = must(query("heap"));
      EXPECT_EQ(heap.rows.size(), std::string(join) == "JOIN" ? 3u : 4u);
      for (const char* vectorize : {"off", "on"}) {
        must(StrFormat("SET citus.use_vectorized_executor = '%s'", vectorize));
        QueryResult columnar = must(query("columnar"));
        EXPECT_TRUE(test::RowSetsClose(heap.rows, columnar.rows))
            << query("columnar") << " (vectorized " << vectorize << ")"
            << "\n  heap rows: " << heap.rows.size()
            << "\n  columnar rows: " << columnar.rows.size();
      }
    }
  });
  sim.Run();
  sim.Shutdown();
}

}  // namespace
}  // namespace citusx::exec
