// Seeded deparse/replan property harness for repartition joins and CTE
// inlining (the CI `property-tests` job): random multi-way join / CTE /
// subquery queries over deliberately NON-co-located distributed tables are
//   1. round-tripped through the deparser (parse -> deparse -> re-parse ->
//      deparse must reach a fixpoint — the same property the planner relies
//      on when it deparses worker fragments and temp-table DDL),
//   2. EXPLAINed: EXPLAIN dispatches nothing, moves no CTE or repartition
//      counter, and names one stage per CTE the execution then
//      materializes and per table it moves, and
//   3. executed on a 4-worker Citus deployment AND a single-node volcano
//      oracle loaded with identical data, diffing row multisets.
//
// Environment knobs (the CI job sets them; defaults replay locally):
//   CITUSX_PROPERTY_SEED       generator seed        (default 20260810)
//   CITUSX_PROPERTY_ROUNDS     generated queries     (default 40)
//   CITUSX_PROPERTY_REPRO_DIR  on failure, write <dir>/joins_property_repro.txt
//                              with the seed, the SQL, and both plans'
//                              EXPLAIN output (uploaded as a CI artifact)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "citus/deploy.h"
#include "citus/planner.h"
#include "common/rng.h"
#include "common/str.h"
#include "engine/node.h"
#include "engine/session.h"
#include "property_env.h"
#include "result_compare.h"
#include "sim/simulation.h"
#include "sql/deparser.h"
#include "sql/parser.h"

namespace citusx {
namespace {

using engine::QueryResult;

std::string ResultText(const Result<QueryResult>& r) {
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out;
  for (const auto& row : r->rows) {
    for (size_t i = 0; i < row.size(); i++) {
      if (i > 0) out += " | ";
      out += row[i].is_null() ? "NULL" : row[i].ToText();
    }
    out += "\n";
  }
  return out;
}

// Random join/CTE/subquery queries over the fixed non-co-located schema:
//   ta(a bigint, g bigint, va bigint)   distributed on a   (anchor-sized)
//   tb(b bigint, g bigint, vb bigint)   distributed on b, colocate none
//   tc(k bigint, g bigint, vc bigint)   distributed on k, colocate none
//   rf(r bigint, nm text)               reference
// g is a nullable low-cardinality group/join column; every table's
// distribution key lives in the same value range so dist-col equijoins
// actually match rows.
class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  // `may_refuse` is set for shapes the planner may refuse (NotSupported)
  // instead of answering; a refusal is never a wrong answer.
  std::string Query(bool* may_refuse) {
    *may_refuse = false;
    switch (rng_->Uniform(0, 6)) {
      case 0: return Join();
      case 1: return CteOverJoin();
      case 2: return MultiCte();
      case 3: return SubqueryPullup();
      case 4: return RepartitionOnNullableKey();
      case 5: return MergeStepUnderJoin(may_refuse);
      default: return ThreeWay();
    }
  }

 private:
  std::string Filter(const std::string& col) {
    return StrFormat("%s %s %lld", col.c_str(),
                     rng_->Chance(0.5) ? "<" : ">=",
                     static_cast<long long>(rng_->Uniform(0, 900)));
  }

  const char* Hint() {
    switch (rng_->Uniform(0, 2)) {
      case 0: return "";
      case 1: return "MATERIALIZED ";
      default: return "NOT MATERIALIZED ";
    }
  }

  // Non-co-located dist-col equijoin: tb repartitions (or broadcasts)
  // against ta.
  std::string Join() {
    const char* join = rng_->Chance(0.3) ? "LEFT JOIN" : "JOIN";
    if (rng_->Chance(0.5)) {
      return StrFormat(
          "SELECT ta.g, count(*), sum(tb.vb) FROM ta %s tb ON tb.b = ta.a "
          "WHERE %s GROUP BY ta.g ORDER BY ta.g",
          join, Filter("ta.a").c_str());
    }
    return StrFormat(
        "SELECT ta.a, ta.va, tb.vb FROM ta %s tb ON tb.b = ta.a WHERE %s",
        join, Filter("ta.va").c_str());
  }

  // The moved side joins through its nullable g column: NULL keys must
  // land exactly once and never match.
  std::string RepartitionOnNullableKey() {
    const char* join = rng_->Chance(0.3) ? "LEFT JOIN" : "JOIN";
    return StrFormat(
        "SELECT count(*), sum(ta.va), sum(tb.vb) FROM ta %s tb "
        "ON tb.g = ta.a WHERE %s",
        join, Filter("ta.a").c_str());
  }

  // Three distributed tables, none co-located, plus the reference table.
  std::string ThreeWay() {
    return StrFormat(
        "SELECT rf.nm, count(*), sum(tc.vc) FROM ta JOIN tb ON tb.b = ta.a "
        "JOIN tc ON tc.g = tb.g JOIN rf ON rf.r = ta.g "
        "WHERE %s GROUP BY rf.nm ORDER BY rf.nm",
        Filter("ta.a").c_str());
  }

  std::string CteOverJoin() {
    return StrFormat(
        "WITH j AS %s(SELECT ta.g AS g, tb.vb AS vb FROM ta JOIN tb "
        "ON tb.b = ta.a WHERE %s) "
        "SELECT g, count(*), sum(vb) FROM j GROUP BY g ORDER BY g",
        Hint(), Filter("ta.va").c_str());
  }

  // Two CTEs; the second references the first, the outer query joins the
  // second against a distributed table (materialized CTEs become pruned
  // broadcast intermediate results).
  std::string MultiCte() {
    return StrFormat(
        "WITH keys AS %s(SELECT a, g FROM ta WHERE %s), "
        "agg AS %s(SELECT g, count(*) AS n FROM keys GROUP BY g) "
        "SELECT agg.g, agg.n, count(*) FROM agg JOIN tc ON tc.g = agg.g "
        "GROUP BY agg.g, agg.n ORDER BY agg.g, agg.n",
        Hint(), Filter("a").c_str(), Hint());
  }

  // A CTE or FROM subquery that needs a merge step (GROUP BY a
  // non-distribution column, or LIMIT) joined to the reference table with
  // JOIN syntax: it must never run per shard. The CTE plans, materialized
  // when inlining cannot be distributed; the plain subquery may be refused.
  std::string MergeStepUnderJoin(bool* may_refuse) {
    std::string body =
        rng_->Chance(0.5)
            ? StrFormat("SELECT g, count(*) AS n FROM ta WHERE %s GROUP BY g",
                        Filter("a").c_str())
            : StrFormat("SELECT g, va AS n FROM ta WHERE %s ORDER BY a "
                        "LIMIT %lld",
                        Filter("va").c_str(),
                        static_cast<long long>(rng_->Uniform(1, 40)));
    const char* outer =
        "SELECT rf.nm, count(*), sum(s.n) FROM rf JOIN %s s ON rf.r = s.g "
        "GROUP BY rf.nm ORDER BY rf.nm";
    if (rng_->Chance(0.25)) {
      *may_refuse = true;
      return StrFormat(outer, ("(" + body + ")").c_str());
    }
    return StrFormat("WITH s AS %s(%s) ", Hint(), body.c_str()) +
           StrFormat(outer, "s");
  }

  std::string SubqueryPullup() {
    return StrFormat(
        "SELECT x.g, count(*), sum(tb.vb) FROM (SELECT * FROM ta) x "
        "JOIN tb ON tb.b = x.a WHERE %s GROUP BY x.g ORDER BY x.g",
        Filter("x.va").c_str());
  }

  Rng* rng_;
};

TEST(JoinsPropertyTest, DeparseReplanMatchesVolcanoOracle) {
  const uint64_t seed =
      static_cast<uint64_t>(test::EnvInt("CITUSX_PROPERTY_SEED", 20260810));
  const int rounds = static_cast<int>(test::EnvInt("CITUSX_PROPERTY_ROUNDS", 40));
  const char* repro_env = std::getenv("CITUSX_PROPERTY_REPRO_DIR");
  const std::string repro_dir = repro_env == nullptr ? "" : repro_env;

  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 4;
  auto deploy = std::make_unique<citus::Deployment>(&sim, options);
  engine::Node oracle(&sim, "oracle", sim::DefaultCostModel());

  sim.Spawn("test", [&] {
    auto conn_r = deploy->Connect();
    ASSERT_TRUE(conn_r.ok());
    net::Connection& conn = **conn_r;
    auto osession = oracle.OpenSession();

    // Apply `sql` to both sides.
    auto both = [&](const std::string& sql) {
      auto d = conn.Query(sql);
      ASSERT_TRUE(d.ok()) << sql << ": " << d.status().ToString();
      auto o = osession->Execute(sql);
      ASSERT_TRUE(o.ok()) << sql << ": " << o.status().ToString();
    };
    auto dist_only = [&](const std::string& sql) {
      auto d = conn.Query(sql);
      ASSERT_TRUE(d.ok()) << sql << ": " << d.status().ToString();
    };
    both("CREATE TABLE ta (a bigint, g bigint, va bigint)");
    both("CREATE TABLE tb (b bigint, g bigint, vb bigint)");
    both("CREATE TABLE tc (k bigint, g bigint, vc bigint)");
    both("CREATE TABLE rf (r bigint, nm text)");
    dist_only("SELECT create_distributed_table('ta', 'a')");
    dist_only(
        "SELECT create_distributed_table('tb', 'b', colocate_with := 'none')");
    dist_only(
        "SELECT create_distributed_table('tc', 'k', colocate_with := 'none')");
    dist_only("SELECT create_reference_table('rf')");

    // Seeded load, identical on both sides. Keys share the [0, 1500) range
    // so dist-col equijoins match; g is nullable and low-cardinality.
    Rng load_rng(seed ^ 0x9e3779b97f4a7c15ull);
    auto load = [&](const char* table, int rows, const char* maker) {
      (void)maker;
      for (int base = 0; base < rows; base += 250) {
        std::string values;
        for (int i = base; i < std::min(rows, base + 250); i++) {
          if (!values.empty()) values += ", ";
          std::string g = load_rng.Chance(0.12)
                              ? "NULL"
                              : std::to_string(load_rng.Uniform(0, 12));
          values += StrFormat("(%d, %s, %lld)", i, g.c_str(),
                              static_cast<long long>(load_rng.Uniform(0, 100)));
        }
        both(StrFormat("INSERT INTO %s VALUES %s", table, values.c_str()));
      }
    };
    load("ta", 1500, "");
    load("tb", 1200, "");  // past the repartition threshold
    load("tc", 300, "");   // broadcast-sized
    {
      std::string values;
      for (int i = 0; i < 13; i++) {
        if (!values.empty()) values += ", ";
        values += StrFormat("(%d, 'name_%d')", i, i % 5);
      }
      both("INSERT INTO rf VALUES " + values);
    }

    citus::CitusExtension* ext = deploy->extension(deploy->coordinator());
    // The counters EXPLAIN must leave alone.
    auto counters = [&] {
      return std::vector<int64_t>{ext->metric_tasks->value(),
                                  ext->metric_cte_inlined->value(),
                                  ext->metric_cte_materialized->value(),
                                  ext->metric_repartition_moves->value(),
                                  ext->metric_repartition_shuffled_bytes
                                      ->value()};
    };
    int64_t join_order_before = ext->metric_join_order->value();
    int64_t inlined_before = ext->metric_cte_inlined->value();
    int64_t materialized_before = ext->metric_cte_materialized->value();

    auto write_repro = [&](const std::string& sql, const std::string& why) {
      if (repro_dir.empty()) return;
      std::ofstream f(repro_dir + "/joins_property_repro.txt",
                      std::ios::app);
      f << "== seed ==\n" << seed << "\n== failure ==\n" << why
        << "\n== sql ==\n" << sql << "\n";
      f << "== distributed EXPLAIN ==\n"
        << ResultText(conn.Query("EXPLAIN " + sql));
      f << "== oracle EXPLAIN ==\n"
        << ResultText(osession->Execute("EXPLAIN " + sql)) << "\n";
    };

    Rng rng(seed);
    QueryGen gen(&rng);
    for (int round = 0; round < rounds; round++) {
      bool may_refuse = false;
      const std::string sql = gen.Query(&may_refuse);

      // Property 1: deparse fixpoint. The planner re-parses its own
      // deparsed fragments, so deparse(parse(deparse(parse(q)))) must be
      // stable text.
      auto ast1 = sql::Parse(sql);
      ASSERT_TRUE(ast1.ok()) << sql << ": " << ast1.status().ToString();
      std::string d1 = sql::DeparseStatement(*ast1);
      auto ast2 = sql::Parse(d1);
      if (!ast2.ok()) write_repro(sql, "deparsed SQL failed to re-parse");
      ASSERT_TRUE(ast2.ok())
          << "round " << round << " seed " << seed << "\n  " << sql
          << "\n  deparsed: " << d1 << "\n  " << ast2.status().ToString();
      std::string d2 = sql::DeparseStatement(*ast2);
      if (d1 != d2) write_repro(sql, "deparse did not reach a fixpoint");
      ASSERT_EQ(d1, d2) << "round " << round << " seed " << seed;

      // Property 2: EXPLAIN plans what executes, and runs none of it.
      std::vector<int64_t> before = counters();
      auto explain = conn.Query("EXPLAIN " + d1);
      std::vector<int64_t> explained = counters();
      EXPECT_EQ(explained, before)
          << "round " << round << " seed " << seed
          << ": EXPLAIN dispatched or counted\n  " << d1;

      // Property 3: the re-deparsed text executes identically on the
      // distributed deployment and the single-node volcano oracle.
      auto dist = conn.Query(d1);
      auto orac = osession->Execute(d1);
      ASSERT_TRUE(orac.ok())
          << "round " << round << " seed " << seed << "\n  " << d1 << "\n  "
          << orac.status().ToString();
      if (may_refuse && !dist.ok() && dist.status().IsNotSupported()) {
        EXPECT_FALSE(explain.ok())
            << "round " << round << " seed " << seed
            << ": EXPLAIN planned what execution refused\n  " << d1;
        continue;
      }
      if (!explain.ok()) write_repro(sql, explain.status().ToString());
      ASSERT_TRUE(explain.ok())
          << "round " << round << " seed " << seed << "\n  " << d1 << "\n  "
          << explain.status().ToString();
      if (!dist.ok()) write_repro(sql, dist.status().ToString());
      ASSERT_TRUE(dist.ok())
          << "round " << round << " seed " << seed << "\n  " << d1 << "\n  "
          << dist.status().ToString();
      std::vector<int64_t> executed = counters();
      int64_t stages = 0;
      for (const auto& row : explain->rows) {
        stages += row[0].text_value().find("Stage: ") != std::string::npos;
      }
      EXPECT_EQ(stages, (executed[2] - explained[2]) +
                            (executed[3] - explained[3]))
          << "round " << round << " seed " << seed
          << ": EXPLAIN's stages differ from the executed ones\n  " << d1
          << "\n" << ResultText(explain);
      if (!test::RowSetsClose(dist->rows, orac->rows)) {
        write_repro(sql, "distributed and oracle row sets diverge");
      }
      ASSERT_TRUE(test::RowSetsClose(dist->rows, orac->rows))
          << "round " << round << " seed " << seed << "\n  " << d1
          << "\n-- distributed --\n" << ResultText(dist)
          << "-- oracle --\n" << ResultText(orac);
    }

    // Anti-degeneracy: the generator must actually exercise the join-order
    // tier and both CTE paths, else the harness silently tests nothing.
    EXPECT_GE(ext->metric_join_order->value() - join_order_before,
              rounds / 4)
        << "generated queries stopped reaching the join-order tier";
    EXPECT_GT(ext->metric_cte_inlined->value(), inlined_before)
        << "no CTE was inlined across the run";
    EXPECT_GT(ext->metric_cte_materialized->value(), materialized_before)
        << "no CTE was materialized across the run";

    // Intermediate results never outlive their query.
    for (engine::Node* w : deploy->workers()) {
      for (engine::TableInfo* t : w->catalog().AllTables()) {
        EXPECT_EQ(t->name.find("citusx_"), std::string::npos)
            << "leaked intermediate result " << t->name;
      }
    }
  });
  sim.Run();
  sim.Shutdown();
}

}  // namespace
}  // namespace citusx
