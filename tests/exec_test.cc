// Engine-level tests of the vectorized morsel-driven executor (src/exec):
// result parity with the volcano oracle on columnar and heap tables,
// min/max stripe pruning I/O savings, multi-core morsel speedup in virtual
// time, and clean fallback for unsupported plan shapes.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/str.h"
#include "engine/node.h"
#include "engine/session.h"
#include "exec/vectorized.h"
#include "result_compare.h"
#include "sim/simulation.h"

namespace citusx::exec {
namespace {

using engine::QueryResult;
using engine::Session;

std::string RowsToString(const std::vector<sql::Row>& rows, size_t limit = 5) {
  std::string out;
  for (size_t i = 0; i < rows.size() && i < limit; i++) {
    out += "[";
    for (const auto& d : rows[i]) out += d.ToText() + ",";
    out += "] ";
  }
  return out + StrFormat("(%zu rows)", rows.size());
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : node_(&sim_, "pg1", sim::DefaultCostModel()) {
    InstallVectorizedExecutor(&node_);
  }

  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
    sim_.Shutdown();
  }

  QueryResult MustExec(Session& s, const std::string& sql) {
    auto r = s.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Run `sql` through the volcano oracle and the vectorized executor and
  /// require equivalent results. Returns the vectorized result.
  QueryResult Diff(Session& s, const std::string& sql) {
    MustExec(s, "SET citus.use_vectorized_executor = 'off'");
    QueryResult oracle = MustExec(s, sql);
    MustExec(s, "SET citus.use_vectorized_executor = 'on'");
    QueryResult vec = MustExec(s, sql);
    EXPECT_TRUE(test::RowsClose(oracle.rows, vec.rows))
        << sql << "\n  volcano:    " << RowsToString(oracle.rows)
        << "\n  vectorized: " << RowsToString(vec.rows);
    return vec;
  }

  /// Populate `name`: n rows of (a sequential, b = a % 97 with NULLs every
  /// 13th row, c float with NULLs every 11th row, g small group key).
  void FillTable(Session& s, const std::string& name, int n, bool columnar) {
    MustExec(s, StrFormat("CREATE TABLE %s (a bigint, b bigint, c double "
                          "precision, g bigint) USING %s",
                          name.c_str(), columnar ? "columnar" : "heap"));
    for (int base = 0; base < n; base += 500) {
      std::string values;
      for (int i = base; i < std::min(n, base + 500); i++) {
        if (!values.empty()) values += ",";
        std::string b = i % 13 == 0 ? "NULL" : std::to_string(i % 97);
        std::string c =
            i % 11 == 0 ? "NULL" : StrFormat("%d.%d", i % 31, i % 10);
        values += StrFormat("(%d, %s, %s, %d)", i, b.c_str(), c.c_str(), i % 7);
      }
      MustExec(s, StrFormat("INSERT INTO %s VALUES %s", name.c_str(),
                            values.c_str()));
    }
  }

  void RunDiffSuite(Session& s, const std::string& t) {
    // Filter + projection.
    Diff(s, StrFormat("SELECT a, b * 2, c FROM %s WHERE b %% 3 = 0 AND "
                      "a > 100 ORDER BY a",
                      t.c_str()));
    // Ungrouped aggregates over columns with NULLs.
    Diff(s, StrFormat("SELECT count(*), count(b), sum(b), avg(c), min(b), "
                      "max(c) FROM %s",
                      t.c_str()));
    // Grouped aggregates.
    Diff(s, StrFormat("SELECT g, count(*), sum(b), avg(c) FROM %s "
                      "GROUP BY g ORDER BY g",
                      t.c_str()));
    // DISTINCT aggregate (exercises merge-time fold across morsels).
    Diff(s, StrFormat("SELECT count(DISTINCT b) FROM %s", t.c_str()));
    Diff(s, StrFormat("SELECT g, count(DISTINCT b) FROM %s GROUP BY g "
                      "ORDER BY g",
                      t.c_str()));
    // Sort + limit/offset.
    Diff(s, StrFormat("SELECT a, b FROM %s WHERE a < 400 ORDER BY b DESC, a "
                      "LIMIT 17 OFFSET 3",
                      t.c_str()));
    // DISTINCT.
    Diff(s, StrFormat("SELECT DISTINCT g FROM %s ORDER BY g", t.c_str()));
    // Expression-heavy projection (CASE).
    Diff(s, StrFormat("SELECT sum(CASE WHEN b > 50 THEN 1 ELSE 0 END) "
                      "FROM %s",
                      t.c_str()));
  }

  sim::Simulation sim_;
  engine::Node node_;
};

TEST_F(ExecTest, MatchesVolcanoOnColumnar) {
  RunSim([&] {
    auto s = node_.OpenSession();
    // > 2 sealed stripes (kStripeRows = 10000) plus a partial open stripe,
    // so morsels span sealed/open and visibility paths.
    FillTable(*s, "t", 25000, /*columnar=*/true);
    RunDiffSuite(*s, "t");
  });
}

TEST_F(ExecTest, MatchesVolcanoOnHeap) {
  RunSim([&] {
    auto s = node_.OpenSession();
    FillTable(*s, "t", 4000, /*columnar=*/false);
    RunDiffSuite(*s, "t");
  });
}

TEST_F(ExecTest, MatchesVolcanoOnJoins) {
  RunSim([&] {
    auto s = node_.OpenSession();
    FillTable(*s, "t", 6000, /*columnar=*/true);
    MustExec(*s, "CREATE TABLE u (k bigint, v text)");
    // Key 6 is absent so LEFT JOIN produces NULL padding.
    MustExec(*s, "INSERT INTO u VALUES (0,'zero'), (1,'one'), (2,'two'), "
                 "(3,'three'), (4,'four'), (5,'five')");
    Diff(*s, "SELECT t.a, u.v FROM t JOIN u ON t.g = u.k "
             "WHERE t.a < 500 ORDER BY t.a");
    Diff(*s, "SELECT t.a, u.v FROM t LEFT JOIN u ON t.g = u.k "
             "WHERE t.a < 500 ORDER BY t.a");
    Diff(*s, "SELECT u.v, count(*), sum(t.b) FROM t JOIN u ON t.g = u.k "
             "GROUP BY u.v ORDER BY u.v");
    // Join with residual predicate.
    Diff(*s, "SELECT t.a FROM t JOIN u ON t.g = u.k AND t.b > 10 "
             "WHERE t.a < 300 ORDER BY t.a");
  });
}

// jsonb columns keep Datums and timestamp columns int64s; kernels over them
// (JSON operators, timestamp against date, casts of extracted text) and
// GROUP BY / DISTINCT keys over them match volcano on both storages.
TEST_F(ExecTest, MatchesVolcanoOnJsonbAndTimestamp) {
  RunSim([&] {
    auto s = node_.OpenSession();
    for (const char* am : {"columnar", "heap"}) {
      std::string t = std::string("j_") + am;
      MustExec(*s, StrFormat("CREATE TABLE %s (a bigint, ts timestamp, "
                             "doc jsonb) USING %s",
                             t.c_str(), am));
      std::string values;
      for (int i = 0; i < 3000; i++) {
        if (!values.empty()) values += ",";
        std::string doc =
            i % 9 == 0 ? "NULL"
                       : StrFormat("'{\"k\": \"v%d\", \"n\": %d}'", i % 6,
                                   i % 13);
        values += StrFormat("(%d, '2020-01-%02d %02d:30:00', %s)", i,
                            1 + i % 28, i % 24, doc.c_str());
      }
      MustExec(*s, StrFormat("INSERT INTO %s VALUES %s", t.c_str(),
                             values.c_str()));
      EXPECT_EQ(Diff(*s, StrFormat("SELECT a, doc->>'k' FROM %s WHERE "
                                   "doc->>'k' ILIKE '%%3%%' AND a < 400 "
                                   "ORDER BY a",
                                   t.c_str()))
                    .rows.size(),
                45u);
      // Six keys and the NULL group.
      EXPECT_EQ(Diff(*s, StrFormat("SELECT doc->>'k', count(*), min(ts), "
                                   "max(ts) FROM %s GROUP BY doc->>'k' "
                                   "ORDER BY 1",
                                   t.c_str()))
                    .rows.size(),
                7u);
      Diff(*s, StrFormat("SELECT count(*) FROM %s WHERE ts >= "
                         "DATE '2020-01-10' AND ts < "
                         "'2020-01-20 12:00:00'::timestamp",
                         t.c_str()));
      Diff(*s, StrFormat("SELECT count(DISTINCT doc), count(doc) FROM %s",
                         t.c_str()));
      Diff(*s, StrFormat("SELECT a FROM %s WHERE (doc->>'n')::bigint %% 5 = 1 "
                         "AND a < 600 ORDER BY a",
                         t.c_str()));
    }
  });
}

TEST_F(ExecTest, EmptyAndEdgeCases) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE e (a bigint, b double precision) "
                 "USING columnar");
    // Aggregate over an empty table: one row, count 0, NULL sum.
    QueryResult r = Diff(*s, "SELECT count(*), sum(a), avg(b) FROM e");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    EXPECT_TRUE(r.rows[0][1].is_null());
    Diff(*s, "SELECT a FROM e ORDER BY a");
    Diff(*s, "SELECT a, count(*) FROM e GROUP BY a ORDER BY a");
    // All-NULL column.
    MustExec(*s, "INSERT INTO e VALUES (1, NULL), (2, NULL)");
    Diff(*s, "SELECT sum(b), min(b), count(b) FROM e");
    // NULL join keys never match (and LEFT JOIN pads them).
    MustExec(*s, "CREATE TABLE j1 (k bigint, v bigint)");
    MustExec(*s, "CREATE TABLE j2 (k bigint, w bigint)");
    MustExec(*s, "INSERT INTO j1 VALUES (1, 10), (NULL, 20), (2, 30)");
    MustExec(*s, "INSERT INTO j2 VALUES (1, 100), (NULL, 200), (3, 300)");
    Diff(*s, "SELECT j1.v, j2.w FROM j1 JOIN j2 ON j1.k = j2.k ORDER BY j1.v");
    Diff(*s, "SELECT j1.v, j2.w FROM j1 LEFT JOIN j2 ON j1.k = j2.k "
             "ORDER BY j1.v");
  });
}

TEST_F(ExecTest, FallsBackOnUnsupportedPlans) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE pk (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s, "INSERT INTO pk VALUES (1, 10), (2, 20), (3, 30)");
    // Primary-key equality plans an index scan, which the vectorized
    // executor declines; the query must still answer via volcano.
    QueryResult r = MustExec(*s, "SELECT v FROM pk WHERE k = 2");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 20);
    // FOR UPDATE requires row locking: also a fallback.
    r = MustExec(*s, "SELECT v FROM pk WHERE v > 15 ORDER BY v FOR UPDATE");
    ASSERT_EQ(r.rows.size(), 2u);
  });
}

TEST_F(ExecTest, MorselParallelismSpeedsUpAggregates) {
  RunSim([&] {
    auto s = node_.OpenSession();
    FillTable(*s, "big", 60000, /*columnar=*/true);
    const char* q =
        "SELECT g, count(*), sum(b) FROM big WHERE b > 5 GROUP BY g "
        "ORDER BY g";
    MustExec(*s, "SET citus.use_vectorized_executor = 'off'");
    sim::Time t0 = sim_.now();
    QueryResult oracle = MustExec(*s, q);
    sim::Time volcano_ns = sim_.now() - t0;
    MustExec(*s, "SET citus.use_vectorized_executor = 'on'");
    t0 = sim_.now();
    QueryResult vec = MustExec(*s, q);
    sim::Time vec_ns = sim_.now() - t0;
    EXPECT_TRUE(test::RowsClose(oracle.rows, vec.rows));
    // Batched costs plus 16-core morsel parallelism: >= 10x in virtual time
    // (this also proves the vectorized path actually ran).
    EXPECT_GE(volcano_ns, 10 * vec_ns)
        << "volcano " << volcano_ns << "ns vs vectorized " << vec_ns << "ns";
  });
}

TEST_F(ExecTest, StripePruningSkipsColdIo) {
  RunSim([&] {
    auto s = node_.OpenSession();
    // `a` is inserted in order, so sealed stripes have disjoint [min,max]
    // ranges and a selective predicate prunes all but the first.
    FillTable(*s, "t", 40000, /*columnar=*/true);
    obs::Counter* hits = node_.metrics().counter("bufferpool.hits");
    obs::Counter* misses = node_.metrics().counter("bufferpool.misses");
    // Measure the vectorized run alone: Diff's volcano oracle pass would
    // drown the signal, since volcano never prunes.
    MustExec(*s, "SET citus.use_vectorized_executor = 'on'");
    auto pages_touched = [&](const std::string& sql) {
      int64_t before = hits->value() + misses->value();
      QueryResult r = MustExec(*s, sql);
      EXPECT_FALSE(r.rows.empty());
      return hits->value() + misses->value() - before;
    };
    int64_t full = pages_touched("SELECT count(*), sum(b) FROM t");
    int64_t pruned = pages_touched(
        "SELECT count(*), sum(b) FROM t WHERE a < 100");
    // The pruned scan must touch strictly fewer pages — stripes whose
    // [min,max] on `a` excludes the predicate are skipped without I/O,
    // even though the pruned query reads one more column (a) than the full
    // one.
    EXPECT_LT(pruned, full)
        << "pruned=" << pruned << " pages, full=" << full << " pages";
    // And pruning must not change answers on a boundary-straddling range.
    Diff(*s, "SELECT count(*), sum(b) FROM t WHERE a >= 9995 AND a < 10005");
    Diff(*s, "SELECT count(*) FROM t WHERE a = 10000");
    Diff(*s, "SELECT count(*) FROM t WHERE a > 39990");
    Diff(*s, "SELECT count(*) FROM t WHERE a < 0");
  });
}

TEST_F(ExecTest, SnapshotIsolationAcrossStripes) {
  RunSim([&] {
    auto s1 = node_.OpenSession();
    auto s2 = node_.OpenSession();
    MustExec(*s1, "CREATE TABLE t (a bigint) USING columnar");
    MustExec(*s1, "INSERT INTO t VALUES (1), (2), (3)");
    // Uncommitted insert from another session must stay invisible.
    MustExec(*s2, "BEGIN");
    MustExec(*s2, "INSERT INTO t VALUES (100)");
    QueryResult r = Diff(*s1, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 3);
    MustExec(*s2, "COMMIT");
    r = Diff(*s1, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 4);
  });
}

// A scan holds its stripes' columns across the yields inside a morsel:
// another session's COPY seals the open stripe and appends new stripes
// while both executors are mid-scan, and each scan still returns the rows
// its snapshot saw. (Under ASan, a view into a moved or freed stripe
// fails here.)
TEST_F(ExecTest, ScanSurvivesConcurrentCopyIntoSameTable) {
  sim_.Spawn("setup", [&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (a bigint, b text) USING columnar");
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 4000; i++) {
      rows.push_back({std::to_string(i), "row" + std::to_string(i % 17)});
    }
    ASSERT_TRUE(s->CopyIn("t", {}, rows).ok());  // one open stripe
    bool copying = true;
    int scans = 0;
    sim_.Spawn("copier", [&] {
      auto w = node_.OpenSession();
      for (int batch = 0; batch < 6; batch++) {
        std::vector<std::vector<std::string>> more;
        for (int i = 0; i < 3000; i++) {
          more.push_back({std::to_string(100000 + batch * 3000 + i), "new"});
        }
        EXPECT_TRUE(w->CopyIn("t", {}, more).ok());
      }
      copying = false;
    });
    // Scans start before the copier's first batch commits, so each one
    // sees the first 4000 rows at least, and never a torn stripe.
    auto r = node_.OpenSession();
    while (copying || scans < 2) {
      for (const char* vectorize : {"on", "off"}) {
        MustExec(*r, StrFormat("SET citus.use_vectorized_executor = '%s'",
                               vectorize));
        QueryResult q = MustExec(
            *r, "SELECT count(*), sum(a) FROM t WHERE b <> 'x' AND a >= 0");
        ASSERT_EQ(q.rows.size(), 1u);
        int64_t n = q.rows[0][0].int_value();
        EXPECT_GE(n, 4000);
        EXPECT_EQ((n - 4000) % 3000, 0) << "scan saw a partial COPY batch";
      }
      scans++;
    }
    QueryResult all = Diff(*r, "SELECT count(*), count(DISTINCT b) FROM t");
    EXPECT_EQ(all.rows[0][0].int_value(), 4000 + 6 * 3000);
  });
  sim_.Run();
  sim_.Shutdown();
}

}  // namespace
}  // namespace citusx::exec
