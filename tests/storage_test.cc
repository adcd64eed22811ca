// Unit tests for the storage layer: buffer pool, MVCC heap, B-tree index,
// trigram GIN index, columnar store.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "sim/simulation.h"
#include "sql/eval.h"
#include "storage/buffer_pool.h"
#include "storage/columnar.h"
#include "storage/heap.h"
#include "storage/index.h"

namespace citusx::storage {
namespace {

using sql::Datum;

// A no-commit-tracking resolver for tests that don't exercise MVCC.
class FakeResolver : public TxnStatusResolver {
 public:
  std::set<TxnId> committed;
  std::set<TxnId> aborted;
  bool IsCommitted(TxnId xid) const override { return committed.count(xid) > 0; }
  bool IsAborted(TxnId xid) const override { return aborted.count(xid) > 0; }
};

class StorageTest : public ::testing::Test {
 protected:
  StorageTest()
      : disk_(&sim_, 7500, 8),
        pool_(&sim_, &disk_, /*capacity=*/64 * 8192, /*page=*/8192) {}

  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
  }

  void TearDown() override { sim_.Shutdown(); }

  sim::Simulation sim_;
  sim::DiskResource disk_;
  BufferPool pool_;
};

TEST_F(StorageTest, BufferPoolHitsAndMisses) {
  RunSim([&] {
    BlockId a{1, 0}, b{1, 1};
    EXPECT_TRUE(pool_.Access(a, false));
    EXPECT_EQ(pool_.misses(), 1);
    EXPECT_TRUE(pool_.Access(a, false));
    EXPECT_EQ(pool_.hits(), 1);
    EXPECT_TRUE(pool_.Access(b, true));
    EXPECT_EQ(pool_.misses(), 2);
    EXPECT_EQ(pool_.resident_pages(), 2);
  });
}

TEST_F(StorageTest, BufferPoolEvictsLru) {
  RunSim([&] {
    // Capacity is 64 pages; touch 100 distinct blocks.
    for (uint64_t i = 0; i < 100; i++) {
      pool_.Access(BlockId{2, i}, false);
    }
    EXPECT_LE(pool_.resident_pages(), 64);
    // Most recent blocks are resident (no new misses).
    int64_t misses = pool_.misses();
    pool_.Access(BlockId{2, 99}, false);
    EXPECT_EQ(pool_.misses(), misses);
    // The oldest block was evicted.
    pool_.Access(BlockId{2, 0}, false);
    EXPECT_EQ(pool_.misses(), misses + 1);
  });
}

TEST_F(StorageTest, BufferPoolForget) {
  RunSim([&] {
    pool_.Access(BlockId{3, 0}, false);
    pool_.Access(BlockId{4, 0}, false);
    pool_.Forget(3);
    EXPECT_EQ(pool_.resident_pages(), 1);
  });
}

TEST_F(StorageTest, HeapMvccVisibility) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"v", sql::TypeId::kInt8, false, false, ""});
    HeapTable heap(10, schema, &pool_);
    FakeResolver resolver;

    auto rid = heap.Insert({Datum::Int8(1)}, /*xmin=*/5);
    ASSERT_TRUE(rid.ok());

    Snapshot before;  // xmax=5: txn 5 not yet visible
    before.xmax = 5;
    EXPECT_EQ(heap.VisibleVersion(*rid, before, resolver), nullptr);

    Snapshot after;
    after.xmax = 10;
    EXPECT_EQ(heap.VisibleVersion(*rid, after, resolver), nullptr);  // not committed
    resolver.committed.insert(5);
    ASSERT_NE(heap.VisibleVersion(*rid, after, resolver), nullptr);

    // Own uncommitted writes are visible to self.
    Snapshot self;
    self.self = 5;
    self.xmax = 6;
    resolver.committed.erase(5);
    EXPECT_NE(heap.VisibleVersion(*rid, self, resolver), nullptr);
  });
}

TEST_F(StorageTest, HeapUpdateCreatesVersionChain) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"v", sql::TypeId::kInt8, false, false, ""});
    HeapTable heap(11, schema, &pool_);
    FakeResolver resolver;
    auto rid = heap.Insert({Datum::Int8(1)}, 5);
    resolver.committed.insert(5);
    ASSERT_TRUE(heap.UpdateRow(*rid, {Datum::Int8(2)}, 7, resolver).ok());

    Snapshot old_snap;  // sees only txn 5
    old_snap.xmax = 6;
    const TupleVersion* v = heap.VisibleVersion(*rid, old_snap, resolver);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->row[0].int_value(), 1);

    resolver.committed.insert(7);
    Snapshot new_snap;
    new_snap.xmax = 8;
    v = heap.VisibleVersion(*rid, new_snap, resolver);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->row[0].int_value(), 2);
    EXPECT_EQ(heap.dead_versions(), 1);
  });
}

// An UPDATE's new version shares the text it did not change with the old
// version: a copy of a row copies no long text.
TEST_F(StorageTest, HeapUpdateSharesUnchangedText) {
  RunSim([&] {
    sql::Schema schema;
    for (const char* name : {"a", "b", "c"}) {
      schema.columns.push_back(
          sql::ColumnDef{name, sql::TypeId::kText, false, false, ""});
    }
    HeapTable heap(13, schema, &pool_);
    FakeResolver resolver;
    auto rid = heap.Insert({Datum::Text(std::string(100, 'a')),
                            Datum::Text(std::string(100, 'b')),
                            Datum::Text(std::string(100, 'c'))},
                           5);
    ASSERT_TRUE(rid.ok());
    resolver.committed.insert(5);
    sql::Row new_row = heap.LatestVersion(*rid, resolver)->row;
    new_row[1] = Datum::Text(std::string(100, 'B'));
    ASSERT_TRUE(heap.UpdateRow(*rid, new_row, 7, resolver).ok());
    resolver.committed.insert(7);
    Snapshot old_snap;
    old_snap.xmax = 6;
    Snapshot new_snap;
    new_snap.xmax = 8;
    const TupleVersion* old_v = heap.VisibleVersion(*rid, old_snap, resolver);
    const TupleVersion* new_v = heap.VisibleVersion(*rid, new_snap, resolver);
    ASSERT_NE(old_v, nullptr);
    ASSERT_NE(new_v, nullptr);
    ASSERT_NE(old_v, new_v);
    EXPECT_EQ(new_v->row[0].text_value().data(),
              old_v->row[0].text_value().data());
    EXPECT_EQ(new_v->row[2].text_value().data(),
              old_v->row[2].text_value().data());
    EXPECT_EQ(old_v->row[1].text_value(), std::string(100, 'b'));
    EXPECT_EQ(new_v->row[1].text_value(), std::string(100, 'B'));
  });
}

TEST_F(StorageTest, HeapAbortedUpdateInvisible) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"v", sql::TypeId::kInt8, false, false, ""});
    HeapTable heap(12, schema, &pool_);
    FakeResolver resolver;
    auto rid = heap.Insert({Datum::Int8(1)}, 5);
    resolver.committed.insert(5);
    ASSERT_TRUE(heap.UpdateRow(*rid, {Datum::Int8(99)}, 7, resolver).ok());
    resolver.aborted.insert(7);
    Snapshot snap;
    snap.xmax = 10;
    const TupleVersion* v = heap.VisibleVersion(*rid, snap, resolver);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->row[0].int_value(), 1);  // aborted update ignored
    // Latest non-aborted version is the original (for the next updater).
    const TupleVersion* latest = heap.LatestVersion(*rid, resolver);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->row[0].int_value(), 1);
  });
}

TEST_F(StorageTest, HeapVacuumRespectsHorizon) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"v", sql::TypeId::kInt8, false, false, ""});
    HeapTable heap(13, schema, &pool_);
    FakeResolver resolver;
    auto rid = heap.Insert({Datum::Int8(1)}, 2);
    resolver.committed.insert(2);
    heap.UpdateRow(*rid, {Datum::Int8(2)}, 4, resolver).ok();
    resolver.committed.insert(4);
    // An old transaction (xid 3) may still need the old version.
    EXPECT_EQ(heap.Vacuum(/*oldest_active=*/3, resolver), 0);
    // Once the horizon passes, the superseded version is reclaimed.
    EXPECT_EQ(heap.Vacuum(/*oldest_active=*/10, resolver), 1);
    Snapshot snap;
    snap.xmax = 10;
    const TupleVersion* v = heap.VisibleVersion(*rid, snap, resolver);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->row[0].int_value(), 2);
  });
}

TEST_F(StorageTest, BtreeEqualAndPrefixAndRange) {
  RunSim([&] {
    BtreeIndex index(20, {0, 1}, false, &pool_);
    for (int a = 0; a < 5; a++) {
      for (int b = 0; b < 10; b++) {
        index.Insert({Datum::Int8(a), Datum::Int8(b)},
                     static_cast<RowId>(a * 10 + b));
      }
    }
    std::vector<RowId> out;
    index.EqualRange({Datum::Int8(3), Datum::Int8(7)}, &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 37u);
    out.clear();
    index.EqualRange({Datum::Int8(2)}, &out);  // prefix
    EXPECT_EQ(out.size(), 10u);
    out.clear();
    Datum lo = Datum::Int8(1), hi = Datum::Int8(2);
    index.Range(&lo, true, &hi, true, &out);
    EXPECT_EQ(out.size(), 20u);
    out.clear();
    index.Range(&lo, false, &hi, false, &out);  // exclusive: nothing between
    EXPECT_EQ(out.size(), 0u);
    // Remove one entry.
    index.Remove({Datum::Int8(3), Datum::Int8(7)}, 37);
    out.clear();
    index.EqualRange({Datum::Int8(3), Datum::Int8(7)}, &out);
    EXPECT_TRUE(out.empty());
  });
}

TEST_F(StorageTest, GinTrgmCandidatesAreSuperset) {
  RunSim([&] {
    GinTrgmIndex index(21, &pool_);
    std::vector<std::string> docs = {
        "PostgreSQL is a database", "citus scales postgres",
        "mysql is different",       "the postgresql planner",
        "nothing relevant here"};
    for (size_t i = 0; i < docs.size(); i++) {
      index.Insert(docs[i], static_cast<RowId>(i));
    }
    auto trigrams = GinTrgmIndex::PatternTrigrams("%postgres%");
    ASSERT_FALSE(trigrams.empty());
    std::vector<RowId> candidates;
    ASSERT_TRUE(index.Candidates(trigrams, &candidates));
    // Everything that truly matches must be among the candidates.
    for (size_t i = 0; i < docs.size(); i++) {
      if (sql::LikeMatch(docs[i], "%postgres%", true)) {
        EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                            static_cast<RowId>(i)),
                  candidates.end())
            << docs[i];
      }
    }
    // And a document with none of the trigrams is not a candidate.
    EXPECT_EQ(std::find(candidates.begin(), candidates.end(), RowId{4}),
              candidates.end());
  });
}

// Packed trigrams come out in the order, and with the bytes, of the sorted
// set of lowercased substrings they replace.
TEST_F(StorageTest, GinTrigramsPackInStringOrder) {
  auto unpack = [](Trigram t) {
    std::string s;
    for (uint32_t i = 0; i < (t >> 24); i++) {
      s.push_back(static_cast<char>((t >> (16 - 8 * i)) & 0xff));
    }
    return s;
  };
  for (std::string text : {std::string("Fix the PostgreSQL planner, postgres"),
                           std::string("\xe9t\xe9 ZZz"), std::string("aB"),
                           std::string("q"), std::string("")}) {
    std::set<std::string> want;
    std::string lower;
    for (char c : text) {
      lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
    }
    if (lower.size() < 3) {
      if (!lower.empty()) want.insert(lower);
    } else {
      for (size_t i = 0; i + 3 <= lower.size(); i++) {
        want.insert(lower.substr(i, 3));
      }
    }
    std::vector<std::string> got;
    for (Trigram t : GinTrgmIndex::ExtractTrigrams(text)) got.push_back(unpack(t));
    EXPECT_EQ(got, std::vector<std::string>(want.begin(), want.end())) << text;
  }
}

TEST_F(StorageTest, GinPatternTrigramsFromLiteralRuns) {
  auto t1 = GinTrgmIndex::PatternTrigrams("%postgres%");
  EXPECT_FALSE(t1.empty());
  auto t2 = GinTrgmIndex::PatternTrigrams("%ab%");  // too short
  EXPECT_TRUE(t2.empty());
  auto t3 = GinTrgmIndex::PatternTrigrams("abc%def");
  EXPECT_EQ(t3.size(), 2u);  // "abc", "def"
  auto t4 = GinTrgmIndex::PatternTrigrams("a_c");
  EXPECT_TRUE(t4.empty());
}

TEST_F(StorageTest, ColumnarProjectionReducesIo) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"a", sql::TypeId::kInt8, false, false, ""});
    schema.columns.push_back(sql::ColumnDef{"pad", sql::TypeId::kText, false, false, ""});
    ColumnarTable table(30, schema, &pool_);
    FakeResolver resolver;
    for (int i = 0; i < 25000; i++) {
      ASSERT_TRUE(table
                      .Insert({Datum::Int8(i), Datum::Text(std::string(200, 'x'))},
                              2)
                      .ok());
    }
    resolver.committed.insert(2);
    EXPECT_GE(table.num_stripes(), 2);
    Snapshot snap;
    snap.xmax = 10;
    // Evict everything, scan only column 0.
    pool_.Forget(30);
    int64_t misses0 = pool_.misses();
    int64_t count = 0;
    ASSERT_TRUE(table.Scan(snap, resolver, {0}, [&](const sql::Row& row) {
      count++;
      return true;
    }));
    int64_t narrow = pool_.misses() - misses0;
    EXPECT_EQ(count, 25000);
    pool_.Forget(30);
    int64_t misses1 = pool_.misses();
    ASSERT_TRUE(table.Scan(snap, resolver, {}, [&](const sql::Row& row) {
      return true;
    }));
    int64_t wide = pool_.misses() - misses1;
    EXPECT_LT(narrow * 5, wide);  // the pad column dominates I/O
  });
}

TEST_F(StorageTest, ColumnarStripeVisibility) {
  RunSim([&] {
    sql::Schema schema;
    schema.columns.push_back(sql::ColumnDef{"a", sql::TypeId::kInt8, false, false, ""});
    ColumnarTable table(31, schema, &pool_);
    FakeResolver resolver;
    ASSERT_TRUE(table.Insert({Datum::Int8(1)}, 5).ok());
    Snapshot snap;
    snap.xmax = 10;
    int64_t count = 0;
    table.Scan(snap, resolver, {}, [&](const sql::Row&) {
      count++;
      return true;
    });
    EXPECT_EQ(count, 0);  // txn 5 not committed
    resolver.committed.insert(5);
    table.Scan(snap, resolver, {}, [&](const sql::Row&) {
      count++;
      return true;
    });
    EXPECT_EQ(count, 1);
  });
}

// Property sweep: B-tree results always match a brute-force scan.
class BtreePropertyTest : public StorageTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(BtreePropertyTest, MatchesBruteForce) {
  RunSim([&] {
    Rng rng(static_cast<uint64_t>(GetParam()));
    BtreeIndex index(40, {0}, false, &pool_);
    std::vector<int64_t> keys;
    for (int i = 0; i < 300; i++) {
      int64_t k = rng.Uniform(0, 50);
      keys.push_back(k);
      index.Insert({Datum::Int8(k)}, static_cast<RowId>(i));
    }
    for (int probe = 0; probe < 20; probe++) {
      int64_t k = rng.Uniform(0, 50);
      std::vector<RowId> got;
      index.EqualRange({Datum::Int8(k)}, &got);
      size_t expected = 0;
      for (int64_t key : keys) expected += key == k ? 1 : 0;
      EXPECT_EQ(got.size(), expected) << "key " << k;

      int64_t lo = rng.Uniform(0, 50), hi = rng.Uniform(lo, 50);
      Datum dlo = Datum::Int8(lo), dhi = Datum::Int8(hi);
      got.clear();
      index.Range(&dlo, true, &dhi, true, &got);
      expected = 0;
      for (int64_t key : keys) expected += (key >= lo && key <= hi) ? 1 : 0;
      EXPECT_EQ(got.size(), expected) << lo << ".." << hi;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreePropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace citusx::storage
