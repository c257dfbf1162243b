// Tests for the wB+-tree baseline: slot+bitmap protocol behaviour, flush
// accounting (the property Fig 5(a) measures), undo-logged splits, and
// model equivalence.

#include <gtest/gtest.h>

#include <map>
#include <new>
#include <utility>
#include <vector>

#include "baselines/wbtree/wbtree.h"
#include "common/rng.h"

namespace fastfair::baselines {
namespace {

TEST(WBTree, EmptyTree) {
  pm::Pool pool(64 << 20);
  WBTree t(&pool);
  EXPECT_EQ(t.Search(1), kNoValue);
  EXPECT_FALSE(t.Remove(1));
  EXPECT_EQ(t.Height(), 1);
  EXPECT_EQ(t.CountEntries(), 0u);
}

TEST(WBTree, InsertSearchRemove) {
  pm::Pool pool(64 << 20);
  WBTree t(&pool);
  t.Insert(10, 100);
  t.Insert(5, 50);
  t.Insert(20, 200);
  EXPECT_EQ(t.Search(5), 50u);
  EXPECT_EQ(t.Search(10), 100u);
  EXPECT_EQ(t.Search(20), 200u);
  EXPECT_EQ(t.Search(15), kNoValue);
  EXPECT_TRUE(t.Remove(10));
  EXPECT_EQ(t.Search(10), kNoValue);
  EXPECT_EQ(t.CountEntries(), 2u);
}

TEST(WBTree, UpsertInPlace) {
  pm::Pool pool(64 << 20);
  WBTree t(&pool);
  t.Insert(1, 11);
  t.Insert(1, 12);
  EXPECT_EQ(t.Search(1), 12u);
  EXPECT_EQ(t.CountEntries(), 1u);
}

TEST(WBTree, SplitsGrowHeight) {
  pm::Pool pool(256 << 20);
  WBTree t(&pool);
  for (Key k = 1; k <= 20000; ++k) t.Insert(k, k + 1);
  EXPECT_GE(t.Height(), 2);
  for (Key k = 1; k <= 20000; k += 13) ASSERT_EQ(t.Search(k), k + 1);
  EXPECT_EQ(t.CountEntries(), 20000u);
}

TEST(WBTree, ModelEquivalence) {
  pm::Pool pool(512 << 20);
  WBTree t(&pool);
  std::map<Key, Value> model;
  Rng rng(21);
  for (int i = 0; i < 50000; ++i) {
    const Key k = rng.NextBounded(25000) + 1;
    if (rng.NextBounded(5) == 0) {
      const bool in_model = model.erase(k) > 0;
      ASSERT_EQ(t.Remove(k), in_model);
    } else {
      const Value v = k * 7 + static_cast<Value>(i % 3) + 1;
      t.Insert(k, v);
      model[k] = v;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(t.Search(k), v);
  ASSERT_EQ(t.CountEntries(), model.size());
}

TEST(WBTree, ScanIsSortedDespiteUnsortedStorage) {
  pm::Pool pool(256 << 20);
  WBTree t(&pool);
  Rng rng(33);
  std::map<Key, Value> model;
  for (int i = 0; i < 10000; ++i) {
    const Key k = rng.Next() | 1;
    t.Insert(k, k + 2);
    model[k] = k + 2;
  }
  std::vector<core::Record> out(500);
  const Key start = model.begin()->first + 1;
  const std::size_t n = t.Scan(start, out.size(), out.data());
  auto it = model.upper_bound(start - 1);
  for (std::size_t i = 0; i < n; ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first);
    ASSERT_EQ(out[i].ptr, it->second);
  }
}

TEST(WBTree, InsertCostsAtLeastFourFlushes) {
  // The paper: "wB+-tree calls at least four cache line flushes when we
  // insert data into a tree node" — the slot+bitmap protocol's floor.
  pm::Pool pool(64 << 20);
  WBTree t(&pool);
  t.Insert(500, 1);  // warm the root
  pm::ResetStats();
  const auto before = pm::Stats();
  t.Insert(100, 2);  // non-split insert
  const auto delta = pm::Stats() - before;
  EXPECT_GE(delta.flush_lines, 4u);
}

TEST(WBTree, InsertFlushFloorHoldsOnAverage) {
  pm::Pool pool(512 << 20);
  WBTree t(&pool);
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) t.Insert(rng.Next() | 1, 1u + static_cast<Value>(i));
  pm::ResetStats();
  const auto before = pm::Stats();
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) t.Insert(rng.Next() | 1, 7u + static_cast<Value>(i));
  const auto delta = pm::Stats() - before;
  EXPECT_GE(static_cast<double>(delta.flush_lines) / kN, 4.0);
}

TEST(WBTree, DenseAscendingAndDescending) {
  pm::Pool pool(256 << 20);
  for (const bool ascending : {true, false}) {
    WBTree t(&pool);
    for (int i = 0; i < 5000; ++i) {
      const Key k = ascending ? static_cast<Key>(i + 1)
                              : static_cast<Key>(5000 - i);
      t.Insert(k, k * 2 + 1);
    }
    for (Key k = 1; k <= 5000; ++k) ASSERT_EQ(t.Search(k), k * 2 + 1);
  }
}

TEST(WBTree, PoolExhaustionThrowsOnlyBadAllocAndKeepsAckedKeys) {
  // A split that cannot allocate must unwind before its undo log is armed:
  // every failure is a plain std::bad_alloc (an armed-and-abandoned log
  // used to overflow into std::runtime_error a few failures later), and
  // every insert that returned normally stays readable.
  pm::Pool pool(std::size_t{1} << 20);
  WBTree t(&pool);
  std::vector<std::pair<Key, Value>> acked;
  std::size_t bad_allocs = 0;
  for (std::uint64_t i = 1; i <= 200000; ++i) {
    const Key k = i * 0x9E3779B97F4A7C15ull;  // spread, distinct, nonzero
    try {
      t.Insert(k, i);
      acked.emplace_back(k, i);
    } catch (const std::bad_alloc&) {
      ++bad_allocs;
    }
  }
  EXPECT_GT(bad_allocs, 0u);
  for (const auto& [k, v] : acked) ASSERT_EQ(t.Search(k), v);
  EXPECT_EQ(t.CountEntries(), acked.size());
}

}  // namespace
}  // namespace fastfair::baselines
