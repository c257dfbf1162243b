// Tests for the fingerprint probe tier (index/fp_cache.h): the cache's own
// install/lookup/invalidate/eviction/generation-guard protocol, its
// integration into HashShardedIndex point and batch reads (read-through
// fills, writer invalidation, capacity-0 disable), and lock-free readers
// racing mutators.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/fp_cache.h"
#include "index/hash_sharded.h"
#include "index/index.h"
#include "pm/pool.h"

namespace fastfair {
namespace {

TEST(FpProbeCache, InstallThenLookup) {
  FpProbeCache c(1024);
  EXPECT_EQ(c.Lookup(42), kNoValue);
  EXPECT_TRUE(c.Install(42, 421, c.Generation(42)));
  EXPECT_EQ(c.Lookup(42), 421u);
  const auto s = c.GetStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.installs, 1u);
}

TEST(FpProbeCache, SameKeyReinstallOverwrites) {
  FpProbeCache c(1024);
  ASSERT_TRUE(c.Install(7, 100, c.Generation(7)));
  ASSERT_TRUE(c.Install(7, 200, c.Generation(7)));
  EXPECT_EQ(c.Lookup(7), 200u);
}

TEST(FpProbeCache, InvalidateDropsEntryAndBumpsGeneration) {
  FpProbeCache c(1024);
  const std::uint32_t g0 = c.Generation(5);
  ASSERT_TRUE(c.Install(5, 51, g0));
  c.Invalidate(5);
  EXPECT_EQ(c.Lookup(5), kNoValue);
  EXPECT_NE(c.Generation(5), g0);
  // The bump happens even for uncached keys: it guards in-flight fills
  // that sampled the generation but have not installed yet.
  const std::uint32_t g1 = c.Generation(9999);
  c.Invalidate(9999);
  EXPECT_NE(c.Generation(9999), g1);
}

TEST(FpProbeCache, StaleGenerationAbortsInstall) {
  FpProbeCache c(1024);
  // Interleaving the guard exists for: reader samples gen, descends (slow),
  // writer updates + invalidates, reader tries to install the stale value.
  const std::uint32_t gen_seen = c.Generation(77);
  c.Invalidate(77);  // the writer got in between
  EXPECT_FALSE(c.Install(77, 1, gen_seen));
  EXPECT_EQ(c.Lookup(77), kNoValue);
  EXPECT_EQ(c.GetStats().stale_aborts, 1u);
}

TEST(FpProbeCache, CapacityRoundsToPowerOfTwoBuckets) {
  EXPECT_EQ(FpProbeCache(1).bucket_count(), 1u);
  EXPECT_EQ(FpProbeCache(16).bucket_count(), 1u);
  EXPECT_EQ(FpProbeCache(17).bucket_count(), 2u);
  EXPECT_EQ(FpProbeCache(16384).bucket_count(), 1024u);
}

TEST(FpProbeCache, EvictionKeepsLookupsCorrectUnderOverflow) {
  // A 1-bucket cache overflowed 8x: every lookup must be either the true
  // value or a miss — never a wrong value — and recent installs survive
  // round-robin eviction often enough to produce hits.
  FpProbeCache c(16);
  ASSERT_EQ(c.bucket_count(), 1u);
  for (Key k = 1; k <= 128; ++k) {
    ASSERT_TRUE(c.Install(k, k * 10, c.Generation(k)));
    ASSERT_EQ(c.Lookup(k), k * 10) << "freshly installed";
  }
  std::size_t present = 0;
  for (Key k = 1; k <= 128; ++k) {
    const Value v = c.Lookup(k);
    if (v == kNoValue) continue;
    ASSERT_EQ(v, k * 10) << "stale value for key " << k;
    ++present;
  }
  EXPECT_GT(present, 0u);
  EXPECT_LE(present, FpProbeCache::kSlotsPerBucket);
}

TEST(FpProbeCache, ConcurrentReadersNeverSeeWrongValues) {
  // Mutator churns installs/invalidates over a small key set in a single
  // bucket (maximum slot-reuse pressure) while lock-free readers verify
  // every hit carries that key's one true value.
  FpProbeCache c(16);
  constexpr Key kKeys = 24;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Rng rng(1000 + static_cast<std::uint64_t>(
                         reinterpret_cast<std::uintptr_t>(&stop)));
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.NextBounded(kKeys) + 1;
        const Value v = c.Lookup(k);
        if (v != kNoValue && v != k * 100) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    const Key k = rng.NextBounded(kKeys) + 1;
    if (rng.NextBounded(4) == 0) {
      c.Invalidate(k);
    } else {
      c.Install(k, k * 100, c.Generation(k));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
}

// --- HashShardedIndex integration --------------------------------------------

std::unique_ptr<HashShardedIndex> MakeHashed(pm::Pool* pool,
                                             std::size_t shards) {
  return std::make_unique<HashShardedIndex>(
      "hashed-fastfair", shards,
      [pool](std::size_t) { return MakeIndex("fastfair", pool); });
}

TEST(HashedProbeTier, RepeatSearchesHitTheCache) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  for (Key k = 1; k <= 500; ++k) idx->Insert(k, k + 9);
  for (int round = 0; round < 3; ++round) {
    for (Key k = 1; k <= 500; ++k) {
      ASSERT_EQ(idx->Search(k), k + 9) << "round " << round;
    }
  }
  const auto s = idx->ProbeCacheStats();
  // Round 1 misses+fills, rounds 2-3 hit (default capacity >> 500 keys).
  EXPECT_GE(s.installs, 500u);
  EXPECT_GE(s.hits, 1000u);
}

TEST(HashedProbeTier, WritesInvalidateStaleEntries) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  idx->Insert(10, 101);
  ASSERT_EQ(idx->Search(10), 101u);  // now cached
  idx->Insert(10, 102);              // upsert must invalidate
  EXPECT_EQ(idx->Search(10), 102u);
  ASSERT_TRUE(idx->Remove(10));
  EXPECT_EQ(idx->Search(10), kNoValue);
  EXPECT_GE(idx->ProbeCacheStats().invalidations, 3u);
}

TEST(HashedProbeTier, BatchPathFillsAndInvalidates) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  std::vector<core::Record> ops;
  for (Key k = 1; k <= 300; ++k) ops.push_back({k, k + 1});
  idx->InsertBatch(ops.data(), ops.size(), nullptr);

  std::vector<Key> keys;
  for (Key k = 1; k <= 400; ++k) keys.push_back(k);  // 301..400 absent
  std::vector<Value> out(keys.size());
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_EQ(out[k - 1], k <= 300 ? k + 1 : kNoValue) << "key " << k;
  }
  // Second batch: the 300 present keys answer from the probe tier.
  const auto before = idx->ProbeCacheStats();
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  for (Key k = 1; k <= 300; ++k) ASSERT_EQ(out[k - 1], k + 1);
  EXPECT_GE(idx->ProbeCacheStats().hits, before.hits + 300);

  // Batch upsert invalidates what the batch read path cached.
  for (auto& op : ops) op.ptr += 1000;
  idx->InsertBatch(ops.data(), ops.size(), nullptr);
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  for (Key k = 1; k <= 300; ++k) {
    ASSERT_EQ(out[k - 1], k + 1001) << "stale cache after batch upsert";
  }
}

TEST(HashedProbeTier, CapacityZeroDisablesTheTier) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 2);
  idx->SetProbeCacheCapacity(0);
  for (Key k = 1; k <= 100; ++k) idx->Insert(k, k + 3);
  for (int round = 0; round < 2; ++round) {
    for (Key k = 1; k <= 100; ++k) ASSERT_EQ(idx->Search(k), k + 3);
  }
  std::vector<Key> keys{1, 2, 3, 999};
  std::vector<Value> out(keys.size());
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[3], kNoValue);
  const auto s = idx->ProbeCacheStats();
  EXPECT_EQ(s.hits + s.misses + s.installs, 0u);
  idx->SetProbeCacheCapacity(256);  // re-enable
  ASSERT_EQ(idx->Search(50), 53u);
  ASSERT_EQ(idx->Search(50), 53u);
  EXPECT_GE(idx->ProbeCacheStats().hits, 1u);
}

TEST(HashedProbeTier, ConcurrentMixedWorkloadStaysCoherent) {
  // Writers upsert while readers assert every result is a value the key
  // actually held at some point (never torn, never another key's value,
  // never a miss for an always-present key). Stale-but-real values are
  // legal mid-race (a fill can overlap a writer's insert-then-invalidate
  // window); what must hold is exact convergence once writers quiesce.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  constexpr Key kKeys = 64;
  for (Key k = 1; k <= kKeys; ++k) idx->Insert(k, k * 1000000);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(40 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.NextBounded(kKeys) + 1;
        const Value v = idx->Search(k);
        // Every value ever written to k is k*1000000 + i for some i.
        if (v == kNoValue || v / 1000000 != k) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Rng rng(41);
  std::vector<Value> final_val(kKeys + 1, 0);
  for (Key k = 1; k <= kKeys; ++k) final_val[k] = k * 1000000;
  for (int i = 1; i <= 20000; ++i) {
    const Key k = rng.NextBounded(kKeys) + 1;
    final_val[k] = k * 1000000 + static_cast<Value>(i);
    idx->Insert(k, final_val[k]);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
  for (Key k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(idx->Search(k), final_val[k]) << "post-quiescence key " << k;
    ASSERT_EQ(idx->Search(k), final_val[k]) << "cached re-read key " << k;
  }
}

}  // namespace
}  // namespace fastfair
