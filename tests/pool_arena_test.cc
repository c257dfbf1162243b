// Tests for the per-thread arena allocation path in pm::Pool: chunk
// reservation, contention-free bump allocation, Reset() invalidation,
// cross-thread free accounting, and the crashsim allocation hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/btree.h"
#include "crashsim/simmem.h"
#include "pm/persist.h"
#include "pm/pool.h"

namespace fastfair::pm {
namespace {

TEST(PoolArena, EffectiveChunkSizeAdaptsToCapacity) {
  // Big pool: full 1 MiB chunks.
  EXPECT_EQ(Pool(std::size_t{1} << 30).chunk_size(), std::size_t{1} << 20);
  // 1 MiB pool: capped at capacity/8.
  EXPECT_EQ(Pool(std::size_t{1} << 20).chunk_size(), std::size_t{1} << 17);
  // Tiny pool: arenas off, exact direct accounting.
  EXPECT_EQ(Pool(4096).chunk_size(), 0u);
}

TEST(PoolArena, SmallAllocationsShareOneChunkReservation) {
  Pool pool(std::size_t{256} << 20);
  ResetStats();
  const std::size_t u0 = pool.used();
  void* first = pool.Alloc(64);
  EXPECT_EQ(pool.used(), u0 + pool.chunk_size());
  // Everything until the chunk is exhausted comes from the same reservation.
  for (int i = 0; i < 100; ++i) pool.Alloc(64);
  EXPECT_EQ(pool.used(), u0 + pool.chunk_size());
  EXPECT_EQ(Stats().arena_refills, 1u);
  EXPECT_TRUE(pool.Contains(first));
}

TEST(PoolArena, ChunkExhaustionTriggersRefill) {
  Pool pool(std::size_t{256} << 20);
  ResetStats();
  const std::size_t chunk = pool.chunk_size();
  // Burn through more than one chunk of 64-byte blocks.
  const std::size_t n = chunk / 64 + 2;
  for (std::size_t i = 0; i < n; ++i) pool.Alloc(64);
  EXPECT_GE(Stats().arena_refills, 2u);
  EXPECT_GE(pool.used(), 2 * chunk);
}

TEST(PoolArena, LargeBlocksBypassTheArena) {
  Pool pool(std::size_t{256} << 20);
  ResetStats();
  const std::size_t big = pool.chunk_size();  // > chunk/2: direct path
  const std::size_t u0 = pool.used();
  void* p = pool.Alloc(big);
  EXPECT_TRUE(pool.Contains(p));
  // Direct reservation: used grows by the block itself, no chunk, no refill.
  EXPECT_EQ(pool.used(), AlignUp(u0, kCacheLineSize) + big);
  EXPECT_EQ(Stats().arena_refills, 0u);
}

TEST(PoolArena, ArenaBlocksHonorAlignmentInsideChunks) {
  Pool pool(std::size_t{64} << 20);
  for (const std::size_t align : {8ul, 64ul, 256ul, 512ul, 4096ul}) {
    for (int i = 0; i < 16; ++i) {
      void* p = pool.Alloc(24, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align " << align;
      EXPECT_TRUE(pool.Contains(p));
    }
  }
}

TEST(PoolArena, ConcurrentAllocationsAreDistinctAndChunkDisjoint) {
  Pool pool(std::size_t{512} << 20);
  constexpr int kThreads = 8, kAllocs = 5000;
  std::vector<std::vector<void*>> ptrs(kThreads);
  std::vector<std::uint64_t> refills(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ResetStats();
      ptrs[t].reserve(kAllocs);
      for (int i = 0; i < kAllocs; ++i) {
        void* p = pool.Alloc(48);
        // Write a thread-unique pattern; overlap would corrupt it.
        *static_cast<std::uint64_t*>(p) =
            (static_cast<std::uint64_t>(t) << 32) |
            static_cast<std::uint64_t>(i);
        ptrs[t].push_back(p);
      }
      refills[t] = Stats().arena_refills;
    });
  }
  for (auto& th : threads) th.join();
  // Patterns intact => no two allocations overlapped.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kAllocs; ++i) {
      ASSERT_EQ(*static_cast<std::uint64_t*>(ptrs[t][i]),
                (static_cast<std::uint64_t>(t) << 32) |
                    static_cast<std::uint64_t>(i));
    }
    // Each thread reserved its own chunk(s) instead of CASing per alloc.
    EXPECT_GE(refills[t], 1u);
    EXPECT_LE(refills[t], 2 + kAllocs * 64u / pool.chunk_size());
  }
  // Global accounting is chunk-granular: far fewer reservations than allocs.
  EXPECT_LE(pool.used(),
            (std::size_t{kThreads} * kAllocs * 64) + (kThreads + 2) * pool.chunk_size());
}

TEST(PoolArena, InterleavingManyPoolsDoesNotAbandonChunksPerAlloc) {
  // More live pools than thread-local arena slots: eviction must not throw
  // away a nearly-fresh chunk on every allocation. Slotless pools degrade
  // to the direct path; every pool's reserved footprint stays bounded by
  // its actual allocation volume plus a few chunks.
  constexpr int kPools = 6, kAllocs = 2000;
  std::vector<std::unique_ptr<Pool>> pools;
  for (int p = 0; p < kPools; ++p) {
    pools.push_back(std::make_unique<Pool>(std::size_t{64} << 20));
  }
  for (int i = 0; i < kAllocs; ++i) {
    for (auto& pool : pools) pool->Alloc(64);
  }
  for (auto& pool : pools) {
    // Direct-path worst case: 64 bytes reserved per alloc, plus a couple of
    // chunks for the pools that did win an arena slot.
    EXPECT_LE(pool->used(), 3 * pool->chunk_size() + kAllocs * 64u)
        << "a pool ballooned: chunk abandoned per allocation";
  }
}

TEST(PoolArena, ResetInvalidatesEveryThreadArena) {
  Pool pool(std::size_t{64} << 20);
  pool.Alloc(100);  // this thread now caches a chunk
  const std::size_t used_after_first = pool.used();
  pool.Reset();
  EXPECT_LT(pool.used(), used_after_first);
  // A stale arena must not survive the reset: the next allocation reserves a
  // fresh chunk from the reset offset instead of bumping the dead one.
  pool.Alloc(100);
  EXPECT_EQ(pool.used(), used_after_first);
  // And the memory handed out lies inside the newly reserved region.
  void* p = pool.Alloc(100);
  EXPECT_TRUE(pool.Contains(p));
}

TEST(PoolArena, FileBackedPoolFlushesMetadataAtChunkGranularity) {
  const std::string path = ::testing::TempDir() + "/arena_meta_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{64} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5800'0000'0000ull;
  {
    Pool pool(opts);
    ResetStats();
    pool.Alloc(64);  // chunk reservation: one metadata flush
    const auto after_first = Stats().flush_lines;
    EXPECT_EQ(after_first, 1u);
    for (int i = 0; i < 50; ++i) pool.Alloc(64);  // same chunk: no flushes
    EXPECT_EQ(Stats().flush_lines, after_first);
    pool.Alloc(pool.chunk_size());  // direct reservation: one more flush
    EXPECT_EQ(Stats().flush_lines, after_first + 1);
  }
  std::remove(path.c_str());
  // An anonymous pool of the same size persists nothing.
  Pool anon(opts.capacity);
  ResetStats();
  anon.Alloc(64);
  anon.Alloc(anon.chunk_size());
  EXPECT_EQ(Stats().flush_lines, 0u);
}

TEST(PoolArena, ThreadStatsRecordPerThreadAllocVolume) {
  Pool pool(std::size_t{64} << 20);
  ResetStats();
  pool.Alloc(100);
  pool.Alloc(200);
  EXPECT_EQ(Stats().allocs, 2u);
  EXPECT_EQ(Stats().alloc_bytes, 300u);
  std::thread th([&] {
    ResetStats();
    pool.Alloc(50);
    EXPECT_EQ(Stats().allocs, 1u);
    EXPECT_EQ(Stats().alloc_bytes, 50u);
  });
  th.join();
  EXPECT_EQ(Stats().allocs, 2u);  // other thread's allocs not charged here
}

TEST(PoolArena, CrossThreadFreeKeepsAccountingCoherent) {
  Pool pool(std::size_t{64} << 20);
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(pool.Alloc(128));
  // Free on a different thread than the owning arena's: the shared freed
  // counter must see every byte.
  std::thread other([&] {
    ResetStats();
    for (void* p : blocks) pool.Free(p, 128);
    EXPECT_EQ(Stats().frees, 100u);
    EXPECT_EQ(Stats().free_bytes, 100u * 128u);
  });
  other.join();
  EXPECT_EQ(pool.freed_bytes(), 100u * 128u);
  // Frees racing from several threads still sum exactly.
  std::vector<void*> more;
  for (int i = 0; i < 400; ++i) more.push_back(pool.Alloc(64));
  std::vector<std::thread> freers;
  for (int t = 0; t < 4; ++t) {
    freers.emplace_back([&, t] {
      for (int i = t; i < 400; i += 4) pool.Free(more[i], 64);
    });
  }
  for (auto& th : freers) th.join();
  EXPECT_EQ(pool.freed_bytes(), 100u * 128u + 400u * 64u);
}

TEST(PoolArena, AllocHookObservesEveryAllocation) {
  Pool pool(std::size_t{1} << 30);
  struct Audit {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    Pool* pool = nullptr;
    bool all_inside = true;
  } audit;
  audit.pool = &pool;
  pool.SetAllocHook(
      [](void* ctx, void* p, std::size_t size) {
        auto* a = static_cast<Audit*>(ctx);
        a->count += 1;
        a->bytes += size;
        a->all_inside = a->all_inside && a->pool->Contains(p);
      },
      &audit);
  // Drive a real tree: every node / meta allocation must pass the hook.
  core::BTree tree(&pool);
  for (Key k = 1; k <= 5000; ++k) tree.Insert(k, 2 * k + 1);
  EXPECT_GT(audit.count, 10u);  // root + meta + split-produced nodes
  EXPECT_GT(audit.bytes, audit.count * sizeof(core::TreeMeta));
  EXPECT_TRUE(audit.all_inside);
  const std::uint64_t at_clear = audit.count;
  pool.SetAllocHook(nullptr, nullptr);
  pool.Alloc(64);
  EXPECT_EQ(audit.count, at_clear);
}

TEST(PoolArena, SimMemInterceptsPoolAllocations) {
  Pool pool(std::size_t{16} << 20);
  crashsim::SimMem sim;
  sim.InterceptPool(pool);
  // Fresh pool memory is inside the simulated-PM domain: stores through the
  // simulator to a new allocation are legal (no out-of-domain throw).
  auto* words = static_cast<std::uint64_t*>(pool.Alloc(64));
  EXPECT_NO_THROW(sim.Store64(words, 42));
  EXPECT_EQ(sim.Load64(words), 42u);
  // Arena-path and direct-path blocks are both adopted.
  auto* big = static_cast<std::uint64_t*>(pool.Alloc(pool.chunk_size()));
  EXPECT_NO_THROW(sim.Store64(big, 7));
  // Unadopted memory still faults, so the domain is tight.
  std::uint64_t outside = 0;
  EXPECT_THROW(sim.Store64(&outside, 1), std::out_of_range);
  // Freed memory leaves the domain (use-after-free throws in simulation)
  // and re-enters it when the pool recycles the block.
  pool.Free(words, 64);
  EXPECT_THROW(sim.Store64(words, 43), std::out_of_range);
  pool.SetAllocHook(nullptr, nullptr);
  pool.SetFreeHook(nullptr, nullptr);
}

}  // namespace
}  // namespace fastfair::pm
