// Tests for the two-level free-list reclaimer in pm::Pool (DESIGN.md §3.1):
// epoch-deferred recycling, cross-thread Free -> reuse accounting, bounded
// used() under churn, and the crash-safe persistent free lists.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pm/persist.h"
#include "pm/pool.h"
#include "pm/reclaim.h"

namespace fastfair::pm {
namespace {

TEST(PoolFreeList, FreedBlockIsRecycledForAMatchingSize) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(512);
  pool.Free(a, 512);
  // The block parks in limbo until the epoch moves past its stamp, then a
  // same-class allocation must reuse it instead of the bump path.
  std::set<void*> seen;
  const std::size_t used_before = pool.used();
  for (int i = 0; i < 200 && seen.find(a) == seen.end(); ++i) {
    void* p = pool.Alloc(512);
    seen.insert(p);
    pool.Free(p, 512);
    epoch::TryAdvance();
  }
  EXPECT_TRUE(seen.count(a)) << "freed block never recycled";
  EXPECT_EQ(pool.used(), used_before) << "recycling must not move the bump";
  EXPECT_GT(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, EpochGuardDefersRecycling) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(256);
  auto* guard = new EpochGuard;  // a "reader" pinned before the free
  pool.Free(a, 256);
  // While the reader is pinned at the free's epoch, the block must never
  // come back from Alloc, no matter how often the clock is nudged.
  for (int i = 0; i < 300; ++i) {
    epoch::TryAdvance();
    void* p = pool.Alloc(256);
    EXPECT_NE(p, a) << "block recycled under a pinned reader";
    pool.Free(p, 256);
  }
  delete guard;  // reader done: the block may now circulate again
  // Allocate without freeing: drains the thread cache, limbo, the global
  // list, and the overflow tier the pinned phase pushed `a` into.
  std::set<void*> seen;
  for (int i = 0; i < 500 && seen.find(a) == seen.end(); ++i) {
    seen.insert(pool.Alloc(256));
  }
  EXPECT_TRUE(seen.count(a));
}

TEST(PoolFreeList, CrossThreadFreeThenReuse) {
  // Allocate on thread A, free on thread B: the freed-bytes accounting and
  // the recycle counters must both see the blocks, and thread B's frees
  // must be reusable (the blocks reach the shared per-class lists).
  Pool pool(std::size_t{16} << 20);
  constexpr int kBlocks = 300;  // enough to overflow the freeing thread's
                                // cache and force spills to the global list
  std::vector<void*> blocks;
  ResetStats();
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.Alloc(512));
  ASSERT_EQ(Stats().frees, 0u);
  std::uint64_t b_frees = 0, b_free_bytes = 0, b_spills = 0;
  std::thread b([&] {
    ResetStats();
    for (void* p : blocks) pool.Free(p, 512);
    b_frees = Stats().frees;
    b_free_bytes = Stats().free_bytes;
    b_spills = Stats().freelist_spills;
  });
  b.join();
  EXPECT_EQ(b_frees, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(b_free_bytes, static_cast<std::uint64_t>(kBlocks) * 512);
  EXPECT_GT(b_spills, 0u) << "cross-thread frees never reached the "
                             "shared list";
  EXPECT_EQ(pool.freed_bytes(), static_cast<std::uint64_t>(kBlocks) * 512);
  // Thread A (this thread) must be able to recycle thread B's frees.
  ResetStats();
  std::set<void*> freed(blocks.begin(), blocks.end());
  int recycled = 0;
  for (int i = 0; i < 4 * kBlocks; ++i) {
    epoch::TryAdvance();
    void* p = pool.Alloc(512);
    if (freed.count(p)) ++recycled;
  }
  EXPECT_GT(recycled, 0) << "no cross-thread block was ever reused";
  EXPECT_EQ(Stats().recycles, static_cast<std::uint64_t>(recycled));
  EXPECT_GT(Stats().freelist_refills, 0u);
}

TEST(PoolFreeList, ChurnLoopPlateausUsed) {
  // Sustained alloc/free churn at several times the pool size: used() must
  // plateau once the free lists warm up, and the recycle counters must
  // account for the difference.
  Pool pool(std::size_t{4} << 20);
  ResetStats();
  const ThreadStats before = Stats();
  const std::size_t target = 3 * pool.capacity();
  std::vector<void*> batch;
  std::size_t used_after_warmup = 0;
  while ((Stats() - before).alloc_bytes < target) {
    batch.clear();
    for (int i = 0; i < 256; ++i) batch.push_back(pool.Alloc(512));
    for (void* p : batch) pool.Free(p, 512);
    epoch::TryAdvance();
    if (used_after_warmup == 0 &&
        (Stats() - before).alloc_bytes > pool.capacity() / 4) {
      used_after_warmup = pool.used();
    }
  }
  ASSERT_GT(used_after_warmup, 0u);
  EXPECT_LE(pool.used(), used_after_warmup + pool.chunk_size())
      << "used() kept growing: reclamation is not closing the loop";
  EXPECT_GT((Stats() - before).recycles, 0u);
  EXPECT_GT(pool.recycled_bytes(), target / 2)
      << "most of the churn volume should be served by recycling";
}

TEST(PoolFreeList, NonPowerOfTwoSameSizeChurnRecycles) {
  // A freed block bins into floor(log2(size)) while the same-size request
  // looks up ceil(log2(size)): the floor-class probe (with per-block
  // sizes) must close that gap, or e.g. WORT's 136-byte nodes would never
  // recycle under same-size churn.
  Pool pool(std::size_t{16} << 20);
  constexpr std::size_t kOdd = 136;
  void* a = pool.Alloc(kOdd, 8);
  pool.Free(a, kOdd);
  std::set<void*> seen;
  for (int i = 0; i < 400 && seen.find(a) == seen.end(); ++i) {
    void* p = pool.Alloc(kOdd, 8);
    seen.insert(p);
    pool.Free(p, kOdd);
    epoch::TryAdvance();
  }
  EXPECT_TRUE(seen.count(a)) << "non-power-of-2 block never recycled";
  // The same floor-class entry must never serve a larger request.
  void* big = pool.Alloc(200, 8);
  EXPECT_NE(big, a);
}

TEST(PoolFreeList, IneligibleSizesAreAccountedButNotRecycled) {
  Pool pool(std::size_t{16} << 20);
  void* tiny = pool.Alloc(4, 8);
  pool.Free(tiny, 4);  // below the next-link minimum: accounting only
  const std::size_t big_size = std::size_t{2} << 20;
  void* big = pool.Alloc(big_size);
  pool.Free(big, big_size);  // above the largest class: accounting only
  EXPECT_EQ(pool.freed_bytes(), 4u + big_size);
  for (int i = 0; i < 100; ++i) {
    epoch::TryAdvance();
    EXPECT_NE(pool.Alloc(4, 8), tiny);
  }
  EXPECT_EQ(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, ResetDropsParkedBlocks) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(512);
  pool.Free(a, 512);
  pool.Reset();
  // Parked blocks died with the reset: allocations come from the fresh
  // bump region, and the recycle counter starts over.
  EXPECT_EQ(pool.recycled_bytes(), 0u);
  void* p = pool.Alloc(512);
  EXPECT_TRUE(pool.Contains(p));
  for (int i = 0; i < 50; ++i) {
    epoch::TryAdvance();
    pool.Alloc(512);
  }
  EXPECT_EQ(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, FileBackedListsSurviveReopenByDefault) {
  // A file-backed pool persists its free lists with no option set: a
  // block freed before the reopen is handed out again after it.
  const std::string path = ::testing::TempDir() + "/freelist_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{16} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5200'0000'0000ull;
  std::set<void*> freed;
  {
    Pool pool(opts);
    ASSERT_FALSE(pool.reopened());
    // Free enough same-class blocks that a batch reaches the persistent
    // global list (the thread cache spills past kCacheCap).
    std::vector<void*> blocks;
    for (int i = 0; i < 64; ++i) blocks.push_back(pool.Alloc(512));
    for (void* p : blocks) {
      pool.Free(p, 512);
      freed.insert(p);
      epoch::TryAdvance();
    }
    // Cycle allocations so limbo drains and spills happen.
    for (int i = 0; i < 64; ++i) {
      epoch::TryAdvance();
      void* p = pool.Alloc(64);
      pool.Free(p, 64);
    }
  }
  {
    Pool pool(opts);
    ASSERT_TRUE(pool.reopened());
    // Recovery resumes recycling from the persisted lists: some allocation
    // of the class must return a block freed before the "crash".
    bool recycled = false;
    for (int i = 0; i < 64 && !recycled; ++i) {
      recycled = freed.count(pool.Alloc(512)) != 0;
    }
    EXPECT_TRUE(recycled) << "persistent free list lost across reopen";
  }
  std::remove(path.c_str());
}

TEST(PoolFreeList, ReopenSanitizesACorruptListHead) {
  const std::string path = ::testing::TempDir() + "/freelist_corrupt_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5300'0000'0000ull;
  void* block = nullptr;
  {
    Pool pool(opts);
    // Plant a torn push: a block whose next link is garbage, directly on
    // the persistent list (simulated by freeing it, then scribbling).
    std::vector<void*> blocks;
    for (int i = 0; i < 64; ++i) blocks.push_back(pool.Alloc(512));
    for (void* p : blocks) pool.Free(p, 512);
    for (int i = 0; i < 64; ++i) {
      epoch::TryAdvance();
      pool.Free(pool.Alloc(64), 64);
    }
    block = blocks[0];
    *static_cast<std::uint64_t*>(block) = ~std::uint64_t{0};  // garbage next
  }
  {
    Pool pool(opts);  // must not crash or loop on the garbage link
    ASSERT_TRUE(pool.reopened());
    // Allocations still work; the sanitized list serves what it can and
    // the bump path covers the rest.
    for (int i = 0; i < 128; ++i) {
      void* p = pool.Alloc(512);
      EXPECT_TRUE(pool.Contains(p));
    }
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, TruncatedFileIsReportedAsCorrupt) {
  const std::string path = ::testing::TempDir() + "/truncated_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5400'0000'0000ull;
  { Pool pool(opts); pool.Alloc(512); }
  // Chop the file to half its capacity — the classic lost-tail copy. The
  // header's own capacity field survives at offset 8, so reopen must see
  // the mismatch and refuse with kCorrupt instead of silently re-extending
  // the file with zero holes.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(opts.capacity / 2)), 0);
  try {
    Pool pool(opts);
    FAIL() << "reopen of a truncated pool file must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, FileTruncatedMidHeaderIsCorrupt) {
  const std::string path = ::testing::TempDir() + "/midheader_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5500'0000'0000ull;
  { Pool pool(opts); }
  ASSERT_EQ(::truncate(path.c_str(), 24), 0);  // a few header words remain
  try {
    Pool pool(opts);
    FAIL() << "reopen of a mid-header-truncated file must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kCorrupt);
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, CapacityMismatchIsIncompatibleNotCorrupt) {
  const std::string path = ::testing::TempDir() + "/capmismatch_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5600'0000'0000ull;
  { Pool pool(opts); }
  Pool::Options wrong = opts;
  wrong.capacity = std::size_t{8} << 20;  // healthy file, wrong parameters
  try {
    Pool pool(wrong);
    FAIL() << "reopen with a different capacity must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kIncompatible);
    // The message names both capacities so the fix is obvious.
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(std::size_t{4} << 20)),
              std::string::npos);
  }
  {  // the original parameters still work: the file was never touched
    Pool pool(opts);
    EXPECT_TRUE(pool.reopened());
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, ForeignFileIsCorruptAndLeftUntouched) {
  // A file that is not a pool (non-zero, foreign header magic) must be
  // refused before the open extends or formats it.
  const std::string path = ::testing::TempDir() + "/foreign_pool_test.pm";
  std::remove(path.c_str());
  std::string bytes(4096, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>('a' + i % 26);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5900'0000'0000ull;
  try {
    Pool pool(opts);
    FAIL() << "opening a foreign file as a pool must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kCorrupt);
  }
  std::string after(bytes.size() + 1, '\0');
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  const std::size_t got = std::fread(after.data(), 1, after.size(), f);
  std::fclose(f);
  EXPECT_EQ(got, bytes.size()) << "file length changed";
  after.resize(got);
  EXPECT_EQ(after, bytes) << "file contents changed";
  std::remove(path.c_str());
}

TEST(PoolReopen, ZeroMagicFileIsFormatted) {
  // A zero header is a crash before the first header persist: the open
  // formats it as a fresh pool.
  const std::string path = ::testing::TempDir() + "/zeromagic_pool_test.pm";
  std::remove(path.c_str());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string zeros(4096, '\0');
    ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f), zeros.size());
    std::fclose(f);
  }
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5a00'0000'0000ull;
  {
    Pool pool(opts);
    EXPECT_FALSE(pool.reopened());
    EXPECT_TRUE(pool.Contains(pool.Alloc(512)));
  }
  {
    Pool pool(opts);
    EXPECT_TRUE(pool.reopened());
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, MissingDirectoryIsTransientIoError) {
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = "/nonexistent-dir-fastfair/pool.pm";
  opts.fixed_base = 0x5700'0000'0000ull;
  try {
    Pool pool(opts);
    FAIL() << "open under a missing directory must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kIo);  // retryable, not corruption
  }
}

}  // namespace
}  // namespace fastfair::pm
