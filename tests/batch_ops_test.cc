// Batched operation pipeline (DESIGN.md §8): SearchBatch/InsertBatch on
// the core tree and through the index registry — scalar equivalence,
// degenerate batches (empty, duplicate, unsorted), shard-boundary
// spanning batches on both sharded adapters, grouped read-stall
// accounting (a lone scan's parent-hinted leaves included), and batches
// racing concurrent splits/deletes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "core/btree.h"
#include "index/index.h"
#include "index/sharded.h"
#include "pm/fault.h"
#include "pm/persist.h"
#include "race_sched.h"

namespace fastfair {
namespace {

Value ValueFor(Key k) { return 2 * k + 1; }

TEST(BatchOps, EmptyBatchIsANoOp) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  tree.InsertBatch(nullptr, 0);
  tree.SearchBatch(nullptr, 0, nullptr);
  EXPECT_EQ(tree.CountEntries(), 0u);

  auto idx = MakeIndex("sharded-fastfair:4", &pool);
  idx->InsertBatch(nullptr, 0, nullptr);
  idx->SearchBatch(nullptr, 0, nullptr);
  EXPECT_EQ(idx->CountEntries(), 0u);
}

TEST(BatchOps, SearchBatchMatchesScalarAtOddSizes) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(20000, 42);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  // Unsorted probe mix: present keys interleaved with misses.
  std::vector<Key> probes;
  Rng rng(7);
  for (std::size_t i = 0; i < 4096; ++i) {
    probes.push_back(i % 3 == 0 ? (rng.Next() | 1) : keys[rng.NextBounded(keys.size())]);
  }
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{13},
                                  std::size_t{1024}}) {
    std::vector<Value> got(probes.size());
    for (std::size_t i = 0; i < probes.size(); i += batch) {
      const std::size_t n = std::min(batch, probes.size() - i);
      tree.SearchBatch(probes.data() + i, n, got.data() + i);
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[i], tree.Search(probes[i])) << "batch=" << batch;
    }
  }
}

TEST(BatchOps, InsertBatchDuplicateAndUnsortedKeys) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  // Unsorted, with duplicates inside one group and across groups: upsert
  // order is batch order, so the last occurrence wins.
  std::vector<core::Record> ops;
  for (Key k = 100; k > 0; --k) ops.push_back({k, ValueFor(k)});
  ops.push_back({50, 999});
  ops.push_back({50, 1001});
  tree.InsertBatch(ops.data(), ops.size());
  EXPECT_EQ(tree.CountEntries(), 100u);
  EXPECT_EQ(tree.Search(50), Value{1001});
  EXPECT_EQ(tree.Search(100), ValueFor(100));
  EXPECT_EQ(tree.Search(1), ValueFor(1));
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BatchOps, BatchesSpanShardBoundaries) {
  for (const char* kind : {"sharded-fastfair:4", "hashed-fastfair:4"}) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Keys spread across the whole 2^64 space so every batch straddles
    // several shards of the range partition (and all of the hash one).
    const auto keys = bench::UniformKeys(20000, 99);
    std::vector<core::Record> ops;
    ops.reserve(keys.size());
    for (const Key k : keys) ops.push_back({k, ValueFor(k)});
    idx->InsertBatch(ops.data(), ops.size(), nullptr);
    EXPECT_EQ(idx->CountEntries(), keys.size()) << kind;

    std::vector<Value> vals(keys.size());
    idx->SearchBatch(keys.data(), keys.size(), vals.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(vals[i], ValueFor(keys[i])) << kind;
    }
    // Misses stay misses through the scatter/gather.
    std::vector<Key> missing = {2, 4, 6, 8};
    std::vector<Value> mvals(missing.size());
    idx->SearchBatch(missing.data(), missing.size(), mvals.data());
    for (const Value v : mvals) EXPECT_EQ(v, kNoValue) << kind;
  }
}

TEST(BatchOps, GroupedStallAccounting) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  pm::ResetStats();
  const auto before_scalar = pm::Stats();
  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_NE(tree.Search(keys[i]), kNoValue);
  }
  const auto scalar = pm::Stats() - before_scalar;

  std::vector<Value> vals(4096);
  const auto before_batched = pm::Stats();
  tree.SearchBatch(keys.data(), 4096, vals.data());
  const auto batched = pm::Stats() - before_batched;

  // Node-visit accounting is unchanged; only the serialized-stall count
  // drops — by the group factor (8), the pipeline's whole point. >= 2x is
  // the CI gate; the slack covers sibling-hop scalar annotations.
  EXPECT_EQ(batched.read_annotations, scalar.read_annotations);
  EXPECT_GE(scalar.read_stalls, 2 * batched.read_stalls);
  EXPECT_LE(batched.read_stalls,
            scalar.read_stalls / core::BTree::kBatchGroup +
                scalar.read_stalls / 8 + 1);
}

// Exact form of the gate above on quiesced trees: the grouped descent
// knows a slot has reached a leaf from the tree's level numbers, never
// from the child's header, so each batch must charge every key exactly
// one node visit and each group of kBatchGroup exactly one stall — at
// every height and for full, partial and single-key groups.
TEST(BatchOps, GroupedDescentChargesEachKeyOnce) {
  for (const core::SearchMode mode :
       {core::SearchMode::kLinear, core::SearchMode::kBinary}) {
    for (int height = 1; height <= 4; ++height) {
      pm::Pool pool(std::size_t{256} << 20);
      core::Options opts;
      opts.search = mode;
      core::BTree tree(&pool, opts);
      const auto keys = bench::UniformKeys(200000, 11);
      std::size_t loaded = 0;
      while (tree.Height() < height || loaded < 17) {
        tree.Insert(keys[loaded], ValueFor(keys[loaded]));
        ++loaded;
      }
      ASSERT_EQ(tree.Height(), height);

      for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{17}}) {
        const std::uint64_t groups =
            (n + core::BTree::kBatchGroup - 1) / core::BTree::kBatchGroup;
        // Probe the most recently loaded keys: spread over the key space,
        // so the groups descend to different leaves.
        const Key* probes = keys.data() + loaded - n;
        std::vector<Value> vals(n);
        const auto before_search = pm::Stats();
        tree.SearchBatch(probes, n, vals.data());
        const auto search = pm::Stats() - before_search;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(vals[i], ValueFor(probes[i]));
        }
        EXPECT_EQ(search.read_annotations, n)
            << "height=" << height << " n=" << n;
        EXPECT_EQ(search.read_stalls, groups)
            << "height=" << height << " n=" << n;

        std::vector<core::Record> ops;
        for (std::size_t i = 0; i < n; ++i) {
          ops.push_back({probes[i], ValueFor(probes[i]) + 2});
        }
        std::vector<InsertStatus> st(n);
        const auto before_insert = pm::Stats();
        tree.InsertBatch(ops.data(), n, st.data());
        const auto insert = pm::Stats() - before_insert;
        for (const InsertStatus s : st) {
          ASSERT_EQ(s, InsertStatus::kUpdated);
        }
        EXPECT_EQ(insert.read_annotations, n)
            << "height=" << height << " n=" << n;
        EXPECT_EQ(insert.read_stalls, groups)
            << "height=" << height << " n=" << n;
        // Restore the values the next batch size's probes expect.
        for (core::Record& r : ops) r.ptr = ValueFor(r.key);
        tree.InsertBatch(ops.data(), n);
      }
    }
  }
}

TEST(BatchOps, SearchBatchRacesConcurrentSplitsAndDeletes) {
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool);
  // Anchors are never touched by the writer; churn keys around them force
  // continuous splits (inserts) and in-node shifts (removes).
  std::vector<Key> anchors;
  for (Key k = 1000; k <= 500000; k += 1000) {
    anchors.push_back(k);
    tree.Insert(k, ValueFor(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::thread writer([&] {
    Rng rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.NextBounded(500000) + 1;
      if (k % 1000 == 0) continue;
      if (rng.NextBounded(2) == 0) {
        tree.Insert(k, ValueFor(k));
      } else {
        tree.Remove(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      Key batch[64];
      Value vals[64];
      for (int iter = 0; iter < 400; ++iter) {
        for (std::size_t j = 0; j < 64; ++j) {
          batch[j] = anchors[rng.NextBounded(anchors.size())];
        }
        tree.SearchBatch(batch, 64, vals);
        for (std::size_t j = 0; j < 64; ++j) {
          if (vals[j] != ValueFor(batch[j])) misses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(misses.load(), 0u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BatchOps, InsertBatchRacesOnConcurrentWriters) {
  // Two writer threads InsertBatch into disjoint key ranges while a third
  // runs scalar inserts — the batched write path under real concurrency.
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool);
  auto worker = [&](Key base, std::size_t n) {
    core::Record ops[128];
    Rng rng(base);
    for (std::size_t i = 0; i < n; i += 128) {
      for (std::size_t j = 0; j < 128; ++j) {
        const Key k = base + (rng.Next() % 1000000) * 4;
        ops[j] = {k, ValueFor(k)};
      }
      tree.InsertBatch(ops, 128);
    }
  };
  std::thread t1([&] { worker(1, 20000); });
  std::thread t2([&] { worker(2, 20000); });
  std::thread t3([&] {
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
      const Key k = 3 + (rng.Next() % 1000000) * 4;
      tree.Insert(k, ValueFor(k));
    }
  });
  t1.join();
  t2.join();
  t3.join();
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
  // Spot-check a batch over everything that must be present.
  std::vector<Key> probe;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) probe.push_back(1 + (rng.Next() % 1000000) * 4);
  std::vector<Value> vals(probe.size());
  tree.SearchBatch(probe.data(), probe.size(), vals.data());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(vals[i], ValueFor(probe[i]));
  }
}

TEST(BatchOps, InsertBatchReportsInsertVersusUpdate) {
  // Per-op status plumbing: fresh keys report kInserted, upserts report
  // kUpdated, and a duplicate later in the SAME batch sees the earlier
  // entry (batch order is the contract). Exercised on the core tree
  // (native path) first, then through every registry adapter — sharded
  // scatter, hashed scatter, and Wrap<T>'s probe-based loop alike.
  {
    pm::Pool pool(std::size_t{256} << 20);
    core::BTree tree(&pool);
    std::vector<core::Record> ops;
    for (Key k = 10; k <= 100; k += 10) ops.push_back({k, ValueFor(k)});
    ops.push_back({30, 999});  // duplicate within the batch
    std::vector<InsertStatus> st(ops.size());
    tree.InsertBatch(ops.data(), ops.size(), st.data());
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      EXPECT_EQ(st[i], InsertStatus::kInserted) << i;
    }
    EXPECT_EQ(st.back(), InsertStatus::kUpdated);
    EXPECT_EQ(tree.Search(30), 999u);
  }
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Enough keys to force structural splits under the fresh batch.
    std::vector<core::Record> fresh;
    for (Key k = 1; k <= 2000; ++k) fresh.push_back({k * 3, ValueFor(k * 3)});
    std::vector<InsertStatus> st(fresh.size());
    idx->InsertBatch(fresh.data(), fresh.size(), st.data());
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_EQ(st[i], InsertStatus::kInserted) << kind << " op " << i;
    }
    // Upsert half of them, interleaved with new keys: statuses must track
    // per op, not per batch.
    std::vector<core::Record> mixed;
    for (Key k = 1; k <= 200; ++k) {
      mixed.push_back({k * 3, ValueFor(k * 3) + 1});  // exists -> update
      mixed.push_back({k * 3 + 1, ValueFor(k * 3 + 1)});  // fresh -> insert
    }
    st.assign(mixed.size(), InsertStatus::kInserted);
    idx->InsertBatch(mixed.data(), mixed.size(), st.data());
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      const auto want =
          i % 2 == 0 ? InsertStatus::kUpdated : InsertStatus::kInserted;
      EXPECT_EQ(st[i], want) << kind << " op " << i;
      EXPECT_EQ(idx->Search(mixed[i].key), mixed[i].ptr) << kind;
    }
  }
}

TEST(ScanBatch, EmptyBatchAndZeroCapOps) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  for (Key k = 1; k <= 100; ++k) tree.Insert(k, ValueFor(k));
  // Empty batch is a no-op.
  tree.ScanBatch(nullptr, 0, nullptr);
  // cap == 0 ops are born finished and must not touch their (null) buffer,
  // even mixed into a group with live ops.
  core::Record out[16];
  ScanOp ops[3] = {{1, 0, nullptr}, {10, 16, out}, {200, 0, nullptr}};
  std::size_t counts[3] = {99, 99, 99};
  tree.ScanBatch(ops, 3, counts);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 16u);
  EXPECT_EQ(counts[2], 0u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i].key, Key{10} + i);
  }
}

TEST(ScanBatch, MatchesScalarWithDuplicateAndUnsortedStarts) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(20000, 21);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  // Start keys in arbitrary order, with duplicates (same start twice in
  // one group) and past-the-end starts that must return 0.
  std::vector<Key> starts;
  Rng rng(11);
  for (std::size_t i = 0; i < 200; ++i) {
    const Key s = i % 7 == 0 ? rng.Next() : keys[rng.NextBounded(keys.size())];
    starts.push_back(s);
    if (i % 5 == 0) starts.push_back(s);  // duplicate start
  }
  constexpr std::size_t kCap = 64;
  std::vector<core::Record> got(starts.size() * kCap);
  std::vector<std::size_t> counts(starts.size());
  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    ops.push_back({starts[i], kCap, got.data() + i * kCap});
  }
  // Odd batch sizes so groups of every residue size run.
  for (std::size_t i = 0; i < ops.size(); i += 13) {
    const std::size_t n = std::min<std::size_t>(13, ops.size() - i);
    tree.ScanBatch(ops.data() + i, n, counts.data() + i);
  }
  core::Record want[kCap];
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t wn = tree.Scan(starts[i], kCap, want);
    ASSERT_EQ(counts[i], wn) << "start " << starts[i];
    for (std::size_t j = 0; j < wn; ++j) {
      EXPECT_EQ(got[i * kCap + j].key, want[j].key);
      EXPECT_EQ(got[i * kCap + j].ptr, want[j].ptr);
    }
  }
}

TEST(ScanBatch, GroupedStallAccounting) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  constexpr std::size_t kScans = 1024;
  constexpr std::size_t kCap = 100;
  std::vector<core::Record> out(kScans * kCap);

  pm::ResetStats();
  const auto before_scalar = pm::Stats();
  for (std::size_t i = 0; i < kScans; ++i) {
    ASSERT_GT(tree.Scan(keys[i], kCap, out.data() + i * kCap), 0u);
  }
  const auto scalar = pm::Stats() - before_scalar;

  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < kScans; ++i) {
    ops.push_back({keys[i], kCap, out.data() + i * kCap});
  }
  std::vector<std::size_t> counts(kScans);
  const auto before_batched = pm::Stats();
  tree.ScanBatch(ops.data(), kScans, counts.data());
  const auto batched = pm::Stats() - before_batched;

  // Same node visits either way; the grouped descents plus wave-interleaved
  // leaf-chain drains collapse serialized stalls by roughly the group
  // factor (one grouped stall per wave of 8 sibling hops instead of one
  // per hop per scan). >= 2x is the CI perf-smoke gate's contract.
  EXPECT_EQ(batched.read_annotations, scalar.read_annotations);
  EXPECT_GE(scalar.read_stalls, 2 * batched.read_stalls);
  // Full groups fill the descent's stall with their own start leaves:
  // no parent hints, so their accounting is the hint-free one.
  EXPECT_EQ(batched.read_hints, 0u);
  EXPECT_EQ(batched.read_hint_hits, 0u);
}

// A lone scan, one op per ScanBatch call (Index::Scan's path), on a tree
// whose leaves all hang off one level-1 node (the root): the descent's
// stall also covers the next seven leaves the root names, so each
// 100-record scan visits exactly the nodes scalar Scan visits, returns
// the same records, and pays at most two stalls (one past seven hops).
TEST(ScanBatch, LoneScanTakesHintedLeavesWithoutAStall) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  auto keys = bench::UniformKeys(400, 8);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));
  ASSERT_EQ(tree.Height(), 2);
  std::sort(keys.begin(), keys.end());

  constexpr std::size_t kCap = 100;
  core::Record want[kCap], got[kCap];
  std::uint64_t hits = 0;
  for (const Key start : keys) {
    const auto s0 = pm::Stats();
    const std::size_t wn = tree.Scan(start, kCap, want);
    const auto scalar = pm::Stats() - s0;
    const ScanOp op{start, kCap, got};
    std::size_t gn = 0;
    const auto b0 = pm::Stats();
    tree.ScanBatch(&op, 1, &gn);
    const auto lone = pm::Stats() - b0;
    ASSERT_EQ(gn, wn) << start;
    for (std::size_t i = 0; i < wn; ++i) {
      ASSERT_EQ(got[i].key, want[i].key) << start;
      ASSERT_EQ(got[i].ptr, want[i].ptr) << start;
    }
    EXPECT_EQ(lone.read_annotations, scalar.read_annotations) << start;
    EXPECT_LE(lone.read_stalls, 2u) << start;
    EXPECT_LE(lone.read_hints, core::BTree::kBatchGroup - 1);
    EXPECT_LE(lone.read_hint_hits, lone.read_hints);
    hits += lone.read_hint_hits;
  }
  EXPECT_GT(hits, keys.size());  // the hints were taken, not just issued

  // Scan(k, 1) needs no leaf past its start leaf: no hints.
  const auto one0 = pm::Stats();
  const ScanOp one{keys[0], 1, got};
  std::size_t n1 = 0;
  tree.ScanBatch(&one, 1, &n1);
  EXPECT_EQ(n1, 1u);
  EXPECT_EQ((pm::Stats() - one0).read_hints, 0u);
}

// A leaf split whose parent insert failed (the internal split could not
// allocate) leaves the new right half reachable only through the B-link
// chain. The parent hints then skip it: the hop into it is an ordinary
// charged hop, and the hop out of it lands on the hinted leaf again.
// Lone scans across it must return exactly ScanRange's records.
TEST(ScanBatch, HintMismatchAtUnpublishedSplit) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(60000, 13);
  std::size_t loaded = 0;
  for (; loaded < 20000; ++loaded) {
    tree.Insert(keys[loaded], ValueFor(keys[loaded]));
  }
  auto& inj = pm::FaultInjector::Instance();
  inj.Reset();
  inj.FailAllocAtSite("btree/split-internal", 1);
  while (inj.faults_injected() == 0 && loaded < keys.size()) {
    ASSERT_NE(tree.TryInsert(keys[loaded], ValueFor(keys[loaded])),
              InsertStatus::kNoSpace);
    ++loaded;
  }
  const std::uint64_t injected = inj.faults_injected();
  inj.Reset();
  ASSERT_EQ(injected, 1u);

  std::vector<Key> live(keys.begin(),
                        keys.begin() + static_cast<std::ptrdiff_t>(loaded));
  std::sort(live.begin(), live.end());
  // The unpublished right half: its keys descend to its left neighbour,
  // so Scan(k, 1) reads three leaves (left, right half, its sibling)
  // where a routed key reads two.
  std::size_t first_unrouted = live.size();
  core::Record one[1];
  for (std::size_t i = 0; i < live.size() && first_unrouted == live.size();
       ++i) {
    const auto s0 = pm::Stats();
    ASSERT_EQ(tree.Scan(live[i], 1, one), 1u);
    if ((pm::Stats() - s0).read_annotations == 3) first_unrouted = i;
  }
  ASSERT_LT(first_unrouted, live.size());

  constexpr std::size_t kCap = 100;
  core::Record want[kCap], got[kCap];
  const std::size_t lo = first_unrouted > 150 ? first_unrouted - 150 : 0;
  for (std::size_t i = lo; i <= first_unrouted; ++i) {
    const Key start = live[i];
    const auto s0 = pm::Stats();
    const std::size_t wn = tree.ScanRange(start, ~Key{0}, want, kCap);
    const auto scalar = pm::Stats() - s0;
    const ScanOp op{start, kCap, got};
    std::size_t gn = 0;
    const auto b0 = pm::Stats();
    tree.ScanBatch(&op, 1, &gn);
    const auto lone = pm::Stats() - b0;
    ASSERT_EQ(gn, wn) << start;
    for (std::size_t j = 0; j < wn; ++j) {
      ASSERT_EQ(got[j].key, want[j].key) << start;
      ASSERT_EQ(got[j].ptr, want[j].ptr) << start;
    }
    EXPECT_EQ(lone.read_annotations, scalar.read_annotations) << start;
    if (i == first_unrouted) {
      // Descent lands left of the split; the hop into the right half is
      // charged, the hop out of it matches the first hint.
      EXPECT_GE(lone.read_stalls, 2u);
      EXPECT_GT(lone.read_hint_hits, 0u);
    }
  }
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(ScanBatch, SpansShardSeams) {
  for (const char* kind : {"sharded-fastfair:4", "hashed-fastfair:4"}) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Whole-key-space spread: every long scan crosses range-shard
    // boundaries (continuation into later shards) and, for the hash
    // partition, interleaves entries from all four shards per group.
    const auto keys = bench::UniformKeys(20000, 99);
    std::vector<core::Record> rows;
    for (const Key k : keys) rows.push_back({k, ValueFor(k)});
    idx->InsertBatch(rows.data(), rows.size(), nullptr);

    // Caps big enough that a range shard's tail forces the seam hop.
    constexpr std::size_t kCap = 600;
    std::vector<Key> starts;
    Rng rng(3);
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 32; ++i) {
      starts.push_back(keys[rng.NextBounded(keys.size())]);
    }
    // Starts sitting just below a likely shard seam: quartile keys.
    for (std::size_t q = 1; q < 4; ++q) {
      starts.push_back(sorted[q * sorted.size() / 4 - 2]);
    }
    std::vector<core::Record> got(starts.size() * kCap);
    std::vector<std::size_t> counts(starts.size());
    std::vector<ScanOp> ops;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ops.push_back({starts[i], kCap, got.data() + i * kCap});
    }
    idx->ScanBatch(ops.data(), ops.size(), counts.data());
    std::vector<core::Record> want(kCap);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::size_t wn = idx->Scan(starts[i], kCap, want.data());
      ASSERT_EQ(counts[i], wn) << kind << " start " << starts[i];
      for (std::size_t j = 0; j < wn; ++j) {
        ASSERT_EQ(got[i * kCap + j].key, want[j].key) << kind;
        ASSERT_EQ(got[i * kCap + j].ptr, want[j].ptr) << kind;
      }
    }
  }
}

TEST(ScanBatch, DefaultAdapterCoversEveryRegisteredKind) {
  // Kinds without a native ScanBatch ride Wrap<T>'s per-op loop; every
  // kind's multi-op batches must agree with its batches of one (Scan).
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    std::vector<core::Record> rows;
    for (Key k = 2; k <= 4096; k += 2) rows.push_back({k, ValueFor(k)});
    idx->InsertBatch(rows.data(), rows.size(), nullptr);

    constexpr std::size_t kCap = 48;
    std::vector<Key> starts = {1, 2, 3, 4000, 4096, 5000, 777, 777};
    std::vector<core::Record> got(starts.size() * kCap);
    std::vector<std::size_t> counts(starts.size());
    std::vector<ScanOp> ops;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ops.push_back({starts[i], kCap, got.data() + i * kCap});
    }
    idx->ScanBatch(ops.data(), ops.size(), counts.data());
    std::vector<core::Record> want(kCap);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::size_t wn = idx->Scan(starts[i], kCap, want.data());
      ASSERT_EQ(counts[i], wn) << kind << " start " << starts[i];
      for (std::size_t j = 0; j < wn; ++j) {
        ASSERT_EQ(got[i * kCap + j].key, want[j].key) << kind;
      }
    }
  }
}

TEST(ScanBatch, RacesSplitsAndUnlinks) {
  // Writers churn non-anchor keys (continuous splits; removes drain leaves,
  // and with reclaim_empty_leaves on, empty runs get unlinked from the
  // chain mid-scan) while readers drive grouped scans over the anchors.
  // Invariants per scan: sorted strictly ascending, every key >= min_key,
  // no duplicates (split copies must dedup), and every never-touched
  // anchor inside the covered range present exactly once.
  core::Options topts;
  topts.reclaim_empty_leaves = true;
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool, topts);
  std::vector<Key> anchors;
  for (Key k = 1000; k <= 400000; k += 1000) {
    anchors.push_back(k);
    tree.Insert(k, ValueFor(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    race::Rng rng(2026, 1);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.Below(400000) + 1;
      if (k % 1000 == 0) continue;
      if (rng.Chance(50)) {
        tree.Insert(k, ValueFor(k));
      } else {
        tree.Remove(k);
      }
      race::Perturb(rng);
    }
  });
  race::RunWorkers(3, [&](std::size_t w) {
    race::Rng rng(2026, 10 + w);
    constexpr std::size_t kGroup = 12;  // > kBatchGroup: two waves
    constexpr std::size_t kCap = 96;
    std::vector<core::Record> out(kGroup * kCap);
    ScanOp ops[kGroup];
    std::size_t counts[kGroup];
    for (int iter = 0; iter < 300; ++iter) {
      for (std::size_t j = 0; j < kGroup; ++j) {
        ops[j] = {anchors[rng.Below(anchors.size())], kCap,
                  out.data() + j * kCap};
      }
      tree.ScanBatch(ops, kGroup, counts);
      // The last op again, alone: the parent-hinted walk of a lone scan.
      tree.ScanBatch(ops + kGroup - 1, 1, counts + kGroup - 1);
      for (std::size_t j = 0; j < kGroup; ++j) {
        const core::Record* r = out.data() + j * kCap;
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < counts[j]; ++i) {
          if (r[i].key < ops[j].min_key) ++bad;
          if (i > 0 && r[i].key <= r[i - 1].key) ++bad;
        }
        if (counts[j] > 0) {
          // Anchors are immutable; all in [min, last] must be present.
          std::size_t found = 0, expect = 0;
          for (Key a = (ops[j].min_key + 999) / 1000 * 1000;
               a <= r[counts[j] - 1].key; a += 1000) {
            ++expect;
            bool hit = false;
            for (std::size_t i = 0; i < counts[j]; ++i) {
              if (r[i].key == a) { hit = true; break; }
            }
            if (hit) ++found;
          }
          if (found != expect) ++bad;
        }
        if (bad != 0) violations.fetch_add(bad);
      }
      race::Perturb(rng);
    }
  });
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(violations.load(), 0u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(ScanBatch, RacesConcurrentRebalance) {
  // Grouped scans on the range-sharded adapter while writers churn and a
  // maintenance thread repeatedly republishes shard boundaries. During the
  // migration window a scan may transiently observe an entry's copy in
  // two shards (same exposure as the scalar Scan — the repo's Rebalance
  // race suite asserts final state, not mid-window snapshots), so the
  // racing phase checks liveness + bounds only; exact ScanBatch == Scan
  // equivalence is asserted after the writers quiesce and a final
  // Rebalance settles the boundaries.
  pm::Pool pool(std::size_t{512} << 20);
  auto owned = MakeIndex("sharded-fastfair:4", &pool);
  auto& idx = *owned;
  auto* sharded = dynamic_cast<ShardedIndex*>(owned.get());
  ASSERT_NE(sharded, nullptr);
  std::vector<Key> anchors;
  const Key step = ~Key{0} / 4096;
  for (std::size_t i = 1; i <= 4000; ++i) {
    anchors.push_back(static_cast<Key>(i) * step);
    idx.Insert(anchors.back(), ValueFor(anchors.back()));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    race::Rng rng(77, 1);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = (rng.Next() | 1);  // odd: never collides with anchors
      if (rng.Chance(60)) {
        idx.Insert(k, ValueFor(k));
      } else {
        idx.Remove(k);
      }
      race::Perturb(rng);
    }
  });
  std::thread rebalancer([&] {
    race::Rng rng(77, 2);
    while (!stop.load(std::memory_order_acquire)) {
      sharded->Rebalance();
      race::Perturb(rng);
      std::this_thread::yield();
    }
  });
  race::RunWorkers(2, [&](std::size_t w) {
    race::Rng rng(77, 10 + w);
    constexpr std::size_t kGroup = 10;
    constexpr std::size_t kCap = 64;
    std::vector<core::Record> out(kGroup * kCap);
    ScanOp ops[kGroup];
    std::size_t counts[kGroup];
    for (int iter = 0; iter < 200; ++iter) {
      for (std::size_t j = 0; j < kGroup; ++j) {
        ops[j] = {anchors[rng.Below(anchors.size())], kCap,
                  out.data() + j * kCap};
      }
      idx.ScanBatch(ops, kGroup, counts);
      for (std::size_t j = 0; j < kGroup; ++j) {
        if (counts[j] > kCap) violations.fetch_add(1);
      }
      race::Perturb(rng);
    }
  });
  stop.store(true, std::memory_order_release);
  writer.join();
  rebalancer.join();
  EXPECT_EQ(violations.load(), 0u);
  // Quiesced: grouped and scalar scans must agree exactly, across the
  // freshly republished boundaries.
  sharded->Rebalance();
  constexpr std::size_t kCap = 64;
  std::vector<core::Record> got(anchors.size() / 16 * kCap);
  std::vector<std::size_t> counts(anchors.size() / 16);
  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < anchors.size() / 16; ++i) {
    ops.push_back({anchors[i * 16], kCap, got.data() + i * kCap});
  }
  idx.ScanBatch(ops.data(), ops.size(), counts.data());
  std::vector<core::Record> want(kCap);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t wn = idx.Scan(ops[i].min_key, kCap, want.data());
    ASSERT_EQ(counts[i], wn) << "op " << i;
    for (std::size_t j = 0; j < wn; ++j) {
      ASSERT_EQ(got[i * kCap + j].key, want[j].key);
    }
  }
}

TEST(BatchOps, DefaultAdapterCoversEveryRegisteredKind) {
  // The virtual batch entry points must behave for kinds without a native
  // pipeline too (Wrap<T>'s per-op loop).
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    std::vector<core::Record> ops;
    for (Key k = 2; k <= 512; k += 2) ops.push_back({k, ValueFor(k)});
    idx->InsertBatch(ops.data(), ops.size(), nullptr);
    std::vector<Key> probes;
    for (Key k = 1; k <= 512; ++k) probes.push_back(k);
    std::vector<Value> vals(probes.size());
    idx->SearchBatch(probes.data(), probes.size(), vals.data());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Key k = probes[i];
      EXPECT_EQ(vals[i], k % 2 == 0 ? ValueFor(k) : kNoValue) << kind;
    }
  }
}

TEST(BatchOps, RemoveBatchMatchesScalarOnEveryKind) {
  // Each batch mixes present keys, absent keys and one key repeated within
  // the batch; the results must equal removing the keys one at a time in
  // batch order (a repeated present key: true, then false).
  std::vector<std::string> kinds = AllIndexKinds();
  kinds.push_back("sharded-fastfair:4");
  kinds.push_back("hashed-fastfair:4");
  for (const auto& kind : kinds) {
    SCOPED_TRACE("kind=" + kind);
    pm::Pool pool(std::size_t{64} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Spread over the whole 2^64 space: every multi-key batch straddles
    // shard seams of the range partition (and of the hash one).
    const auto keys = bench::UniformKeys(2000, 5);
    std::vector<core::Record> ops;
    for (const Key k : keys) ops.push_back({k, ValueFor(k)});
    idx->InsertBatch(ops.data(), ops.size(), nullptr);
    std::set<Key> live(keys.begin(), keys.end());

    Rng rng(11);
    std::size_t next = 0;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{8}, std::size_t{9},
                                    std::size_t{17}}) {
      for (int round = 0; round < 4; ++round) {
        std::vector<Key> del;
        for (std::size_t i = 0; i < batch; ++i) {
          del.push_back(i % 4 == 3 ? (rng.Next() | 1) : keys[next++]);
        }
        if (batch > 1) del[batch / 2] = del[0];  // repeated within the batch
        if (const auto* sh = dynamic_cast<const ShardedIndex*>(idx.get());
            sh != nullptr && batch > 1) {
          std::set<std::size_t> shards;
          for (const Key k : del) shards.insert(sh->ShardOf(k));
          EXPECT_GT(shards.size(), 1u) << "batch=" << batch;
        }
        std::unique_ptr<bool[]> got(new bool[batch]);
        idx->RemoveBatch(del.data(), batch, got.get());
        for (std::size_t i = 0; i < batch; ++i) {
          EXPECT_EQ(got[i], live.erase(del[i]) == 1)
              << "batch=" << batch << " i=" << i;
        }
        if (batch > 1) {
          EXPECT_TRUE(got[0]) << "batch=" << batch;
          EXPECT_FALSE(got[batch / 2]) << "batch=" << batch;
        }
      }
    }
    EXPECT_EQ(idx->CountEntries(), live.size());
    std::vector<Value> vals(keys.size());
    idx->SearchBatch(keys.data(), keys.size(), vals.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(vals[i], live.count(keys[i]) ? ValueFor(keys[i]) : kNoValue);
    }
  }
}

}  // namespace
}  // namespace fastfair
