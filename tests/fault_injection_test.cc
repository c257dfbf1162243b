// Deterministic fault-injection sweeps (DESIGN.md §11, pm/fault.h).
//
// What is being proven, in order of increasing integration:
//
//  1. The injector's modes do exactly what they claim against a raw Pool
//     (nth / every-kth / per-site / fail-all allocation faults).
//  2. The core tree survives an allocation failure at EVERY distinct
//     allocation site its insert path has (discovered with a RecordOnly
//     pass, then swept one site at a time): no committed key is lost, the
//     tree's own invariant checker passes, and the reopen-time fsck
//     (pm::CheckPool) comes back clean.
//  3. Every kind in the index registry survives the same sweep under a
//     seeded insert/delete/scan mix — the op either succeeds or reports
//     kNoSpace (baselines: throws std::bad_alloc, mapped by Wrap<T>'s
//     InsertBatch); the process never aborts and the pool's free lists
//     stay sound. Without a status array the batch throws std::bad_alloc
//     instead, like Insert.
//  4. The SimMem persistence faults (dropped flush, flush deferred past
//     its fence, torn 8-byte store) land in the event log exactly as
//     specified — the raw material the crash-enumeration suites consume.
//
// Determinism contract (mirrors tests/race_sched.h): the sweeps derive
// every choice from one 64-bit seed, printed on entry. A CI failure
// replays with
//   FASTFAIR_FAULT_SEED=<seed> ./build/fault_injection_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/btree.h"
#include "crashsim/simmem.h"
#include "index/index.h"
#include "pm/check.h"
#include "pm/fault.h"
#include "pm/pool.h"
#include "race_sched.h"

namespace fastfair {
namespace {

using pm::FaultInjector;

constexpr std::size_t kPoolBytes = std::size_t{64} << 20;

// Whatever a test does (including failing an ASSERT mid-sweep), the
// process-global injector must not stay armed into the next test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Instance().Reset(); }
  ~InjectorGuard() { FaultInjector::Instance().Reset(); }
};

std::uint64_t SweepSeed() {
  static const std::uint64_t seed = [] {
    const std::uint64_t s = pm::FaultSeedFromEnv(0xfa57'fa12'0b5e'ed01ull);
    std::printf("fault sweep seed: FASTFAIR_FAULT_SEED=%llu\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

// ---------------------------------------------------------------------------
// 1. Injector modes against a raw Pool.
// ---------------------------------------------------------------------------

TEST(FaultInjectorModes, FailsExactlyTheNthAllocation) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  pm::Pool pool(std::size_t{1} << 20);
  inj.FailAllocNth(2);
  EXPECT_NE(pool.TryAlloc(64), nullptr);
  EXPECT_EQ(pool.TryAlloc(64), nullptr);  // the chosen victim
  EXPECT_NE(pool.TryAlloc(64), nullptr);  // one-shot: later allocs succeed
  EXPECT_EQ(inj.faults_injected(), 1u);
  EXPECT_EQ(inj.allocs_observed(), 3u);
}

TEST(FaultInjectorModes, FailsEveryKthAllocation) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  pm::Pool pool(std::size_t{1} << 20);
  inj.FailAllocEvery(3);
  for (int round = 0; round < 4; ++round) {
    EXPECT_NE(pool.TryAlloc(64), nullptr);
    EXPECT_NE(pool.TryAlloc(64), nullptr);
    EXPECT_EQ(pool.TryAlloc(64), nullptr);
  }
  EXPECT_EQ(inj.faults_injected(), 4u);
}

TEST(FaultInjectorModes, FailAllSimulatesExhaustionUntilDisarmed) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  pm::Pool pool(std::size_t{1} << 20);
  inj.FailAllAllocs(true);
  EXPECT_EQ(pool.TryAlloc(64), nullptr);
  EXPECT_EQ(pool.TryAlloc(4096), nullptr);
  EXPECT_THROW(pool.Alloc(64), std::bad_alloc);  // throwing path agrees
  inj.FailAllAllocs(false);
  EXPECT_NE(pool.TryAlloc(64), nullptr);
}

TEST(FaultInjectorModes, SiteTaggingCountsAndFailsPerSite) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  pm::Pool pool(std::size_t{1} << 20);

  inj.RecordOnly();
  {
    FaultInjector::SiteScope site("test/site-a");
    EXPECT_NE(pool.TryAlloc(64), nullptr);
  }
  EXPECT_NE(pool.TryAlloc(64), nullptr);  // untagged
  const auto sites = inj.SitesSeen();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "test/site-a"), sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), FaultInjector::kUntagged),
            sites.end());
  EXPECT_EQ(inj.allocs_observed(), 2u);

  // Fail the 2nd allocation AT the site; allocations elsewhere — even
  // interleaved — never count toward it.
  inj.Reset();
  inj.FailAllocAtSite("test/site-a", 2);
  {
    FaultInjector::SiteScope site("test/site-a");
    EXPECT_NE(pool.TryAlloc(64), nullptr);  // site #1
  }
  EXPECT_NE(pool.TryAlloc(64), nullptr);  // untagged, doesn't advance site
  {
    FaultInjector::SiteScope site("test/site-a");
    EXPECT_EQ(pool.TryAlloc(64), nullptr);  // site #2: the victim
    EXPECT_NE(pool.TryAlloc(64), nullptr);  // site #3
  }
  EXPECT_EQ(inj.faults_injected(), 1u);
}

// ---------------------------------------------------------------------------
// 2. Core tree: alloc failure at every site its insert path has.
// ---------------------------------------------------------------------------

// Enough inserts to split leaves, split internals, and grow the root twice
// (Node<512> holds 27 records, so ~56 leaves => a two-level inner tier).
constexpr std::size_t kTreeOps = 1500;

Key TreeKey(race::Rng& rng) { return 1 + rng.Below(4 * kTreeOps); }

TEST(CoreTreeFaults, SurvivesAllocFailureAtEverySite) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  const std::uint64_t seed = SweepSeed();

  // Discovery pass: observe which sites an insert-heavy run allocates at.
  inj.RecordOnly();
  {
    pm::Pool pool(kPoolBytes);
    core::BTree tree(&pool);
    race::Rng rng(seed, /*stream=*/1);
    for (std::size_t i = 0; i < kTreeOps; ++i) {
      const Key k = TreeKey(rng);
      ASSERT_NE(tree.TryInsert(k, 2 * k + 1), InsertStatus::kNoSpace);
    }
  }
  const std::vector<std::string> sites = inj.SitesSeen();
  inj.Reset();
  // The three tagged tree sites must all be exercised by the workload, or
  // the sweep below silently proves nothing.
  for (const char* want :
       {"btree/split-leaf", "btree/split-internal", "btree/root-growth"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), want), sites.end())
        << "discovery pass never allocated at " << want;
  }

  std::uint64_t injected_total = 0;
  for (const std::string& site : sites) {
    race::Rng pick(seed, /*stream=*/2);
    std::set<std::uint64_t> nths = {1, 2 + pick.Below(6)};
    for (const std::uint64_t nth : nths) {
      pm::Pool pool(kPoolBytes);
      core::BTree tree(&pool);
      inj.FailAllocAtSite(site, nth);

      // Same deterministic op stream as discovery; committed = every key
      // whose insert did NOT report kNoSpace (a root-growth failure still
      // commits the key — the split stays B-link reachable).
      std::map<Key, Value> committed;
      race::Rng rng(seed, /*stream=*/1);
      for (std::size_t i = 0; i < kTreeOps; ++i) {
        const Key k = TreeKey(rng);
        if (tree.TryInsert(k, 2 * k + 1) != InsertStatus::kNoSpace) {
          committed[k] = 2 * k + 1;
        }
      }
      injected_total += inj.faults_injected();
      inj.Reset();

      // Zero committed-key loss, structurally valid, fsck-clean.
      for (const auto& [k, v] : committed) {
        ASSERT_EQ(tree.Search(k), v)
            << "lost committed key " << k << " (site=" << site
            << " nth=" << nth << " seed=" << seed << ")";
      }
      std::string msg;
      EXPECT_TRUE(tree.CheckInvariants(&msg))
          << msg << " (site=" << site << " nth=" << nth << ")";
      pool.SetRoot(tree.meta());
      const pm::CheckReport report = pm::CheckPool(&pool);
      EXPECT_TRUE(report.ok()) << report.ToString() << "(site=" << site
                               << " nth=" << nth << " seed=" << seed << ")";
      EXPECT_EQ(report.entries, committed.size());
    }
  }
  // The sweep must have actually injected faults (split-leaf nth=1 alone
  // guarantees several) — otherwise the site list went stale.
  EXPECT_GT(injected_total, 0u);
}

// ---------------------------------------------------------------------------
// 3. Registry sweep: every kind x insert/delete/scan mix x every site.
// ---------------------------------------------------------------------------

// Per-key set of acceptable post-run values; kNoValue in the set means
// "absent is acceptable". Ops that fail with kNoSpace (or throw bad_alloc
// from a baseline's Remove) leave the key in a may-or-may-not-have-applied
// state, so both the before and after values stay acceptable; the next
// SUCCESSFUL op on the key collapses the set back to one entry.
using Model = std::map<Key, std::vector<Value>>;

void NoteUpsertOk(Model* m, Key k, Value v) { (*m)[k] = {v}; }

void NoteUpsertFailed(Model* m, Key k, Value v) {
  auto [it, fresh] = m->try_emplace(k, std::vector<Value>{kNoValue});
  auto& allowed = it->second;
  if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) {
    allowed.push_back(v);
  }
}

void NoteRemoved(Model* m, Key k) { (*m)[k] = {kNoValue}; }

void NoteRemoveFailed(Model* m, Key k) {
  auto [it, fresh] = m->try_emplace(k, std::vector<Value>{kNoValue});
  auto& allowed = it->second;
  if (std::find(allowed.begin(), allowed.end(), kNoValue) == allowed.end()) {
    allowed.push_back(kNoValue);
  }
}

constexpr std::size_t kMixOps = 400;

// Seeded insert/delete/scan mix (70/20/10). Returns the model of acceptable
// final states; guaranteed not to let any exception escape besides gtest's.
Model RunMix(Index* idx, std::uint64_t seed) {
  Model model;
  race::Rng rng(seed, /*stream=*/3);
  core::Record scan_buf[16];
  for (std::size_t i = 0; i < kMixOps; ++i) {
    const Key k = 1 + rng.Below(600);  // small space => updates and splits
    const std::uint64_t pct = rng.Below(100);
    if (pct < 70) {
      const Value v = (k << 20) | static_cast<Value>(i + 1);
      core::Record op{k, v};
      InsertStatus st = InsertStatus::kInserted;
      idx->InsertBatch(&op, 1, &st);
      if (st == InsertStatus::kNoSpace) {
        NoteUpsertFailed(&model, k, v);
      } else {
        NoteUpsertOk(&model, k, v);
      }
    } else if (pct < 90) {
      try {
        idx->Remove(k);
        NoteRemoved(&model, k);
      } catch (const std::bad_alloc&) {
        NoteRemoveFailed(&model, k);  // may or may not have unlinked
      }
    } else {
      try {
        idx->Scan(k, 16, scan_buf);  // reads must keep serving throughout
      } catch (const std::bad_alloc&) {
        // A scan never commits state; shedding it is acceptable.
      }
    }
  }
  return model;
}

TEST(RegistryFaults, EveryKindSurvivesAllocFailureAtEverySite) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  const std::uint64_t seed = SweepSeed();

  for (const std::string& kind : AllIndexKinds()) {
    SCOPED_TRACE("kind=" + kind);
    std::printf("  sweeping %s\n", kind.c_str());
    std::fflush(stdout);
    // Discovery: arm AFTER construction so constructor-time allocations
    // (tree meta, initial roots, shard directories) are not in the sweep —
    // a kind that cannot even construct has no committed keys to lose.
    std::vector<std::string> sites;
    {
      pm::Pool pool(kPoolBytes);
      auto idx = MakeIndex(kind, &pool);
      inj.RecordOnly();
      RunMix(idx.get(), seed);
      sites = inj.SitesSeen();
      inj.Reset();
    }
    if (sites.empty()) {
      // Only the volatile concurrency reference lives entirely in DRAM;
      // a PM kind with no pool allocations would make the sweep vacuous.
      EXPECT_NE(kind.find("blink"), std::string::npos)
          << kind << ": mix never allocated from the pool; sweep is vacuous";
      continue;
    }

    for (const std::string& site : sites) {
      race::Rng pick(seed, /*stream=*/4);
      std::set<std::uint64_t> nths = {1, 2 + pick.Below(4)};
      for (const std::uint64_t nth : nths) {
        SCOPED_TRACE("site=" + site + " nth=" + std::to_string(nth) +
                     " seed=" + std::to_string(seed));
        pm::Pool pool(kPoolBytes);
        auto idx = MakeIndex(kind, &pool);
        inj.FailAllocAtSite(site, nth);
        const Model model = RunMix(idx.get(), seed);
        inj.Reset();

        // No committed key lost, no rejected op half-applied outside its
        // acceptable set.
        for (const auto& [k, allowed] : model) {
          const Value got = idx->Search(k);
          EXPECT_NE(std::find(allowed.begin(), allowed.end(), got),
                    allowed.end())
              << "key " << k << " has value " << got
              << " outside its acceptable post-fault set";
        }
        // Scans still serve, in order, over the survivors.
        auto it = idx->NewScanIterator(0);
        core::Record rec;
        Key prev = 0;
        bool first = true;
        while (it->Next(&rec)) {
          if (!first) {
            EXPECT_LT(prev, rec.key) << "scan order broken";
          }
          prev = rec.key;
          first = false;
        }
        // Allocator-level fsck: free lists sound, accounting consistent.
        // (No SetRoot here — registry kinds own their roots privately, so
        // CheckPool audits the pool without the tree walk.)
        const pm::CheckReport report = pm::CheckPool(&pool);
        EXPECT_TRUE(report.ok()) << report.ToString();
      }
    }
  }
}

// The null-out batch contract (DESIGN.md §11.1): an InsertBatch without a
// status array throws std::bad_alloc once the pool runs dry, exactly like
// Insert. It must neither return normally with ops silently dropped nor
// throw anything else, and every key it did store reads back its own value.
TEST(RegistryFaults, NullOutInsertBatchThrowsOnExhaustion) {
  constexpr std::size_t kOps = 200000;
  std::vector<core::Record> ops(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    // Spread over the key space (every shard fills), distinct, nonzero.
    ops[i] = {Key{i + 1} * 0x9E3779B97F4A7C15ull, Value{i + 1}};
  }
  for (const std::string& kind : AllIndexKinds()) {
    SCOPED_TRACE("kind=" + kind);
    pm::Pool pool(std::size_t{1} << 20);
    auto idx = MakeIndex(kind, &pool);
    bool threw_bad_alloc = false;
    try {
      idx->InsertBatch(ops.data(), kOps, nullptr);
    } catch (const std::bad_alloc&) {
      threw_bad_alloc = true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw \"" << e.what() << "\", not std::bad_alloc";
    } catch (...) {
      ADD_FAILURE() << "threw a non-std::exception, not std::bad_alloc";
    }
    if (kind == "blink") {  // volatile DRAM reference: never uses the pool
      EXPECT_FALSE(threw_bad_alloc);
      continue;
    }
    EXPECT_TRUE(threw_bad_alloc)
        << "returned normally: ops past the exhaustion were dropped";
    std::size_t stored = 0;
    for (const core::Record& op : ops) {
      const Value v = idx->Search(op.key);
      if (v == kNoValue) continue;
      ++stored;
      ASSERT_EQ(v, op.ptr) << "key " << op.key;
    }
    EXPECT_GT(stored, 0u);
  }
}

// ---------------------------------------------------------------------------
// 4. SimMem persistence faults land in the event log as specified.
// ---------------------------------------------------------------------------

TEST(SimMemFaults, DroppedFlushNeverReachesTheLog) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  alignas(8) std::uint64_t buf[4] = {0, 0, 0, 0};
  crashsim::SimMem sim;
  sim.Adopt(buf, sizeof(buf));

  inj.DropFlushNth(2);
  sim.Store64(&buf[0], 11);
  sim.Flush(&buf[0]);  // #1: kept
  sim.Fence();
  sim.Store64(&buf[1], 22);
  sim.Flush(&buf[1]);  // #2: dropped — the line never reaches its fence
  sim.Fence();
  inj.Reset();

  using Kind = crashsim::Event::Kind;
  std::size_t flushes = 0;
  for (const auto& e : sim.events()) flushes += e.kind == Kind::kFlush;
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(sim.events().back().kind, Kind::kFence);
  EXPECT_EQ(inj.faults_injected(), 0u);  // Reset cleared it; mode did fire
  // Program-order view is unaffected: the cache still has the store.
  EXPECT_EQ(sim.Load64(&buf[1]), 22u);
}

TEST(SimMemFaults, DeferredFlushLandsAfterItsFence) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  alignas(8) std::uint64_t buf[2] = {0, 0};
  crashsim::SimMem sim;
  sim.Adopt(buf, sizeof(buf));

  inj.ReorderFlushNth(1);
  sim.Store64(&buf[0], 7);
  sim.Flush(&buf[0]);
  sim.Fence();
  inj.Reset();

  using Kind = crashsim::Event::Kind;
  const auto& ev = sim.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].kind, Kind::kStore);
  EXPECT_EQ(ev[1].kind, Kind::kFence);  // fence no longer covers the flush
  EXPECT_EQ(ev[2].kind, Kind::kFlush);
  EXPECT_EQ(ev[2].addr, reinterpret_cast<std::uintptr_t>(&buf[0]));
}

TEST(SimMemFaults, TornStorePersistsOnlyTheLowHalf) {
  InjectorGuard guard;
  auto& inj = FaultInjector::Instance();
  alignas(8) std::uint64_t buf[1] = {0};
  crashsim::SimMem sim;
  sim.Adopt(buf, sizeof(buf));
  sim.Store64(&buf[0], 0x1111'2222'3333'4444ull);  // fully persisted baseline

  inj.TearStoreNth(1);
  sim.Store64(&buf[0], 0x5555'6666'7777'8888ull);
  inj.Reset();

  using Kind = crashsim::Event::Kind;
  const auto& ev = sim.events();
  ASSERT_EQ(ev.size(), 2u);
  ASSERT_EQ(ev[1].kind, Kind::kStore);
  // The medium got a hybrid: low 4 bytes new, high 4 bytes old.
  EXPECT_EQ(ev[1].value, 0x1111'2222'7777'8888ull);
  // The program-order (cache) view saw the full write complete.
  EXPECT_EQ(sim.Load64(&buf[0]), 0x5555'6666'7777'8888ull);
}

}  // namespace
}  // namespace fastfair
