// Tests for the background maintenance tier (DESIGN.md §6): the scheduler
// (MaintenanceThread quantum accounting, Start/Stop, WaitIdle, RunPass),
// the pm drain task retiring epoch-parked limbo without a writer, the core
// sweep task unlinking abandoned drained runs, and the imbalance policy
// closing the counters→Rebalance loop on its own thread.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "core/btree.h"
#include "index/index.h"
#include "index/sharded.h"
#include "maint/tasks.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "pm/reclaim.h"
#include "test_util.h"

namespace fastfair {
namespace {

using maint::MaintenanceTask;
using maint::MaintenanceThread;
using maint::QuantumResult;
using maint::TaskOptions;

// A scripted task: returns canned results, counts invocations.
class FakeTask final : public MaintenanceTask {
 public:
  explicit FakeTask(std::vector<QuantumResult> script)
      : script_(std::move(script)) {}
  std::string_view name() const override { return "fake"; }
  QuantumResult RunQuantum() override {
    const std::size_t i = calls_++;
    if (i < script_.size()) return script_[i];
    QuantumResult rest;
    rest.at_rest = true;
    return rest;
  }
  std::size_t calls() const { return calls_; }

 private:
  std::vector<QuantumResult> script_;
  std::size_t calls_ = 0;
};

TEST(MaintenanceThread, RunPassStopsWhenAllTasksRest) {
  MaintenanceThread mt;
  auto owned = std::make_unique<FakeTask>(std::vector<QuantumResult>{
      {.items = 3, .bytes = 64, .at_rest = false},
      {.items = 1, .bytes = 0, .at_rest = false},
      {.items = 0, .bytes = 0, .at_rest = true},
  });
  FakeTask* task = owned.get();
  mt.AddTask(std::move(owned));
  const std::size_t useful = mt.RunPass();
  EXPECT_EQ(useful, 2u);
  EXPECT_EQ(task->calls(), 3u);
  const auto reports = mt.StatsSnapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "fake");
  EXPECT_EQ(reports[0].stats.quanta, 3u);
  EXPECT_EQ(reports[0].stats.useful_quanta, 2u);
  EXPECT_EQ(reports[0].stats.items, 4u);
  EXPECT_EQ(reports[0].stats.bytes, 64u);
}

TEST(MaintenanceThread, StartStopAndWaitIdle) {
  MaintenanceThread::Options mo;
  mo.interval = std::chrono::microseconds(100);
  MaintenanceThread mt(mo);
  mt.AddTask(std::make_unique<FakeTask>(std::vector<QuantumResult>{
      {.items = 1, .bytes = 0, .at_rest = false},
  }));
  EXPECT_FALSE(mt.running());
  mt.Start();
  EXPECT_TRUE(mt.running());
  mt.Start();  // idempotent
  EXPECT_TRUE(mt.WaitIdle(std::chrono::milliseconds(5000)));
  mt.Stop();
  EXPECT_FALSE(mt.running());
  mt.Stop();  // idempotent
  const auto reports = mt.StatsSnapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].stats.quanta, 2u);
  EXPECT_EQ(reports[0].stats.items, 1u);
}

TEST(PoolDrain, BackgroundThreadRetiresParkedLimboWithoutAWriter) {
  // The acceptance shape of the churn bench's idle phase, as a unit test:
  // frees parked under a pinned epoch, the writer hands its residue over
  // and goes silent, the background thread must bring limbo to zero.
  pm::Pool pool(std::size_t{32} << 20);
  constexpr int kBlocks = 500;
  constexpr std::size_t kSize = 256;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.Alloc(kSize));
  {
    pm::EpochGuard pin;  // lagging-reader stand-in: nothing can recycle
    for (void* p : blocks) pool.Free(p, kSize);
    pool.FlushThreadLimbo();
  }
  const std::size_t parked = pool.limbo_bytes();
  EXPECT_GE(parked, kBlocks * kSize / 2)
      << "pinned frees must park in the overflow limbo";

  MaintenanceThread::Options mo;
  mo.interval = std::chrono::microseconds(100);
  MaintenanceThread mt(mo);
  mt.AddTask(std::make_unique<maint::PoolDrainTask>(&pool));
  mt.Start();
  const bool drained =
      testutil::PollUntil([&] { return pool.limbo_bytes() == 0; });
  mt.Stop();
  EXPECT_TRUE(drained);
  EXPECT_EQ(pool.limbo_bytes(), 0u);
  const auto reports = mt.StatsSnapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].stats.bytes, parked);
  // The drained blocks are really recyclable: same-size allocations come
  // from the free lists, not the bump offset.
  const std::size_t used_before = pool.used();
  for (int i = 0; i < kBlocks / 2; ++i) pool.Alloc(kSize);
  EXPECT_EQ(pool.used(), used_before)
      << "allocations after the drain must recycle, not bump";
}

TEST(PoolDrain, DrainQuantumHonorsBudget) {
  pm::Pool pool(std::size_t{32} << 20);
  constexpr int kBlocks = 100;
  constexpr std::size_t kSize = 128;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.Alloc(kSize));
  {
    pm::EpochGuard pin;
    for (void* p : blocks) pool.Free(p, kSize);
    pool.FlushThreadLimbo();
  }
  const std::size_t parked = pool.limbo_bytes();
  ASSERT_GT(parked, 0u);
  // One bounded quantum drains at most 10 blocks.
  const std::size_t drained = pool.DrainLimboQuantum(10);
  EXPECT_EQ(drained, 10 * kSize);
  EXPECT_EQ(pool.limbo_bytes(), parked - drained);
  // An unbounded quantum finishes the job.
  EXPECT_EQ(pool.DrainLimboQuantum(), parked - drained);
  EXPECT_EQ(pool.limbo_bytes(), 0u);
}

TEST(SweepTask, ReclaimsAbandonedDrainedRuns) {
  // The stranding case the sweep exists for: remove a key range in
  // ascending order and never return — each Remove only looks at its
  // leaf's right sibling, so leaves that empty behind the cursor strand
  // (no later traffic re-enters the range from the left).
  pm::Pool pool(std::size_t{256} << 20);
  core::Options opts;
  opts.reclaim_empty_leaves = true;
  core::BTree tree(&pool, opts);
  constexpr std::uint64_t kN = 30000;
  for (std::uint64_t i = 1; i <= kN; ++i) tree.Insert(i << 8, i);
  // Drain the bottom 3/4 ascending; keep the top quarter live.
  for (std::uint64_t i = 1; i <= (3 * kN) / 4; ++i) {
    ASSERT_TRUE(tree.Remove(i << 8));
  }
  const auto before = tree.GetTreeStats();
  ASSERT_GT(before.nodes_per_level[0], kN / 64)
      << "ascending drain must actually strand empty leaves";

  pm::ResetStats();
  const pm::ThreadStats start = pm::Stats();
  // Drive the sweep through the task (cursor persistence across quanta).
  maint::SweepTask<core::BTree> task("sweep:test", &tree);
  std::size_t unlinked = 0;
  for (int q = 0; q < 100000; ++q) {
    const QuantumResult r = task.RunQuantum();
    unlinked += r.items;
    if (r.at_rest) break;
  }
  EXPECT_GT(unlinked, 0u);
  const pm::ThreadStats delta = pm::Stats() - start;
  EXPECT_GT(delta.frees, 0u) << "swept leaves must return to the pool";

  const auto after = tree.GetTreeStats();
  EXPECT_LT(after.nodes_per_level[0], before.nodes_per_level[0] / 2)
      << "the stranded run must actually shrink the leaf chain";
  EXPECT_EQ(after.entries, kN / 4);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
  // Surviving keys are all reachable.
  for (std::uint64_t i = (3 * kN) / 4 + 1; i <= kN; ++i) {
    ASSERT_EQ(tree.Search(i << 8), i);
  }
  // A second full sweep of the clean tree finds nothing.
  std::size_t again = 0;
  for (int q = 0; q < 100000; ++q) {
    const QuantumResult r = task.RunQuantum();
    again += r.items;
    if (r.at_rest) break;
  }
  EXPECT_EQ(again, 0u);
}

TEST(SweepTask, RunPassRecoversRunsAbandonedAfterARest) {
  // Regression for the pass-coverage hole: a task that rested after a
  // clean wrap must not skip a run abandoned since — RunPass resets the
  // sweep's coverage state (OnPassBegin), so every synchronous window
  // covers the whole chain no matter what the task remembers.
  pm::Pool pool(std::size_t{256} << 20);
  core::Options opts;
  opts.reclaim_empty_leaves = true;
  core::BTree tree(&pool, opts);
  constexpr std::uint64_t kN = 30000;
  for (std::uint64_t i = 1; i <= kN; ++i) tree.Insert(i << 8, i);

  MaintenanceThread mt;
  mt.AddTask(
      std::make_unique<maint::SweepTask<core::BTree>>("sweep:test", &tree));
  mt.RunPass();  // full clean wrap: the task now remembers itself at rest

  // Strand a run deep in the chain — far beyond one quantum's budget from
  // the head — by draining a middle block in ascending order.
  for (std::uint64_t i = kN / 2; i < kN / 2 + kN / 4; ++i) {
    ASSERT_TRUE(tree.Remove(i << 8));
  }
  const auto before = tree.GetTreeStats();
  mt.RunPass();
  const auto after = tree.GetTreeStats();
  EXPECT_LT(after.nodes_per_level[0] + kN / 256, before.nodes_per_level[0])
      << "the second pass must reclaim the newly-stranded run";
  EXPECT_EQ(after.entries, kN - kN / 4);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(SweepTask, CollectedThroughIndexRegistry) {
  // The adapter layer wires the sweep automatically for reclaiming kinds
  // (and only for them), through every composite level.
  pm::Pool pool(std::size_t{64} << 20);
  const TaskOptions topts;
  {
    auto idx = MakeIndex("fastfair-reclaim", &pool);
    std::vector<std::unique_ptr<MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0]->name(), "sweep:fastfair-reclaim");
  }
  {
    auto idx = MakeIndex("fastfair", &pool);  // no reclamation => no tasks
    std::vector<std::unique_ptr<MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    EXPECT_TRUE(tasks.empty());
  }
  {
    auto idx = MakeIndex("sharded-fastfair-reclaim:4", &pool);
    std::vector<std::unique_ptr<MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    // One imbalance policy + one sweep per shard.
    ASSERT_EQ(tasks.size(), 5u);
    EXPECT_EQ(tasks[0]->name(), "rebalance:sharded-fastfair-reclaim:4");
  }
  {
    auto idx = MakeIndex("hashed-fastfair-reclaim:4", &pool);
    std::vector<std::unique_ptr<MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    EXPECT_EQ(tasks.size(), 4u);  // sweeps only: hash needs no policy
  }
  {
    auto idx = MakeIndex("sharded-fastfair:4", &pool);
    std::vector<std::unique_ptr<MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    EXPECT_EQ(tasks.size(), 1u);  // policy only: inner kind has no sweep
  }
}

TEST(ImbalancePolicy, RebalancesInBackground) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = std::make_unique<ShardedIndex>(
      "sharded", 4,
      [&pool](std::size_t) { return MakeIndex("fastfair", &pool); });
  TaskOptions topts;
  topts.rebalance_threshold = 1.5;
  std::vector<std::unique_ptr<MaintenanceTask>> tasks;
  idx->CollectMaintenanceTasks(topts, &tasks);
  ASSERT_EQ(tasks.size(), 1u);

  // Clustered keys: everything lands in shard 0 under the uniform
  // partition.
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    idx->Insert((i + 1) << 32, i + 1);
  }
  ASSERT_GT(ImbalanceRatio(idx->ShardEntryCounts()), 1.5);

  MaintenanceThread::Options mo;
  mo.interval = std::chrono::microseconds(100);
  MaintenanceThread mt(mo);
  for (auto& t : tasks) mt.AddTask(std::move(t));
  mt.Start();
  EXPECT_TRUE(mt.WaitIdle(std::chrono::milliseconds(30000)));
  mt.Stop();

  const auto reports = mt.StatsSnapshot();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].stats.items, 1u) << "policy must have rebalanced";
  EXPECT_LE(ImbalanceRatio(idx->ShardEntryCounts()), 1.5);
  EXPECT_EQ(idx->CountEntries(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(idx->Search((i + 1) << 32), i + 1);
  }
}

TEST(ImbalancePolicy, RestsBelowThresholdAndOnTinyIndexes) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = std::make_unique<ShardedIndex>(
      "sharded", 4,
      [&pool](std::size_t) { return MakeIndex("fastfair", &pool); });
  TaskOptions topts;
  maint::ImbalancePolicyTask task(idx.get(), topts);
  // Empty index: at rest, no rebalance.
  QuantumResult r = task.RunQuantum();
  EXPECT_TRUE(r.at_rest);
  EXPECT_EQ(r.items, 0u);
  // A few clustered keys — wildly imbalanced but below the size gate, so
  // the policy must not thrash on noise.
  for (std::uint64_t i = 0; i < 32; ++i) idx->Insert((i + 1) << 32, i + 1);
  r = task.RunQuantum();
  EXPECT_TRUE(r.at_rest);
  EXPECT_EQ(r.items, 0u);
}

}  // namespace
}  // namespace fastfair
