// FlushScope write-combining (pm/persist.h, DESIGN.md §8.2): equivalence
// of the persisted outcome with strictly fewer flushes/fences, scope
// mechanics (dedupe, deferral, drain), the strict-mode no-op guarantee,
// and durability of coalesced inserts across a pool reopen.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "core/btree.h"
#include "pm/persist.h"
#include "pm/pool.h"

namespace fastfair {
namespace {

Value ValueFor(Key k) { return 2 * k + 1; }

pm::Config RelaxedWcConfig() {
  pm::Config cfg;
  cfg.persistency = pm::Persistency::kRelaxed;
  cfg.coalesce_flushes = true;
  return cfg;
}

struct ConfigRestorer {
  ~ConfigRestorer() { pm::SetConfig(pm::Config{}); }
};

TEST(FlushScope, DedupesLinesAndDefersFences) {
  ConfigRestorer restore;
  pm::SetConfig(RelaxedWcConfig());
  alignas(64) char buf[256];
  pm::ResetStats();
  const auto before = pm::Stats();
  {
    pm::FlushScope scope;
    EXPECT_TRUE(pm::FlushScope::Active());
    for (int i = 0; i < 5; ++i) pm::Persist(buf, 64);  // same line 5x
    pm::Persist(buf + 64, 128);  // two more lines
    // Nothing reached the hardware yet.
    EXPECT_EQ((pm::Stats() - before).flush_lines, 0u);
    EXPECT_EQ((pm::Stats() - before).fences, 0u);
  }
  EXPECT_FALSE(pm::FlushScope::Active());
  const auto delta = pm::Stats() - before;
  EXPECT_EQ(delta.flush_lines, 3u);      // 3 distinct lines
  EXPECT_EQ(delta.fences, 1u);           // one trailing fence
  EXPECT_EQ(delta.wc_lines_saved, 4u);   // 4 duplicate flushes absorbed
  EXPECT_GE(delta.wc_fences_saved, 6u);  // one per deferred Persist + range
}

TEST(FlushScope, StrictModeAndUnsetFlagDoNotEngage) {
  ConfigRestorer restore;
  // Strict persistency + flag: must not engage (the paper's ordering
  // argument stays untouched by default).
  pm::Config cfg;
  cfg.coalesce_flushes = true;
  pm::SetConfig(cfg);
  alignas(64) char buf[64];
  pm::ResetStats();
  {
    pm::FlushScope scope;
    EXPECT_FALSE(pm::FlushScope::Active());
    pm::Persist(buf, 64);
  }
  EXPECT_EQ(pm::Stats().flush_lines, 1u);
  EXPECT_EQ(pm::Stats().wc_lines_saved, 0u);

  // Relaxed without the flag: also not engaged.
  cfg = pm::Config{};
  cfg.persistency = pm::Persistency::kRelaxed;
  pm::SetConfig(cfg);
  {
    pm::FlushScope scope;
    EXPECT_FALSE(pm::FlushScope::Active());
  }
}

TEST(FlushScope, CoalescedInsertsSameStateFewerFlushes) {
  ConfigRestorer restore;
  const auto keys = bench::UniformKeys(20000, 11);  // plenty of splits

  pm::SetConfig(pm::Config{});
  pm::Pool eager_pool(std::size_t{256} << 20);
  core::BTree eager(&eager_pool);
  pm::ResetStats();
  const auto before_eager = pm::Stats();
  for (const Key k : keys) eager.Insert(k, ValueFor(k));
  const auto eager_delta = pm::Stats() - before_eager;

  pm::SetConfig(RelaxedWcConfig());
  pm::Pool wc_pool(std::size_t{256} << 20);
  core::BTree wc(&wc_pool);
  const auto before_wc = pm::Stats();
  for (const Key k : keys) wc.Insert(k, ValueFor(k));
  const auto wc_delta = pm::Stats() - before_wc;
  pm::SetConfig(pm::Config{});

  // Strictly fewer flushed lines (split-path re-flushes dedupe) and far
  // fewer fences (one per op instead of one per boundary).
  EXPECT_LT(wc_delta.flush_lines, eager_delta.flush_lines);
  EXPECT_LT(wc_delta.fences, eager_delta.fences);
  EXPECT_GT(wc_delta.wc_lines_saved, 0u);

  // Same logical tree state.
  EXPECT_EQ(wc.CountEntries(), eager.CountEntries());
  std::string msg;
  EXPECT_TRUE(wc.CheckInvariants(&msg)) << msg;
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_EQ(wc.Search(keys[i]), eager.Search(keys[i]));
  }
  // Removes coalesce too, to the same outcome.
  pm::SetConfig(RelaxedWcConfig());
  for (std::size_t i = 0; i < keys.size(); i += 2) wc.Remove(keys[i]);
  pm::SetConfig(pm::Config{});
  for (std::size_t i = 0; i < keys.size(); i += 2) eager.Remove(keys[i]);
  EXPECT_EQ(wc.CountEntries(), eager.CountEntries());
  EXPECT_TRUE(wc.CheckInvariants(&msg)) << msg;
}

TEST(FlushScope, CoalescedInsertsSurviveReopen) {
  // The crash-shaped equivalence check: inserts coalesced under a
  // FlushScope must be fully durable once the op returns — a reopened
  // file-backed pool (the destructor unmaps without any teardown pass,
  // like kvstore's "crash") recovers the identical tree state.
  const std::string path =
      "/tmp/fastfair_flush_scope_test_" + std::to_string(::getpid()) + ".pm";
  std::remove(path.c_str());
  const auto keys = bench::UniformKeys(5000, 23);
  ConfigRestorer restore;
  {
    pm::Pool::Options po;
    po.capacity = std::size_t{128} << 20;
    po.file_path = path;
    pm::Pool pool(po);
    auto tree = std::make_unique<core::BTree>(&pool);
    pool.SetRoot(tree->meta());
    pm::SetConfig(RelaxedWcConfig());
    for (const Key k : keys) tree->Insert(k, ValueFor(k));
    pm::SetConfig(pm::Config{});
  }  // unmap; the file bytes are what a crash would leave
  {
    pm::Pool::Options po;
    po.capacity = std::size_t{128} << 20;
    po.file_path = path;
    pm::Pool pool(po);
    ASSERT_TRUE(pool.reopened());
    auto* meta = static_cast<core::TreeMeta*>(pool.GetRoot());
    core::BTree tree(&pool, meta);
    EXPECT_EQ(tree.CountEntries(), keys.size());
    std::string msg;
    EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
    std::vector<Value> vals(keys.size());
    tree.SearchBatch(keys.data(), keys.size(), vals.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(vals[i], ValueFor(keys[i]));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fastfair
