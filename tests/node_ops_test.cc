// Unit tests for the FAST/FAIR node-level algorithms on single nodes
// (production RealMem policy): insert/delete shifts at every position,
// terminator discipline, switch-counter direction control, split
// primitives, search routines, and FixNode repairs; plus lock-free reads
// with a writer's stores scripted between their loads.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"

namespace fastfair::core {
namespace {

using NodeT = Node<512>;
using Ops = NodeOps<NodeT, RealMem>;
constexpr int kCap = NodeT::kCapacity;

class NodeFixture : public ::testing::Test {
 protected:
  NodeFixture() { node_.Init(0); }

  RealMem m_;
  alignas(64) NodeT node_;

  void Fill(const std::vector<Key>& keys) {
    for (const Key k : keys) Ops::InsertKey(m_, &node_, k, k * 10 + 1);
  }

  std::vector<std::pair<Key, Value>> Contents() {
    Record buf[kCap];
    const int n = Ops::CollectValid(m_, &node_, buf);
    std::vector<std::pair<Key, Value>> out;
    for (int i = 0; i < n; ++i) out.emplace_back(buf[i].key, buf[i].ptr);
    return out;
  }
};

TEST_F(NodeFixture, EmptyNodeHasZeroCount) {
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 0);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 42), kNoValue);
}

TEST_F(NodeFixture, SingleInsertIsVisible) {
  Ops::InsertKey(m_, &node_, 42, 421);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 1);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 42), 421u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 41), kNoValue);
}

TEST_F(NodeFixture, AscendingInsertsStaySorted) {
  for (Key k = 1; k <= 10; ++k) Ops::InsertKey(m_, &node_, k, k + 100);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(c[i].first, i + 1);
}

TEST_F(NodeFixture, DescendingInsertsStaySorted) {
  for (Key k = 10; k >= 1; --k) Ops::InsertKey(m_, &node_, k, k + 100);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(c[i].first, i + 1);
}

TEST_F(NodeFixture, MiddleInsertShiftsTail) {
  Fill({10, 20, 40, 50});
  Ops::InsertKey(m_, &node_, 30, 301);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c[2].first, 30u);
  EXPECT_EQ(c[2].second, 301u);
  EXPECT_EQ(c[3].first, 40u);
}

// Parameterized: insert at every position of a near-full node.
class InsertPosition : public ::testing::TestWithParam<int> {};

TEST_P(InsertPosition, EveryPositionPreservesSortedContents) {
  using O = NodeOps<NodeT, RealMem>;
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  // Even keys 2..2*(kCap-1); the param picks an odd key = a distinct slot.
  std::vector<Key> keys;
  for (int i = 1; i < kCap; ++i) keys.push_back(static_cast<Key>(2 * i));
  for (const Key k : keys) O::InsertKey(m, &node, k, k + 1);
  const Key newkey = static_cast<Key>(2 * GetParam() + 1);
  O::InsertKey(m, &node, newkey, newkey + 1);

  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, kCap);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  EXPECT_EQ(O::SearchLeaf(m, &node, newkey), newkey + 1);
  for (const Key k : keys) {
    EXPECT_EQ(O::SearchLeaf(m, &node, k), k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSlots, InsertPosition,
                         ::testing::Range(0, kCap));

// Parameterized: delete at every position.
class DeletePosition : public ::testing::TestWithParam<int> {};

TEST_P(DeletePosition, EveryPositionCompactsCorrectly) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &node, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 101));
  }
  const Key victim = static_cast<Key>(GetParam() + 1);
  EXPECT_TRUE(O::DeleteKey(m, &node, victim));
  EXPECT_EQ(O::CountRaw(m, &node), kCap - 1);
  EXPECT_EQ(O::SearchLeaf(m, &node, victim), kNoValue);
  for (int i = 0; i < kCap; ++i) {
    const Key k = static_cast<Key>(i + 1);
    if (k == victim) continue;
    EXPECT_EQ(O::SearchLeaf(m, &node, k), static_cast<Value>(i + 101));
  }
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, kCap - 1);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
}

INSTANTIATE_TEST_SUITE_P(AllSlots, DeletePosition,
                         ::testing::Range(0, kCap));

TEST_F(NodeFixture, DeleteAbsentReturnsFalse) {
  Fill({10, 20, 30});
  EXPECT_FALSE(Ops::DeleteKey(m_, &node_, 25));
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 3);
}

TEST_F(NodeFixture, DeleteLastEntryEmptiesNode) {
  Fill({10});
  EXPECT_TRUE(Ops::DeleteKey(m_, &node_, 10));
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 0);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 10), kNoValue);
}

TEST_F(NodeFixture, ReinsertAfterDeleteAtSlotZero) {
  Fill({10, 20, 30});
  EXPECT_TRUE(Ops::DeleteKey(m_, &node_, 10));
  Ops::InsertKey(m_, &node_, 5, 51);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].first, 5u);
  EXPECT_EQ(c[1].first, 20u);
}

TEST_F(NodeFixture, UpdateKeyOverwritesInPlace) {
  Fill({10, 20, 30});
  EXPECT_TRUE(Ops::UpdateKey(m_, &node_, 20, 999));
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 20), 999u);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 3);
  EXPECT_FALSE(Ops::UpdateKey(m_, &node_, 25, 7));
}

TEST_F(NodeFixture, SwitchCounterFlipsOnDirectionChange) {
  Fill({10, 20});
  const auto sc0 = Ops::LoadSwitch(m_, &node_);
  EXPECT_EQ(sc0 % 2, 0u);  // insert phase
  Ops::DeleteKey(m_, &node_, 10);
  const auto sc1 = Ops::LoadSwitch(m_, &node_);
  EXPECT_EQ(sc1 % 2, 1u);  // delete phase
  Ops::DeleteKey(m_, &node_, 20);
  EXPECT_EQ(Ops::LoadSwitch(m_, &node_), sc1);  // same direction: no bump
  Ops::InsertKey(m_, &node_, 5, 51);
  EXPECT_EQ(Ops::LoadSwitch(m_, &node_) % 2, 0u);
}

TEST_F(NodeFixture, BackwardScanFindsKeysInDeletePhase) {
  Fill({10, 20, 30, 40});
  Ops::DeleteKey(m_, &node_, 20);  // switch now odd: backward scans
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 10), 101u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 30), 301u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 40), 401u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 20), kNoValue);
}

// Memory policy that replays a writer's stores between two reader loads:
// each step's stores land just before the `nth` load of its trigger word.
struct ScriptedStoresMem : RealMem {
  struct Step {
    const void* trigger;
    int nth;
    std::vector<std::pair<std::uint64_t*, std::uint64_t>> stores;
    int loads = 0;
  };
  std::vector<Step> steps;

  std::uint64_t Load64(const void* a) {
    for (Step& s : steps) {
      if (s.trigger != a || ++s.loads != s.nth) continue;
      for (const auto& [addr, v] : s.stores) RealMem::Store64(addr, v);
    }
    return RealMem::Load64(a);
  }
};
using RaceOps = NodeOps<NodeT, ScriptedStoresMem>;

// A leaf holding 10, 20, 30, 40 in the delete phase (odd switch counter).
void FillDeletePhase(ScriptedStoresMem& m, NodeT* node) {
  node->Init(0);
  for (const Key k : {5, 10, 20, 30, 40}) {
    RaceOps::InsertKey(m, node, k, k + 1000);
  }
  RaceOps::DeleteKey(m, node, 5);
}

TEST(NodeRace, BackwardScanCountsPastSlotZeroDeleteCommit) {
  // A delete-phase reader counts the used slots, then scans right to
  // left. A concurrent delete of slot 0 commits by zeroing its ptr (the
  // transient hole). If that commit lands between two loads of slot 0's
  // ptr inside the count, the reader saw slot 0 live and then saw a zero
  // terminator at slot 0, counting an empty node and missing key 30.
  ScriptedStoresMem m;
  alignas(64) NodeT node;
  FillDeletePhase(m, &node);
  auto* r = node.records;
  m.steps = {{&r[0].ptr, 2, {{&r[0].ptr, 0}}}};  // delete 10: the hole
  EXPECT_EQ(RaceOps::SearchLeaf(m, &node, 30), 1030u);
}

TEST(NodeRace, CollectDuringDeleteShiftKeepsEveryRecord) {
  // Deleting 20 shifts 30 and 40 one slot left, key before ptr. A forward
  // collector that reads slot 1 just after the delete commits (an invalid
  // duplicate of slot 0) and slot 2 after 40's key moved in but before
  // its ptr did never sees 30: it has left slot 2 and not yet arrived in
  // slot 1 when the reader passes.
  ScriptedStoresMem m;
  alignas(64) NodeT node;
  FillDeletePhase(m, &node);
  auto* r = node.records;
  m.steps = {
      {&r[1].ptr, 1, {{&r[1].ptr, 1010}}},  // commit: duplicate slot 0
      {&r[2].ptr, 1, {{&r[1].key, 30}, {&r[1].ptr, 1030}, {&r[2].key, 40}}},
      {&r[3].ptr, 1, {{&r[2].ptr, 1040}, {&r[3].ptr, 0}}}};
  Record buf[kCap];
  const int n = RaceOps::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(buf[0].key, 10u);
  EXPECT_EQ(buf[1].key, 30u);
  EXPECT_EQ(buf[1].ptr, 1030u);
  EXPECT_EQ(buf[2].key, 40u);
  EXPECT_EQ(buf[2].ptr, 1040u);
}

TEST_F(NodeFixture, BinarySearchMatchesLinear) {
  std::vector<Key> keys;
  for (int i = 0; i < kCap; ++i) keys.push_back(static_cast<Key>(3 * i + 2));
  Fill(keys);
  for (Key k = 0; k < static_cast<Key>(3 * kCap + 3); ++k) {
    EXPECT_EQ(Ops::BinarySearchLeaf(m_, &node_, k),
              Ops::SearchLeaf(m_, &node_, k))
        << "key " << k;
  }
}

// --- internal-node semantics ---------------------------------------------------

class InternalFixture : public ::testing::Test {
 protected:
  InternalFixture() {
    node_.Init(1);
    RealMem m;
    Ops::StoreLeftmost(m, &node_, 0x1000);
    Ops::InsertKey(m, &node_, 100, 0x2000);
    Ops::InsertKey(m, &node_, 200, 0x3000);
    Ops::InsertKey(m, &node_, 300, 0x4000);
  }
  RealMem m_;
  alignas(64) NodeT node_;
};

TEST_F(InternalFixture, ChildSelection) {
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 50), 0x1000u);   // < first key
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 100), 0x2000u);  // == separator
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 150), 0x2000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 250), 0x3000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 999), 0x4000u);  // past last
}

TEST_F(InternalFixture, BinaryInternalMatchesLinear) {
  for (Key k = 0; k < 400; k += 7) {
    EXPECT_EQ(Ops::BinarySearchInternal(m_, &node_, k),
              Ops::SearchInternal(m_, &node_, k))
        << "key " << k;
  }
}

TEST_F(InternalFixture, SlotZeroInsertDuplicatesLeftmost) {
  Ops::InsertKey(m_, &node_, 50, 0x1500);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 40), 0x1000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 60), 0x1500u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 150), 0x2000u);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 4);
}

// --- FAIR split primitives ------------------------------------------------------

TEST(SplitOps, SplitCopyAndCommitPartitionContents) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  O::CommitSplit(m, &left, &right, median);

  EXPECT_EQ(O::LoadSibling(m, &left), reinterpret_cast<std::uint64_t>(&right));
  EXPECT_EQ(O::CountRaw(m, &left), median);
  EXPECT_EQ(O::CountRaw(m, &right), cnt - median);
  // Separator = right's first key = old records[median].
  EXPECT_EQ(O::LoadKeyAt(m, &right, 0), static_cast<Key>(median + 1));
  // Every key findable in exactly the right half.
  for (int i = 0; i < cnt; ++i) {
    const Key k = static_cast<Key>(i + 1);
    const Value v = static_cast<Value>(i + 501);
    if (i < median) {
      EXPECT_EQ(O::SearchLeaf(m, &left, k), v);
      EXPECT_EQ(O::SearchLeaf(m, &right, k), kNoValue);
    } else {
      EXPECT_EQ(O::SearchLeaf(m, &right, k), v);
      EXPECT_EQ(O::SearchLeaf(m, &left, k), kNoValue);
    }
  }
}

TEST(SplitOps, ShouldMoveRightUsesSiblingFence) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  O::CommitSplit(m, &left, &right, median);
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  const Key fence = static_cast<Key>(median + 1);
  EXPECT_FALSE(O::ShouldMoveRight(m, &left, fence - 1, resolve));
  EXPECT_TRUE(O::ShouldMoveRight(m, &left, fence, resolve));
  EXPECT_TRUE(O::ShouldMoveRight(m, &left, fence + 100, resolve));
  EXPECT_FALSE(O::ShouldMoveRight(m, &right, fence + 100, resolve));  // no sib
}

// --- FixNode repairs --------------------------------------------------------------

TEST(FixNode, RemovesDuplicatePointerGarbage) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 6; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  // Forge a crashed-insert state: duplicate ptr pair at slots 2/3.
  // records: 10,20,30,40,50,60 -> set records[2] = (garbage, ptr_of_slot1).
  node.records[2].key = 999;  // garbage key
  node.records[2].ptr = node.records[1].ptr;
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 5);  // key 30 was the casualty of the forged crash
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  EXPECT_FALSE(O::FixNode(m, &node, resolve));  // idempotent
}

TEST(FixNode, ClosesSlotZeroHole) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 4; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  node.records[0].ptr = 0;  // forge the transient hole
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(buf[0].key, 20u);
}

TEST(FixNode, RemovesTornDeleteDuplicateKey) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 5; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  // Forge a torn delete shift: slot 1 got slot 2's key but kept its ptr.
  node.records[1].key = node.records[2].key;
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 4);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  // The rightmost copy's value (31 = key 30's true value) is authoritative.
  EXPECT_EQ(O::SearchLeaf(m, &node, 30), 31u);
}

TEST(FixNode, CompletesUntruncatedSplit) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  // Crash emulation: sibling linked but truncation store lost.
  O::StoreSibling(m, &left, reinterpret_cast<std::uint64_t>(&right));
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &left, resolve));
  EXPECT_EQ(O::CountRaw(m, &left), median);
  EXPECT_EQ(O::SearchLeaf(m, &left, static_cast<Key>(median + 1)), kNoValue);
}

// --- node size sweep (the Fig 3 node geometries) ---------------------------------

template <typename T>
class NodeGeometry : public ::testing::Test {};

using Geometries = ::testing::Types<Node<256>, Node<512>, Node<1024>,
                                    Node<2048>, Node<4096>>;
TYPED_TEST_SUITE(NodeGeometry, Geometries);

TYPED_TEST(NodeGeometry, CapacityAndLayout) {
  EXPECT_GE(TypeParam::kCapacity, 3);
  EXPECT_LE(sizeof(TypeParam), static_cast<std::size_t>(
                                   TypeParam::kCapacity + 1) *
                                       sizeof(Record) +
                                   sizeof(NodeHeader));
  EXPECT_EQ(sizeof(NodeHeader) % kCacheLineSize, 0u);
}

TYPED_TEST(NodeGeometry, FullFillAndDrain) {
  alignas(64) TypeParam node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<TypeParam, RealMem>;
  const int cap = TypeParam::kCapacity;
  for (int i = 0; i < cap; ++i) {
    O::InsertKey(m, &node, static_cast<Key>(2 * i + 2),
                 static_cast<Value>(i + 1001));
  }
  EXPECT_EQ(O::CountRaw(m, &node), cap);
  for (int i = 0; i < cap; ++i) {
    EXPECT_EQ(O::SearchLeaf(m, &node, static_cast<Key>(2 * i + 2)),
              static_cast<Value>(i + 1001));
  }
  for (int i = 0; i < cap; ++i) {
    EXPECT_TRUE(O::DeleteKey(m, &node, static_cast<Key>(2 * i + 2)));
  }
  EXPECT_EQ(O::CountRaw(m, &node), 0);
}

}  // namespace
}  // namespace fastfair::core
