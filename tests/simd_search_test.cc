// SIMD search equivalence suite (DESIGN.md §9).
//
// Three layers, each asserting zero divergence from the scalar reference:
//  1. Kernel level: every compiled+supported ISA's Find*/ByteEqMask/
//     CopyRecords/Record* kernels against ScalarKernels on randomized
//     inputs, including the boundary-block masking edges (from/to not on a
//     vector boundary, padding false-matches past `to`). The 16-byte
//     instantiation of the generic body — the code aarch64 builds, with
//     its portable lane-loop bit helpers — runs here on every host.
//  2. Node level: SimdNodeOps entry points against NodeOps on randomized
//     node states *including the forged transient states the lock-free
//     protocol must tolerate* — slot-0 holes, duplicate ptrs (torn
//     inserts), duplicate keys (torn delete shifts) — under both switch
//     parities, on two node geometries.
//  3. Races: a scripted writer's stores land between a direct probe's raw
//     vector scan and its revalidation loads (deterministic), and a live
//     writer churns keys (flipping the switch word between insert and
//     delete phases) while SIMD readers on every supported ISA search
//     anchor keys that are always present.
//
// Plus dispatch plumbing: ParseIsa/ForceIsa clamping and the coherent-raw-
// loads gate that pins crash-sim memory policies to the scalar reference.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "core/node_search_simd.h"
#include "crashsim/simmem.h"

namespace fastfair {
namespace {

using core::Node;
using core::NodeOps;
using core::Record;
using core::SimdNodeOps;

constexpr simd::Isa kAllIsas[] = {simd::Isa::kScalar, simd::Isa::kAvx2,
                                   simd::Isa::kAvx512, simd::Isa::kNeon};

std::vector<simd::Isa> SupportedVectorIsas() {
  std::vector<simd::Isa> out;
  for (simd::Isa isa : kAllIsas) {
    if (isa != simd::Isa::kScalar && simd::IsaSupported(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

// Calls f(std::integral_constant<Isa, I>) for every ISA this binary
// defines simd::Kernels<I> for.
template <class F>
void ForEachCompiledIsa(F&& f) {
#if defined(FASTFAIR_SIMD_X86)
  f(std::integral_constant<simd::Isa, simd::Isa::kAvx2>{});
  f(std::integral_constant<simd::Isa, simd::Isa::kAvx512>{});
#elif defined(FASTFAIR_SIMD_NEON)
  f(std::integral_constant<simd::Isa, simd::Isa::kNeon>{});
#endif
}

// The generic kernel body at 16 bytes with no ISA bit helpers: exactly
// what common/simd.cc compiles on aarch64, built here for the host.
namespace portable16 {
using V64 = std::uint64_t __attribute__((vector_size(16)));
using V8 = std::uint8_t __attribute__((vector_size(16)));
#include "common/simd_kernels.inc"
}  // namespace portable16

struct Portable16Kernels {
  static constexpr std::size_t kRecWidth = portable16::kRecWidth;
  static constexpr auto CopyRecords = &portable16::CopyRecords;
  static constexpr auto VerifyRecords = &portable16::VerifyRecords;
  static constexpr auto FindFirstEq = &portable16::FindFirst<false>;
  static constexpr auto FindFirstGt = &portable16::FindFirst<true>;
  static std::size_t FindFirstZero(const std::uint64_t* a, std::size_t from,
                                   std::size_t to) {
    return portable16::FindFirst<false>(a, from, to, 0);
  }
  static constexpr auto FindLastEq = &portable16::FindLastEq;
  static constexpr auto ByteEqMask = &portable16::ByteEqMask;
  static constexpr auto RecordEqZero = &portable16::RecordMasks<false>;
  static constexpr auto RecordGtZero = &portable16::RecordMasks<true>;
};
static_assert(Portable16Kernels::kRecWidth == 2);
static_assert(simd::Kernels<simd::Isa::kNeon>::kRecWidth == 2);

// --- layer 1: kernels vs ScalarKernels ---------------------------------------

template <class K>
void KernelEquivalenceRound(std::mt19937_64* rng) {
  using S = simd::ScalarKernels;
  constexpr std::size_t kN = 56;  // not a multiple of any vector width
  constexpr std::size_t kPad = simd::RoundUpSlots(kN);
  alignas(64) std::uint64_t a[kPad];
  // Small value range so Eq/Gt hit often; padding holds a poison value
  // that *would* match a buggy kernel's out-of-range lanes.
  std::uniform_int_distribution<std::uint64_t> dv(0, 12);
  for (std::size_t i = 0; i < kN; ++i) a[i] = dv(*rng);
  for (std::size_t i = kN; i < kPad; ++i) a[i] = 7;

  std::uniform_int_distribution<std::size_t> dpos(0, kN);
  for (int t = 0; t < 64; ++t) {
    std::size_t from = dpos(*rng), to = dpos(*rng);
    if (from > to) std::swap(from, to);
    const std::uint64_t v = dv(*rng);
    EXPECT_EQ(K::FindFirstEq(a, from, to, v), S::FindFirstEq(a, from, to, v))
        << "from=" << from << " to=" << to << " v=" << v;
    EXPECT_EQ(K::FindFirstGt(a, from, to, v), S::FindFirstGt(a, from, to, v))
        << "from=" << from << " to=" << to << " v=" << v;
    EXPECT_EQ(K::FindFirstZero(a, from, to), S::FindFirstZero(a, from, to))
        << "from=" << from << " to=" << to;
    EXPECT_EQ(K::FindLastEq(a, from, to, v), S::FindLastEq(a, from, to, v))
        << "from=" << from << " to=" << to << " v=" << v;
  }

  // Unsigned Gt must not misorder values straddling the sign bit.
  alignas(64) std::uint64_t big[simd::kMaxU64Lanes] = {
      1,
      0x7FFFFFFFFFFFFFFFull,
      0x8000000000000000ull,
      ~std::uint64_t{0},
      0,
      2,
      0x8000000000000001ull,
      42};
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{41},
        std::uint64_t{0x7FFFFFFFFFFFFFFFull},
        std::uint64_t{0x8000000000000000ull}, ~std::uint64_t{0}}) {
    EXPECT_EQ(K::FindFirstGt(big, 0, 8, v), S::FindFirstGt(big, 0, 8, v))
        << "v=" << v;
  }

  // ByteEqMask: 64-byte window, n clamps the reported bits.
  alignas(64) std::uint8_t bytes[64];
  std::uniform_int_distribution<int> db(0, 3);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(db(*rng));
  for (const std::size_t n : {std::size_t{16}, std::size_t{48},
                              std::size_t{63}, std::size_t{64}}) {
    for (int v = 0; v <= 3; ++v) {
      EXPECT_EQ(K::ByteEqMask(bytes, n, static_cast<std::uint8_t>(v)),
                S::ByteEqMask(bytes, n, static_cast<std::uint8_t>(v)))
          << "n=" << n << " v=" << v;
    }
  }

  // CopyRecords deinterleave + VerifyRecords accept/reject.
  constexpr std::size_t kRec = 21;
  alignas(64) std::uint64_t recs[2 * kRec];
  for (auto& x : recs) x = dv(*rng);
  alignas(64) std::uint64_t keys[simd::RoundUpSlots(kRec)];
  alignas(64) std::uint64_t ptrs[simd::RoundUpSlots(kRec)];
  K::CopyRecords(recs, kRec, keys, ptrs);
  for (std::size_t i = 0; i < kRec; ++i) {
    EXPECT_EQ(keys[i], recs[2 * i]);
    EXPECT_EQ(ptrs[i], recs[2 * i + 1]);
  }
  EXPECT_TRUE(K::VerifyRecords(recs, kRec, keys, ptrs));
  const std::size_t tamper = dpos(*rng) % kRec;
  recs[2 * tamper] ^= 1;  // a concurrent writer moved a key
  EXPECT_FALSE(K::VerifyRecords(recs, kRec, keys, ptrs));

  // RecordEqZero/RecordGtZero: the stride-2 mask contract — record l's bit
  // sits at position kMaskStride * l over an interleaved {key, ptr} block of
  // kRecWidth records, odd positions stay clear. Checked against a scalar
  // re-derivation, with sign-straddling keys, zero ptrs, and probe values
  // on both sides of the sign bit.
  static_assert(simd::kMaskStride == 2);
  constexpr std::size_t kW = K::kRecWidth;
  alignas(64) std::uint64_t blk[2 * simd::kMaxU64Lanes];
  const std::uint64_t hot[] = {0,
                               1,
                               5,
                               0x7FFFFFFFFFFFFFFFull,
                               0x8000000000000000ull,
                               ~std::uint64_t{0}};
  std::uniform_int_distribution<std::size_t> dhot(0, 5);
  std::uniform_int_distribution<int> dzero(0, 3);
  for (int t = 0; t < 64; ++t) {
    for (std::size_t l = 0; l < kW; ++l) {
      blk[2 * l] = (t % 2 != 0) ? hot[dhot(*rng)] : dv(*rng);
      blk[2 * l + 1] = dzero(*rng) == 0 ? 0 : dv(*rng) + 1;
    }
    const std::uint64_t probe = (t % 4 < 2) ? hot[dhot(*rng)] : dv(*rng);
    unsigned ref_eq = 0, ref_gt = 0, ref_z = 0;
    for (std::size_t l = 0; l < kW; ++l) {
      if (blk[2 * l] == probe) ref_eq |= 1u << (2 * l);
      if (blk[2 * l] > probe) ref_gt |= 1u << (2 * l);
      if (blk[2 * l + 1] == 0) ref_z |= 1u << (2 * l);
    }
    unsigned eq = 0, gt = 0, z0 = 0, z1 = 0;
    K::RecordEqZero(blk, probe, &eq, &z0);
    K::RecordGtZero(blk, probe, &gt, &z1);
    EXPECT_EQ(eq, ref_eq) << "probe=" << probe << " t=" << t;
    EXPECT_EQ(gt, ref_gt) << "probe=" << probe << " t=" << t;
    EXPECT_EQ(z0, ref_z) << "t=" << t;
    EXPECT_EQ(z1, ref_z) << "t=" << t;
  }
}

TEST(SimdKernels, EveryIsaMatchesScalarReference) {
  for (int seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    ForEachCompiledIsa([&](auto isa) {
      if (simd::IsaSupported(isa)) {
        KernelEquivalenceRound<simd::Kernels<decltype(isa)::value>>(&rng);
      }
    });
  }
}

TEST(SimdKernels, Portable16MatchesScalarReference) {
  for (int seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    KernelEquivalenceRound<Portable16Kernels>(&rng);
  }
}

// --- dispatch plumbing -------------------------------------------------------

TEST(SimdDispatch, ParseIsaSpellings) {
  const std::pair<const char*, simd::Isa> spellings[] = {
      {"scalar", simd::Isa::kScalar},
      {"avx2", simd::Isa::kAvx2},
      {"avx512", simd::Isa::kAvx512},
      {"neon", simd::Isa::kNeon}};
  static_assert(std::size(spellings) == std::size(kAllIsas));
  simd::Isa isa;
  for (const auto& [name, want] : spellings) {
    EXPECT_TRUE(simd::ParseIsa(name, &isa)) << name;
    EXPECT_EQ(isa, want) << name;
    EXPECT_STREQ(simd::IsaName(want), name);
  }
  EXPECT_TRUE(simd::ParseIsa("", &isa));
  EXPECT_EQ(isa, simd::BestSupportedIsa());
  EXPECT_TRUE(simd::ParseIsa("auto", &isa));
  EXPECT_EQ(isa, simd::BestSupportedIsa());
  EXPECT_FALSE(simd::ParseIsa("avx1024", &isa));
  EXPECT_FALSE(simd::ParseIsa("sse2", &isa));  // no SSE2 tier
}

TEST(SimdDispatch, ForceIsaClampsUnsupported) {
  const simd::Isa prev = simd::ActiveIsa();
  for (simd::Isa isa : kAllIsas) {
    const simd::Isa got = simd::ForceIsa(isa);
    if (simd::IsaSupported(isa)) {
      EXPECT_EQ(got, isa) << simd::IsaName(isa);
    } else {
      EXPECT_EQ(got, simd::Isa::kScalar) << simd::IsaName(isa);
    }
    EXPECT_EQ(simd::ActiveIsa(), got);
  }
  simd::ForceIsa(prev);
}

TEST(SimdDispatch, CrashSimPolicyResolvesToScalarReference) {
  // The coherent-raw-loads gate: shadow-memory policies must never take
  // vector snapshots, whatever ISA is active.
  using NodeT = Node<512>;
  using SimOps = NodeOps<NodeT, crashsim::SimMem>;
  using SimSimd = SimdNodeOps<NodeT, crashsim::SimMem>;
  for (simd::Isa isa : SupportedVectorIsas()) {
    EXPECT_EQ(SimSimd::LeafSearchFor(isa), &SimOps::SearchLeaf);
    EXPECT_EQ(SimSimd::ChildSearchFor(isa), &SimOps::SearchInternal);
    EXPECT_EQ(SimSimd::CollectFor(isa), &SimOps::CollectValid);
  }
  // RealMem does get vector paths (when any vector ISA exists).
  using RealSimd = SimdNodeOps<NodeT, core::RealMem>;
  using RealOps = NodeOps<NodeT, core::RealMem>;
  for (simd::Isa isa : SupportedVectorIsas()) {
    EXPECT_NE(RealSimd::LeafSearchFor(isa), &RealOps::SearchLeaf)
        << simd::IsaName(isa);
  }
  EXPECT_EQ(RealSimd::LeafSearchFor(simd::Isa::kScalar),
            &RealOps::SearchLeaf);
}

// --- layer 2: node-state equivalence -----------------------------------------

// Compares all three SIMD entry points against the scalar reference over a
// probe-key sweep, for every supported vector ISA.
template <class NodeT>
void ExpectNodeEquivalence(core::RealMem& m, const NodeT* node, Key max_key,
                           const char* what) {
  using Ops = NodeOps<NodeT, core::RealMem>;
  using Simd = SimdNodeOps<NodeT, core::RealMem>;
  const bool leaf = node->is_leaf();
  Record want[NodeT::kCapacity + 1];
  Record got[NodeT::kCapacity + 1];
  const int nwant = Ops::CollectValid(m, node, want);
  for (simd::Isa isa : SupportedVectorIsas()) {
    auto leaf_fn = Simd::LeafSearchFor(isa);
    auto child_fn = Simd::ChildSearchFor(isa);
    auto collect_fn = Simd::CollectFor(isa);
    for (Key k = 0; k <= max_key; ++k) {
      if (leaf) {
        ASSERT_EQ(leaf_fn(m, node, k), Ops::SearchLeaf(m, node, k))
            << what << " isa=" << simd::IsaName(isa) << " key=" << k;
      } else {
        ASSERT_EQ(child_fn(m, node, k), Ops::SearchInternal(m, node, k))
            << what << " isa=" << simd::IsaName(isa) << " key=" << k;
      }
    }
    const int ngot = collect_fn(m, node, got);
    ASSERT_EQ(ngot, nwant) << what << " isa=" << simd::IsaName(isa);
    for (int i = 0; i < ngot; ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << what << " slot " << i;
      EXPECT_EQ(got[i].ptr, want[i].ptr) << what << " slot " << i;
    }
  }
}

template <class NodeT>
void RunRandomizedNodeStates(bool internal) {
  using Ops = NodeOps<NodeT, core::RealMem>;
  constexpr int kCap = NodeT::kCapacity;
  std::mt19937_64 rng(internal ? 271828 : 314159);
  std::uniform_int_distribution<int> dcnt(0, kCap);
  std::uniform_int_distribution<int> dforge(0, 3);
  for (int trial = 0; trial < 24; ++trial) {
    core::RealMem m;
    alignas(64) NodeT node;
    node.Init(internal ? 1 : 0);
    if (internal) Ops::StoreLeftmost(m, &node, 0x10000);
    const int cnt = dcnt(rng);
    for (int i = 0; i < cnt; ++i) {
      const Key k = static_cast<Key>(3 * i + 2);  // gaps -> miss probes
      Ops::InsertKey(m, &node, k, internal ? 0x10000 + 16 * (i + 1)
                                           : 1000 + k);
    }
    // Half the trials flip into the delete phase (odd switch, R->L scan).
    if (trial % 2 == 1 && cnt > 0) {
      std::uniform_int_distribution<int> dvic(0, cnt - 1);
      Ops::DeleteKey(m, &node, static_cast<Key>(3 * dvic(rng) + 2));
    }
    // Forge one of the transient states the protocol tolerates.
    const int live = Ops::CountRaw(m, &node);
    switch (live >= 3 ? dforge(rng) : 0) {
      case 1:  // slot-0 hole (mid delete-shift)
        node.records[0].ptr = 0;
        break;
      case 2: {  // duplicate ptr (torn insert): garbage key, left's ptr
        std::uniform_int_distribution<int> dslot(1, live - 1);
        const int s = dslot(rng);
        node.records[s].key = 999999;
        node.records[s].ptr = node.records[s - 1].ptr;
        break;
      }
      case 3: {  // duplicate key (torn delete shift)
        std::uniform_int_distribution<int> dslot(0, live - 2);
        const int s = dslot(rng);
        node.records[s].key = node.records[s + 1].key;
        break;
      }
      default:
        break;
    }
    ExpectNodeEquivalence(m, &node, static_cast<Key>(3 * kCap + 3),
                          internal ? "internal" : "leaf");
  }
}

TEST(SimdNodeEquivalence, LeafNode512) { RunRandomizedNodeStates<Node<512>>(false); }
TEST(SimdNodeEquivalence, LeafNode256) { RunRandomizedNodeStates<Node<256>>(false); }
TEST(SimdNodeEquivalence, InternalNode512) { RunRandomizedNodeStates<Node<512>>(true); }
TEST(SimdNodeEquivalence, InternalNode256) { RunRandomizedNodeStates<Node<256>>(true); }

// --- a writer landing between the vector scan and revalidation --------------

// RealMem that replays a writer's stores into a reader's run: the first
// policy load of a trigger address first applies the script up to that
// trigger's step. This lands a writer's progress between a reader's raw
// vector scan and its scalar revalidation loads, deterministically.
struct ScriptedWriterMem : core::RealMem {
  struct Store {
    std::uint64_t* addr;
    std::uint64_t value;
  };
  std::vector<Store> script;
  std::size_t applied = 0;
  std::vector<std::pair<const void*, std::size_t>> triggers;  // addr, upto

  std::uint64_t Load64(const void* addr) {
    for (const auto& [trigger, upto] : triggers) {
      for (; trigger == addr && applied < upto; ++applied) {
        core::RealMem::Store64(script[applied].addr, script[applied].value);
      }
    }
    return core::RealMem::Load64(addr);
  }
};

TEST(SimdNodeRace, InternalProbeIgnoresSeparatorAppendedAfterScan) {
  // An internal node mid-append: the new last slot still holds the
  // duplicate of its left neighbour's ptr (and a stale key), the
  // terminator sits one slot further right. A direct probe for a key above
  // every separator takes that terminator as its bound; the append then
  // commits a separator above the key before the probe reads slot
  // bound-1. Routing to that new child would skip the key's own subtree.
  using NodeT = Node<512>;
  using Ops = NodeOps<NodeT, ScriptedWriterMem>;
  using Simd = SimdNodeOps<NodeT, ScriptedWriterMem>;
  constexpr int kLive = 6;
  for (simd::Isa isa : SupportedVectorIsas()) {
    ScriptedWriterMem m;
    alignas(64) NodeT node;
    node.Init(1);
    Ops::StoreLeftmost(m, &node, 0x10000);
    for (int i = 0; i < kLive; ++i) {
      Ops::InsertKey(m, &node, static_cast<Key>(1000 * (i + 1)),
                     0x10000 + 16 * (i + 1));
    }
    const std::uint64_t left = node.records[kLive - 1].ptr;
    node.records[kLive + 1].ptr = 0;  // terminator copied right
    node.records[kLive].key = 1;      // stale
    node.records[kLive].ptr = left;   // duplicate: slot not yet valid
    m.script = {{&node.records[kLive].key, 9000},
                {&node.records[kLive].ptr, 0x90000}};
    m.triggers = {{&node.records[kLive].ptr, 2}};
    EXPECT_EQ(Simd::ChildSearchFor(isa)(m, &node, 8500), left)
        << simd::IsaName(isa);
    EXPECT_EQ(m.applied, 2u) << "the append never landed";
  }
}

TEST(SimdNodeRace, LeafProbeRejectsShiftedInPtrUnderStaleKey) {
  // A FAST insert of key 5 shifts a leaf's records right, writing each
  // slot's ptr before its key. The direct probe nominates key 30 at slot 2
  // from its vector scan; the shift then writes slot 2's ptr (key 20's
  // value) under the still-old key 30 and moves on to slot 1. Slot 2 now
  // reads as a stable pair (30, key 20's value), which only a left
  // neighbour ptr read *before* slot 2 exposes as a duplicate.
  using NodeT = Node<512>;
  using Ops = NodeOps<NodeT, ScriptedWriterMem>;
  using Simd = SimdNodeOps<NodeT, ScriptedWriterMem>;
  for (simd::Isa isa : SupportedVectorIsas()) {
    ScriptedWriterMem m;
    alignas(64) NodeT node;
    node.Init(0);
    for (const Key k : {10, 20, 30, 40}) Ops::InsertKey(m, &node, k, 1000 + k);
    auto* r = node.records;
    m.script = {{&r[5].ptr, 0},     {&r[4].ptr, 1040}, {&r[4].key, 40},
                {&r[3].ptr, 1030},  {&r[3].key, 30},   {&r[2].ptr, 1020},
                {&r[2].key, 20},    {&r[1].ptr, 1010}, {&r[1].key, 10},
                {&r[0].ptr, 0},     {&r[0].key, 5},    {&r[0].ptr, 1005}};
    m.triggers = {{&r[2].ptr, 6}, {&r[1].ptr, 8}};
    EXPECT_EQ(Simd::LeafSearchFor(isa)(m, &node, 30), 1030u)
        << simd::IsaName(isa);
    EXPECT_GE(m.applied, 6u) << "the shift never reached slot 2";
  }
}

// --- layer 3: concurrent writer vs SIMD readers ------------------------------

TEST(SimdConcurrency, ReadersSeeAnchorsWhileWriterFlipsSwitch) {
  using NodeT = Node<512>;
  using Ops = NodeOps<NodeT, core::RealMem>;
  using Simd = SimdNodeOps<NodeT, core::RealMem>;
  constexpr int kCap = NodeT::kCapacity;

  alignas(64) NodeT node;
  node.Init(0);
  core::RealMem wm;
  // Anchors never deleted; churn keys interleave between them so every
  // insert/delete shifts anchor records around.
  std::vector<Key> anchors;
  for (int i = 0; i < kCap / 2; ++i) anchors.push_back(2 * i + 2);
  for (const Key k : anchors) Ops::InsertKey(wm, &node, k, k + 7);

  std::atomic<bool> stop{false};
  std::atomic<int> divergences{0};
  std::thread writer([&] {
    // Single writer = node-lock serialization, as in the tree. Insert then
    // delete churn keys so the switch word flips parity every iteration.
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int> dslot(0, kCap / 2 - 2);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key churn = static_cast<Key>(2 * dslot(rng) + 3);  // odd = churn
      Ops::InsertKey(wm, &node, churn, churn + 7);
      Ops::DeleteKey(wm, &node, churn);
    }
  });

  const auto isas = SupportedVectorIsas();
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < std::max<std::size_t>(isas.size(), 1); ++t) {
    readers.emplace_back([&, t] {
      core::RealMem m;
      auto leaf_fn = isas.empty() ? &Ops::SearchLeaf
                                  : Simd::LeafSearchFor(isas[t % isas.size()]);
      for (int iter = 0; iter < 30000; ++iter) {
        const Key a = anchors[static_cast<std::size_t>(iter) % anchors.size()];
        if (leaf_fn(m, &node, a) != a + 7) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(divergences.load(), 0);

  // Quiesced: full equivalence sweep over the final state.
  core::RealMem m;
  ExpectNodeEquivalence(m, &node, static_cast<Key>(kCap + 4), "post-churn");
}

}  // namespace
}  // namespace fastfair
