// SIMD intra-node search preserving the FAST lock-free read protocol
// (DESIGN.md §9).
//
// The scalar readers in node_ops.h walk records one slot at a time so every
// (key, ptr) pair can be stabilized individually (StableRecord) and the
// whole scan validated by the switch-counter recheck. A vector load has no
// per-lane ordering, so the paper's left-to-right-reader vs
// right-to-left-writer argument does not transfer to a single vector
// snapshot: a reader could observe slot i already shifted and slot i+1 not
// yet, and miss a key that was present throughout. The fix here is
// *double-read stabilization*: deinterleave the record area into
// contiguous keys[]/ptrs[] arrays twice and require the two passes to be
// bit-identical. If the first pass missed a key K mid-shift — formally,
// read(i+1) < write(i+1) < write(i) < read(i) in happens-before order —
// then the second pass's read of slot i+1 is ordered after write(i+1) and
// must observe K, so the passes differ and the scan retries. Values within
// a node are unique (adjacent-duplicate == invalid slot is the FAST
// invariant itself) and writers serialize on the node lock, which rules
// out A-B-A flips between the two passes; the switch-counter recheck
// additionally pins the scan direction.
//
// On a stable snapshot the kernels locate *candidates* (movemask over a
// vector key compare); a hit is then re-validated through the scalar
// policy loads (StableRecord) before it is returned, and every scan ends
// with the same switch recheck the scalar code uses. Misses rely on the
// snapshot + switch recheck, exactly as the scalar code's per-slot
// stability + switch recheck. The decision procedure run over the
// snapshot is a line-for-line transcription of the scalar one: slot-0
// holes, transient duplicate ptrs, duplicate keys from torn delete shifts,
// and the even/odd scan direction all behave identically —
// tests/simd_search_test.cc asserts zero divergence per ISA.
//
// The snapshot is only the *miss* path, though. Its double read costs two
// full passes over the record area — more than the scalar reader's
// early-exiting half-node average — so point lookups take a cheaper route
// first: movemask candidates straight off the live record area (no copy),
// then push every candidate through exactly the scalar acceptance checks —
// StableRecord on the slot, a fresh left-neighbour ptr for the
// duplicate-slot test, and the switch recheck. A candidate that passes is
// as validated as a scalar hit (the torn vector load only *nominated* it);
// what a torn load can do is fail to nominate a present key, which is why
// a miss is never answered from the direct scan — it falls through to the
// double-read snapshot whose bit-identical-passes rule restores the
// monotone-reader guarantee.
//
// Only memory policies with coherent raw loads (RealMem) may take vector
// snapshots; for anything else (crash-sim shadow memory) every entry point
// here resolves to the scalar NodeOps reference.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/defs.h"
#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node_ops.h"

namespace fastfair::core {

namespace detail {
template <class Mem>
constexpr bool MemHasCoherentRawLoads() {
  if constexpr (requires { Mem::kCoherentRawLoads; }) {
    return Mem::kCoherentRawLoads;
  } else {
    return false;
  }
}
}  // namespace detail

template <class NodeT, class Mem>
struct SimdNodeOps {
  using N = NodeT;
  using Ops = NodeOps<NodeT, Mem>;
  static constexpr int kCap = N::kCapacity;
  static constexpr int kSlots = kCap + 1;  // record area incl. spill slot
  static constexpr std::size_t kPadded = simd::RoundUpSlots(kSlots);

  using LeafFn = Value (*)(Mem&, const N*, Key);
  using ChildFn = std::uint64_t (*)(Mem&, const N*, Key);
  using CollectFn = int (*)(Mem&, const N*, Record*);

  /// Deinterleaved, double-read-stabilized image of a node's record area.
  /// Tail slots up to kPadded are (key=~0, ptr=0) so the Find* kernels may
  /// run full vector blocks; results are clamped to kSlots by `to` anyway.
  struct Snapshot {
    alignas(64) std::uint64_t keys[kPadded];
    alignas(64) std::uint64_t ptrs[kPadded];
  };

  /// Takes a stable snapshot of n's records. False after kAttempts
  /// back-to-back mismatches (pathological contention; caller falls back
  /// to the scalar reference which stabilizes per slot).
  template <class K>
  static bool TakeSnapshot(const N* n, Snapshot* s) {
    constexpr int kAttempts = 8;
    const void* recs = static_cast<const void*>(n->records);
    for (int a = 0; a < kAttempts; ++a) {
      K::CopyRecords(recs, kSlots, s->keys, s->ptrs);
      // The compiler must not fuse the verify pass's loads with the copy's.
      std::atomic_signal_fence(std::memory_order_seq_cst);
      asm volatile("" ::: "memory");
      if (K::VerifyRecords(recs, kSlots, s->keys, s->ptrs)) {
        for (std::size_t i = kSlots; i < kPadded; ++i) {
          s->keys[i] = ~std::uint64_t{0};
          s->ptrs[i] = 0;
        }
        return true;
      }
    }
    return false;
  }

  // --- direct fast path ------------------------------------------------------

  /// Outcome of one direct-scan attempt over the live record area.
  enum ProbeState {
    kHit,   // validated hit, switch unchanged: *out is the answer
    kMiss,  // no candidate survived: only the snapshot tier may answer
    kFlip,  // switch counter moved mid-scan: rescan under the new phase
    kBail   // pathological contention: snapshot tier takes over
  };

  // Block geometry for the direct scans: full kRecWidth-record kernel
  // blocks; the tail (kSlots not a width multiple) is one *overlapped*
  // block re-reading the last kRecWidth records, so no vector load runs
  // past the record area and no slot needs a scalar policy-load pass.
  // kTail is the start slot of the overlap block, kTailDrop the number of
  // low mask bits it repeats from the preceding block (shifted out by the
  // callers). Nodes smaller than one kernel block (possible only for very
  // wide ISAs on tiny nodes) keep a policy-load fallback.
  template <class K>
  static constexpr bool kVectorTail =
      static_cast<std::size_t>(kSlots) >= K::kRecWidth;
  template <class K>
  static constexpr std::size_t kFullSlots =
      static_cast<std::size_t>(kSlots) -
      static_cast<std::size_t>(kSlots) % K::kRecWidth;

  /// Stride-2 hit/zero masks (simd::kMaskStride: record base+l maps to bit
  /// 2l) for one block of `lanes` records at `base`; a hit is key == target
  /// (kGt: key > target, unsigned). `lanes` is kRecWidth for every block
  /// except a smaller node-tail remainder, which is served by the overlap
  /// block (kVectorTail) or policy loads.
  template <class K, bool kGt>
  static void BlockMasks(Mem& m, const N* n, std::size_t base,
                         std::size_t lanes, Key key, unsigned* hit,
                         unsigned* z) {
    constexpr std::size_t W = K::kRecWidth;
    constexpr auto kKernel = kGt ? &K::RecordGtZero : &K::RecordEqZero;
    const std::uint64_t* recs =
        reinterpret_cast<const std::uint64_t*>(n->records);
    if (lanes == W) {
      kKernel(recs + 2 * base, key, hit, z);
      return;
    }
    if constexpr (kVectorTail<K>) {
      const std::size_t drop = W - lanes;  // records the last block repeats
      unsigned bh, bz;
      kKernel(recs + 2 * (static_cast<std::size_t>(kSlots) - W), key, &bh,
              &bz);
      *hit = bh >> (2 * drop);
      *z = bz >> (2 * drop);
      return;
    }
    unsigned h = 0, zz = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const int i = static_cast<int>(base + l);
      const Key k = Ops::LoadKeyAt(m, n, i);
      if (kGt ? k > key : k == key) h |= 1u << (2 * l);
      if (Ops::LoadPtrAt(m, n, i) == 0) zz |= 1u << (2 * l);
    }
    *hit = h;
    *z = zz;
  }

  /// Insert-phase direct probe: leftmost valid match wins, the scan stops
  /// at the terminator (first zero ptr; the slot-0 transient hole is not a
  /// terminator). Vector masks only *nominate* slots — every returned hit
  /// passed StableRecord, the left-neighbour duplicate test against a live
  /// load, and the switch recheck, exactly the scalar acceptance tests.
  template <class K>
  static ProbeState FastLeafEven(Mem& m, const N* n, Key key,
                                 std::uint32_t sw, Value* out) {
    constexpr std::size_t W = K::kRecWidth;
    int pos = -1;
    for (std::size_t base = 0; base < static_cast<std::size_t>(kSlots);
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned eq, z;
      BlockMasks<K, false>(m, n, base, lanes, key, &eq, &z);
      if (base == 0 && (z & 1u) != 0 && lanes >= 2 && (z & 4u) == 0) {
        z &= ~1u;  // slot-0 transient hole
      }
      if ((eq | z) == 0) continue;  // nothing of interest in this block
      const unsigned limit = z != 0 ? static_cast<unsigned>(__builtin_ctz(z))
                                    : static_cast<unsigned>(2 * lanes);
      const unsigned cand = eq & ((1u << limit) - 1u);
      if (cand != 0) {
        pos = static_cast<int>(base) +
              static_cast<int>(__builtin_ctz(cand)) / 2;
        break;
      }
      if (z != 0) break;  // terminator: remaining slots are dead
    }
    if (pos < 0) return kMiss;
    // Single-candidate validation: any anomaly (torn read, raced-away key,
    // transient duplicate) bails to the snapshot tier rather than rescanning.
    // The left ptr is read before the slot, as the scalar left-to-right
    // reader does: a right shift writes slot pos's ptr, then its key, then
    // moves on to pos-1, so a slot read as (old key, shifted-in ptr) still
    // matches a left ptr read earlier, but not one read afterwards.
    const std::uint64_t left = pos == 0 ? 0 : Ops::LoadPtrAt(m, n, pos - 1);
    Key k;
    std::uint64_t p;
    if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
    if (k != key || p == 0 || p == left) return kBail;
    if (Ops::LoadSwitch(m, n) != sw) return kFlip;
    *out = p;
    return kHit;
  }

  /// Delete-phase direct probe: rightmost valid match below the terminator
  /// wins, as in the scalar right-to-left scan. One forward sweep collects
  /// the per-block eq masks and the terminator, then candidates are
  /// validated in descending slot order.
  template <class K>
  static ProbeState FastLeafOdd(Mem& m, const N* n, Key key,
                                std::uint32_t sw, Value* out) {
    constexpr std::size_t W = K::kRecWidth;
    constexpr std::size_t kBlocks = (static_cast<std::size_t>(kSlots) + W - 1) / W;
    unsigned eqs[kBlocks];
    std::size_t term = kSlots;
    std::size_t nb = 0;
    for (std::size_t base = 0; base < static_cast<std::size_t>(kSlots);
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned eq, z;
      BlockMasks<K, false>(m, n, base, lanes, key, &eq, &z);
      if (base == 0 && (z & 1u) != 0 && lanes >= 2 && (z & 4u) == 0) {
        z &= ~1u;  // slot-0 transient hole
      }
      eqs[nb++] = eq;
      if (z != 0) {
        term = base + static_cast<unsigned>(__builtin_ctz(z)) / 2;
        break;
      }
    }
    for (std::size_t b = nb; b-- > 0;) {
      const std::size_t base = b * W;
      if (base >= term) continue;
      unsigned cand = eqs[b];
      const std::size_t live = term - base;  // records below the terminator
      if (live < 16) cand &= (1u << (2 * live)) - 1u;
      while (cand != 0) {
        const int bit = 31 - __builtin_clz(cand);
        cand ^= 1u << bit;
        const int pos = static_cast<int>(base) + bit / 2;
        Key k;
        std::uint64_t p;
        if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
        if (k != key || p == 0) continue;  // raced away / hole
        const std::uint64_t left =
            pos == 0 ? 0 : Ops::LoadPtrAt(m, n, pos - 1);
        if (p == left) continue;  // transient duplicate slot
        if (Ops::LoadSwitch(m, n) != sw) return kFlip;
        *out = p;
        return kHit;
      }
    }
    return kMiss;
  }

  /// Internal-node direct probe: find the leftmost valid record with
  /// key > target (RecordGtZero nominates, StableRecord + duplicate test
  /// confirm), then route to the ptr one slot left of that boundary — or
  /// hdr.leftmost when the boundary is the first live slot.
  template <class K>
  static ProbeState FastInternal(Mem& m, const N* n, Key key,
                                 std::uint32_t sw, std::uint64_t leftmost,
                                 std::uint64_t* out) {
    constexpr std::size_t W = K::kRecWidth;
    const int first = Ops::FirstValidSlot(m, n);
    std::size_t bound = kSlots;
    bool found_gt = false;
    bool terminated = false;
    for (std::size_t base = 0;
         base < static_cast<std::size_t>(kSlots) && !found_gt && !terminated;
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned gt, z;
      BlockMasks<K, true>(m, n, base, lanes, key, &gt, &z);
      if (base == 0 && first == 1) {
        gt &= ~1u;  // slot-0 hole is skipped entirely
        z &= ~1u;
      }
      const unsigned limit = z != 0 ? static_cast<unsigned>(__builtin_ctz(z))
                                    : static_cast<unsigned>(2 * lanes);
      unsigned cand = gt & ((1u << limit) - 1u);
      while (cand != 0) {
        const int pos = static_cast<int>(base) + __builtin_ctz(cand) / 2;
        cand &= cand - 1;
        Key k;
        std::uint64_t p;
        if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
        if (p == 0 || key >= k) continue;  // raced away: not a boundary
        const std::uint64_t left =
            pos == first ? leftmost : Ops::LoadPtrAt(m, n, pos - 1);
        if (p == left) continue;  // transient duplicate slot
        bound = static_cast<std::size_t>(pos);
        found_gt = true;
        break;
      }
      if (!found_gt && limit < 2 * lanes) {
        bound = base + limit / 2;  // terminator: key >= every live separator
        terminated = true;
      }
    }
    std::uint64_t child;
    if (bound <= static_cast<std::size_t>(first)) {
      child = leftmost;
      if (child == 0) {
        // Degenerate pre-leftmost node: the first child is a safe miss,
        // mirroring the scalar reader's p0 fallback.
        if (Ops::LoadSwitch(m, n) != sw) return kFlip;
        const std::uint64_t p0 = Ops::LoadPtrAt(m, n, 0);
        if (p0 == 0) return kBail;
        *out = p0;
        return kHit;
      }
      if (Ops::LoadLeftmost(m, n) != child) return kFlip;
    } else {
      Key k;
      if (!Ops::StableRecord(m, n, static_cast<int>(bound) - 1, &k, &child)) {
        return kBail;
      }
      // Duplicate slots carry the valid left ptr, so `child` is correct
      // even when bound-1 is mid-shift transient. A key above the target
      // means bound is stale: the vector scan saw bound-1 as a duplicate
      // (or empty) and a separator has since been committed there.
      if (child == 0 || k > key) return kBail;
    }
    if (Ops::LoadSwitch(m, n) != sw) return kFlip;
    *out = child;
    return kHit;
  }

  /// Vector SearchLeaf: same contract as Ops::SearchLeaf. Hits resolve in
  /// the direct in-register scan; misses and contention fall through to the
  /// double-read snapshot tier (SearchLeafStable), which itself falls back
  /// to the scalar reference.
  template <class K>
  static Value SearchLeaf(Mem& m, const N* n, Key key) {
    for (int round = 0; round < 2; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      Value hit = kNoValue;
      const ProbeState st = sw % 2 == 0 ? FastLeafEven<K>(m, n, key, sw, &hit)
                                        : FastLeafOdd<K>(m, n, key, sw, &hit);
      if (st == kHit) return hit;
      if (st != kFlip) break;
    }
    return SearchLeafStable<K>(m, n, key);
  }

  /// Vector SearchInternal: same contract as Ops::SearchInternal. Same
  /// two-tier structure as SearchLeaf.
  template <class K>
  static std::uint64_t SearchInternal(Mem& m, const N* n, Key key) {
    for (int round = 0; round < 2; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      const std::uint64_t leftmost = Ops::LoadLeftmost(m, n);
      std::uint64_t child = 0;
      const ProbeState st = FastInternal<K>(m, n, key, sw, leftmost, &child);
      if (st == kHit) return child;
      if (st != kFlip) break;
    }
    return SearchInternalStable<K>(m, n, key);
  }

  // --- snapshot tier ---------------------------------------------------------

  // In all three scans below, `prev` (the left-neighbour ptr the FAST
  // validity rule compares against) for slot i reduces to ptrs[i - 1]: after
  // the scalar loop processes slot j it always holds prev == ptrs[j],
  // whether the slot was valid (prev = p) or a duplicate (p == prev
  // already). Slot `first` compares against the initial prev (0 for leaves,
  // hdr.leftmost for internal nodes).

  /// Snapshot-based SearchLeaf: same contract as Ops::SearchLeaf. This is
  /// the miss/contended tier; hits normally resolve in SearchLeaf's direct
  /// scan without ever copying the record area.
  template <class K>
  static Value SearchLeafStable(Mem& m, const N* n, Key key) {
    Snapshot s;
    for (int round = 0; round < 8; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      if (!TakeSnapshot<K>(n, &s)) break;
      Value ret = kNoValue;
      int hit = -1;
      if (sw % 2 == 0) {
        // Insert phase: leftmost valid match wins.
        const int first =
            (s.ptrs[0] == 0 && kCap >= 1 && s.ptrs[1] != 0) ? 1 : 0;
        std::size_t term = K::FindFirstZero(s.ptrs, first, kSlots);
        if (term == simd::kNpos) term = kSlots;
        std::size_t pos = static_cast<std::size_t>(first);
        for (;;) {
          pos = K::FindFirstEq(s.keys, pos, term, key);
          if (pos == simd::kNpos) break;
          const std::uint64_t left =
              pos == static_cast<std::size_t>(first) ? 0 : s.ptrs[pos - 1];
          if (s.ptrs[pos] != left) {  // valid slot
            ret = s.ptrs[pos];
            hit = static_cast<int>(pos);
            break;
          }
          ++pos;  // transient duplicate: keep scanning right
        }
      } else {
        // Delete phase: rightmost valid match wins.
        const int first =
            (s.ptrs[0] == 0 && kCap >= 1 && s.ptrs[1] != 0) ? 1 : 0;
        std::size_t cnt = K::FindFirstZero(s.ptrs, first, kSlots);
        if (cnt == simd::kNpos) cnt = kSlots;
        std::size_t end = cnt;
        for (;;) {
          const std::size_t pos = K::FindLastEq(s.keys, 0, end, key);
          if (pos == simd::kNpos) break;
          const std::uint64_t p = s.ptrs[pos];
          const std::uint64_t left = pos == 0 ? 0 : s.ptrs[pos - 1];
          if (p != 0 && p != left) {  // valid slot
            ret = p;
            hit = static_cast<int>(pos);
            break;
          }
          end = pos;  // hole or duplicate: keep scanning left
        }
      }
      if (hit >= 0) {
        // StableRecord revalidation: only return a pair that is stably
        // present in the live node, same as the scalar reader.
        Key k;
        std::uint64_t p;
        if (!Ops::StableRecord(m, n, hit, &k, &p) || k != key || p != ret) {
          continue;
        }
      }
      if (Ops::LoadSwitch(m, n) == sw) return ret;
      // Direction flipped mid-scan: rescan.
    }
    return Ops::SearchLeaf(m, n, key);  // contended: scalar reference
  }

  /// Snapshot-based SearchInternal: same contract as Ops::SearchInternal.
  /// Miss/contended tier behind SearchInternal's direct scan.
  template <class K>
  static std::uint64_t SearchInternalStable(Mem& m, const N* n, Key key) {
    Snapshot s;
    for (int round = 0; round < 8; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      const std::uint64_t leftmost = Ops::LoadLeftmost(m, n);
      if (!TakeSnapshot<K>(n, &s)) break;
      const int first =
          (s.ptrs[0] == 0 && kCap >= 1 && s.ptrs[1] != 0) ? 1 : 0;
      std::size_t term = K::FindFirstZero(s.ptrs, first, kSlots);
      if (term == simd::kNpos) term = kSlots;
      // First record with key > target; duplicate slots are transparent
      // (the scalar loop skips them before the key compare).
      std::size_t pos = K::FindFirstGt(s.keys, first, term, key);
      while (pos != simd::kNpos) {
        const std::uint64_t left =
            pos == static_cast<std::size_t>(first) ? leftmost
                                                   : s.ptrs[pos - 1];
        if (s.ptrs[pos] != left) break;  // valid: this is the boundary
        pos = K::FindFirstGt(s.keys, pos + 1, term, key);
      }
      const std::size_t bound = pos == simd::kNpos ? term : pos;
      std::uint64_t child;
      int src;  // snapshot slot the child came from; -1 = hdr.leftmost
      if (bound == static_cast<std::size_t>(first)) {
        child = leftmost;
        src = -1;
      } else {
        child = s.ptrs[bound - 1];
        src = static_cast<int>(bound - 1);
      }
      if (child != 0) {
        // Revalidate the slot (or header word) the child ptr came from.
        if (src >= 0) {
          Key k;
          std::uint64_t p;
          if (!Ops::StableRecord(m, n, src, &k, &p) || p != child) continue;
        } else if (Ops::LoadLeftmost(m, n) != child) {
          continue;
        }
        if (Ops::LoadSwitch(m, n) == sw) return child;
        continue;
      }
      if (Ops::LoadSwitch(m, n) == sw) {
        // Degenerate: no leftmost and the key precedes every record. Same
        // fallback as the scalar reader: the first child is a safe miss.
        const std::uint64_t p0 = Ops::LoadPtrAt(m, n, 0);
        if (p0 != 0) return p0;
      }
    }
    return Ops::SearchInternal(m, n, key);  // contended: scalar reference
  }

  /// Vector CollectValid: same contract as Ops::CollectValid.
  template <class K>
  static int CollectValid(Mem& m, const N* n, Record* out) {
    Snapshot s;
    for (int round = 0; round < 8; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      const std::uint64_t init_prev =
          n->is_leaf() ? 0 : Ops::LoadLeftmost(m, n);
      if (!TakeSnapshot<K>(n, &s)) break;
      const int first =
          (s.ptrs[0] == 0 && kCap >= 1 && s.ptrs[1] != 0) ? 1 : 0;
      std::size_t term = K::FindFirstZero(s.ptrs, first, kSlots);
      if (term == simd::kNpos) term = kSlots;
      int cnt = 0;
      Key last_key = 0;
      for (std::size_t i = static_cast<std::size_t>(first); i < term; ++i) {
        const std::uint64_t p = s.ptrs[i];
        const std::uint64_t prev =
            i == static_cast<std::size_t>(first) ? init_prev : s.ptrs[i - 1];
        if (p == prev) continue;  // duplicate ptr: invalid slot
        const Key k = s.keys[i];
        if (cnt > 0 && k == last_key) {
          // Duplicate key from a torn delete shift: rightmost copy wins.
          out[cnt - 1].ptr = p;
          continue;
        }
        out[cnt].key = k;
        out[cnt].ptr = p;
        last_key = k;
        ++cnt;
      }
      if (Ops::LoadSwitch(m, n) == sw) return cnt;
    }
    return Ops::CollectValid(m, n, out);  // contended: scalar reference
  }

  // --- runtime dispatch ------------------------------------------------------

  struct EntryPoints {
    LeafFn leaf;
    ChildFn child;
    CollectFn collect;
  };

  template <class K>
  static constexpr EntryPoints kVectorEntry{&SearchLeaf<K>, &SearchInternal<K>,
                                            &CollectValid<K>};

  /// The entry points for `isa`, or the scalar reference when the ISA is
  /// scalar/unavailable or the policy lacks coherent raw loads.
  static EntryPoints EntryFor(simd::Isa isa) {
    if constexpr (detail::MemHasCoherentRawLoads<Mem>()) {
      switch (isa) {
#if defined(FASTFAIR_SIMD_X86)
        case simd::Isa::kAvx2:
          return kVectorEntry<simd::Kernels<simd::Isa::kAvx2>>;
        case simd::Isa::kAvx512:
          return kVectorEntry<simd::Kernels<simd::Isa::kAvx512>>;
#elif defined(FASTFAIR_SIMD_NEON)
        case simd::Isa::kNeon:
          return kVectorEntry<simd::Kernels<simd::Isa::kNeon>>;
#endif
        default:
          break;
      }
    }
    return {&Ops::SearchLeaf, &Ops::SearchInternal, &Ops::CollectValid};
  }

  static LeafFn LeafSearchFor(simd::Isa isa) { return EntryFor(isa).leaf; }
  static ChildFn ChildSearchFor(simd::Isa isa) { return EntryFor(isa).child; }
  static CollectFn CollectFor(simd::Isa isa) { return EntryFor(isa).collect; }
};

}  // namespace fastfair::core
