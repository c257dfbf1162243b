// Runtime-dispatched SIMD kernels for the hot search paths (DESIGN.md §9).
//
// FAST+FAIR's lock-free readers walk node records one slot at a time so
// every load can be validated (StableRecord + switch recheck). The SIMD
// layer keeps that protocol but vectorizes the *candidate location* step:
// take a double-read-stabilized snapshot of the record area, movemask a
// vector key compare over it, then re-validate only the winning slot
// through the scalar policy loads. This header supplies the primitive
// kernels; core/node_search_simd.h builds the node protocol on top.
//
// Two kernel families: ScalarKernels, the reference, and Kernels<Isa>, one
// generic vector body (common/simd_kernels.inc) that common/simd.cc
// compiles per ISA inside `#pragma GCC target` regions (no global -march,
// no per-file flags): AVX2 and AVX-512 on x86-64, NEON on aarch64. The ISA
// is selected once at startup from cpuid and overridable with
// FASTFAIR_SIMD=scalar|avx2|avx512|neon (unsupported / unknown values clamp
// to scalar; unset or "auto" picks the best the CPU offers). Every vector
// kernel must be bit-identical to the scalar one on the same input
// (tests/simd_search_test.cc enforces this per ISA).
//
// Contract notes shared by all kernels:
//  * u64 Find* kernels scan [from, to) of an array the caller guarantees
//    readable up to RoundUpSlots(to) elements — snapshot arrays are padded
//    for exactly this reason. Gt is an unsigned comparison.
//  * ByteEqMask requires 64 readable bytes at `a` even when n < 64 (the
//    callers point it at in-struct arrays with trailing members).
//  * CopyRecords/VerifyRecords read a {key, ptr} record array (16-byte
//    stride) with plain vector loads: only valid for memory policies with
//    coherent raw loads (RealMem), never for crash-sim shadow policies.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define FASTFAIR_SIMD_X86 1
#elif defined(__aarch64__)
#define FASTFAIR_SIMD_NEON 1
#endif

namespace fastfair::simd {

inline constexpr std::size_t kNpos = ~std::size_t{0};

enum class Isa : std::uint8_t {
  kScalar,
  kAvx2,
  kAvx512,  // requires avx512f + avx512bw
  kNeon,
};

/// Short lowercase name ("scalar", "avx2", ...), the same spelling
/// FASTFAIR_SIMD and --simd accept.
const char* IsaName(Isa isa);

/// Parses an ISA name (also accepts "" and "auto" -> best supported).
/// Returns false on an unknown spelling.
bool ParseIsa(std::string_view s, Isa* out);

/// True when this binary carries code for `isa` (NEON never on x86) and
/// the running CPU reports the feature.
bool IsaSupported(Isa isa);

/// Best supported ISA in preference order avx512 > avx2 > neon > scalar.
Isa BestSupportedIsa();

/// The process-wide active ISA: resolved once from FASTFAIR_SIMD (or
/// BestSupportedIsa when unset/auto) on first call, then cached. All
/// dispatch points (tree construction, ByteEqMask) read this.
Isa ActiveIsa();

/// Test/bench hook: overrides ActiveIsa. Unsupported requests clamp to
/// scalar. Returns the ISA actually installed. Indexes constructed before
/// the call keep their already-resolved function pointers.
Isa ForceIsa(Isa isa);

/// Number of u64 lanes a kernel touches per block for `isa` (snapshot
/// arrays must be padded to a multiple of the largest, kMaxU64Lanes).
inline constexpr std::size_t kMaxU64Lanes = 8;

/// Rounds a slot count up to the snapshot padding boundary.
constexpr std::size_t RoundUpSlots(std::size_t n) {
  return (n + kMaxU64Lanes - 1) & ~(kMaxU64Lanes - 1);
}

/// RecordEqZero/RecordGtZero masks place record l's bit at position
/// kMaskStride * l: the stride-2 layout is the natural shape of an
/// interleaved {key, ptr} vector compare (key lanes are the even lanes),
/// so wide ISAs skip the deinterleave shuffle entirely.
inline constexpr std::size_t kMaskStride = 2;

// ---------------------------------------------------------------------------
// Scalar kernels: the reference implementation.
// ---------------------------------------------------------------------------

struct ScalarKernels {
  /// Deinterleaves nrec {key, ptr} records (16-byte stride) at `recs` into
  /// keys[] / ptrs[].
  static void CopyRecords(const void* recs, std::size_t nrec,
                          std::uint64_t* keys, std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    for (std::size_t i = 0; i < nrec; ++i) {
      keys[i] = r[2 * i];
      ptrs[i] = r[2 * i + 1];
    }
  }

  /// Re-reads the record area and compares against a previous CopyRecords
  /// result; false means a concurrent writer moved something in between.
  static bool VerifyRecords(const void* recs, std::size_t nrec,
                            const std::uint64_t* keys,
                            const std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < nrec; ++i) {
      diff |= keys[i] ^ r[2 * i];
      diff |= ptrs[i] ^ r[2 * i + 1];
    }
    return diff == 0;
  }

  /// First i in [from, to) with a[i] == v, else kNpos.
  static std::size_t FindFirstEq(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v) {
    for (std::size_t i = from; i < to; ++i)
      if (a[i] == v) return i;
    return kNpos;
  }

  /// First i in [from, to) with a[i] > v (unsigned), else kNpos.
  static std::size_t FindFirstGt(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v) {
    for (std::size_t i = from; i < to; ++i)
      if (a[i] > v) return i;
    return kNpos;
  }

  /// First i in [from, to) with a[i] == 0, else kNpos.
  static std::size_t FindFirstZero(const std::uint64_t* a, std::size_t from,
                                   std::size_t to) {
    return FindFirstEq(a, from, to, 0);
  }

  /// Last i in [from, to) with a[i] == v, else kNpos.
  static std::size_t FindLastEq(const std::uint64_t* a, std::size_t from,
                                std::size_t to, std::uint64_t v) {
    for (std::size_t i = to; i > from; --i)
      if (a[i - 1] == v) return i - 1;
    return kNpos;
  }

  /// Bit i set iff a[i] == v, for i in [0, n), n <= 64. (The scalar path
  /// reads only n bytes; vector paths read a full 64-byte window.)
  static std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                                  std::uint8_t v) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (a[i] == v) m |= std::uint64_t{1} << i;
    return m;
  }

  /// Records a kernel block can mask in one shot (see RecordEqZero).
  static constexpr std::size_t kRecWidth = 2;

  /// Direct masks over kRecWidth interleaved {key, ptr} records at r (no
  /// snapshot): bit 2l of *eq set iff r[2l] == key, bit 2l of *zero set
  /// iff r[2l + 1] == 0. The stride-2 bit layout (record l at bit 2l,
  /// kMaskStride) lets wide ISAs compare the interleaved record bytes
  /// in place — one vector load, no cross-lane shuffles — and hand back
  /// the compare mask with the off-lanes masked off. The caller owns
  /// making something of a possibly-torn observation
  /// (node_search_simd.h revalidates every candidate through the scalar
  /// policy loads).
  static void RecordEqZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* eq, unsigned* zero) {
    unsigned e = 0, z = 0;
    for (std::size_t l = 0; l < kRecWidth; ++l) {
      if (r[2 * l] == key) e |= 1u << (2 * l);
      if (r[2 * l + 1] == 0) z |= 1u << (2 * l);
    }
    *eq = e;
    *zero = z;
  }

  /// Same shape with an unsigned > compare on the keys (internal-node
  /// boundary location).
  static void RecordGtZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* gt, unsigned* zero) {
    unsigned g = 0, z = 0;
    for (std::size_t l = 0; l < kRecWidth; ++l) {
      if (r[2 * l] > key) g |= 1u << (2 * l);
      if (r[2 * l + 1] == 0) z |= 1u << (2 * l);
    }
    *gt = g;
    *zero = z;
  }
};

// ---------------------------------------------------------------------------
// Vector kernels: ScalarKernels' interface, defined out of line in
// common/simd.cc for the ISAs this binary compiles (avx2 and avx512 on
// x86-64, neon on aarch64). Each call is an out-of-line call into code
// built for that ISA, which is why callers must check IsaSupported first.
// ---------------------------------------------------------------------------

template <Isa I>
struct Kernels {
  /// One block is two vectors: 8 records at 64 bytes, 4 at 32, 2 at 16.
  static constexpr std::size_t kRecWidth =
      I == Isa::kAvx512 ? 8 : I == Isa::kAvx2 ? 4 : 2;

  static void CopyRecords(const void* recs, std::size_t nrec,
                          std::uint64_t* keys, std::uint64_t* ptrs);
  static bool VerifyRecords(const void* recs, std::size_t nrec,
                            const std::uint64_t* keys,
                            const std::uint64_t* ptrs);
  static std::size_t FindFirstEq(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v);
  static std::size_t FindFirstGt(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v);
  static std::size_t FindFirstZero(const std::uint64_t* a, std::size_t from,
                                   std::size_t to);
  static std::size_t FindLastEq(const std::uint64_t* a, std::size_t from,
                                std::size_t to, std::uint64_t v);
  static std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                                  std::uint8_t v);
  static void RecordEqZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* eq, unsigned* zero);
  static void RecordGtZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* gt, unsigned* zero);
};

// ---------------------------------------------------------------------------
// Runtime-dispatched convenience wrappers (one predictable switch per call;
// hot paths that care resolve a function pointer per kernel instead — see
// core/node_search_simd.h).
// ---------------------------------------------------------------------------

/// ByteEqMask on the active ISA. Same 64-readable-bytes contract as the
/// kernel structs.
std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                         std::uint8_t v);

}  // namespace fastfair::simd
