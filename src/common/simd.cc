// The vector kernels (DESIGN.md §9.1): common/simd_kernels.inc compiled
// once per ISA. Each x86 ISA gets a `#pragma GCC target` region rather
// than a per-file -mavx2/-mavx512f flag, so every build of src/ compiles
// this file the same way; the region supplies its compare-to-bitmask
// helpers and Kernels<Isa>'s members, which inline the body.
//
// Everything here except those members sits in an anonymous namespace and
// calls only compiler builtins and always-inline intrinsics, so this file
// defines no weak symbol: a linker can never pick an AVX-512-encoded copy
// of a shared inline function for a baseline caller
// (tests/simd_weak_symbols.cmake checks this).

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/simd.h"

#if defined(FASTFAIR_SIMD_X86)
#include <immintrin.h>
#endif

// Defines Kernels<I>'s members as calls into the body compiled in `ns`.
#define FASTFAIR_SIMD_DEFINE_KERNELS(I, ns)                                   \
  template <>                                                                 \
  void Kernels<I>::CopyRecords(const void* recs, std::size_t nrec,            \
                               std::uint64_t* keys, std::uint64_t* ptrs) {    \
    ns::CopyRecords(recs, nrec, keys, ptrs);                                  \
  }                                                                           \
  template <>                                                                 \
  bool Kernels<I>::VerifyRecords(const void* recs, std::size_t nrec,          \
                                 const std::uint64_t* keys,                   \
                                 const std::uint64_t* ptrs) {                 \
    return ns::VerifyRecords(recs, nrec, keys, ptrs);                         \
  }                                                                           \
  template <>                                                                 \
  std::size_t Kernels<I>::FindFirstEq(const std::uint64_t* a,                 \
                                      std::size_t from, std::size_t to,       \
                                      std::uint64_t v) {                      \
    return ns::FindFirst<false>(a, from, to, v);                              \
  }                                                                           \
  template <>                                                                 \
  std::size_t Kernels<I>::FindFirstGt(const std::uint64_t* a,                 \
                                      std::size_t from, std::size_t to,       \
                                      std::uint64_t v) {                      \
    return ns::FindFirst<true>(a, from, to, v);                               \
  }                                                                           \
  template <>                                                                 \
  std::size_t Kernels<I>::FindFirstZero(const std::uint64_t* a,               \
                                        std::size_t from, std::size_t to) {   \
    return ns::FindFirst<false>(a, from, to, 0);                              \
  }                                                                           \
  template <>                                                                 \
  std::size_t Kernels<I>::FindLastEq(const std::uint64_t* a,                  \
                                     std::size_t from, std::size_t to,        \
                                     std::uint64_t v) {                       \
    return ns::FindLastEq(a, from, to, v);                                    \
  }                                                                           \
  template <>                                                                 \
  std::uint64_t Kernels<I>::ByteEqMask(const std::uint8_t* a, std::size_t n,  \
                                       std::uint8_t v) {                      \
    return ns::ByteEqMask(a, n, v);                                           \
  }                                                                           \
  template <>                                                                 \
  void Kernels<I>::RecordEqZero(const std::uint64_t* r, std::uint64_t key,    \
                                unsigned* eq, unsigned* zero) {               \
    ns::RecordMasks<false>(r, key, eq, zero);                                 \
  }                                                                           \
  template <>                                                                 \
  void Kernels<I>::RecordGtZero(const std::uint64_t* r, std::uint64_t key,    \
                                unsigned* gt, unsigned* zero) {               \
    ns::RecordMasks<true>(r, key, gt, zero);                                  \
  }                                                                           \
  static_assert(Kernels<I>::kRecWidth == ns::kRecWidth)

namespace fastfair::simd {

#if defined(FASTFAIR_SIMD_X86)

#pragma GCC push_options
#pragma GCC target("avx2")
namespace {
namespace avx2 {
using V64 = std::uint64_t __attribute__((vector_size(32)));
using V8 = std::uint8_t __attribute__((vector_size(32)));

std::uint64_t EqBits(V64 a, V64 b) {
  return static_cast<unsigned>(_mm256_movemask_pd(__m256d(a == b)));
}
std::uint64_t GtBits(V64 a, V64 b) {
  return static_cast<unsigned>(_mm256_movemask_pd(__m256d(a > b)));
}
std::uint64_t EqBits(V8 a, V8 b) {
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(__m256i(a == b)));
}

#include "common/simd_kernels.inc"
}  // namespace avx2
}  // namespace
FASTFAIR_SIMD_DEFINE_KERNELS(Isa::kAvx2, avx2);
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw")
namespace {
namespace avx512 {
using V64 = std::uint64_t __attribute__((vector_size(64)));
using V8 = std::uint8_t __attribute__((vector_size(64)));

std::uint64_t EqBits(V64 a, V64 b) {
  return _mm512_cmpeq_epu64_mask(__m512i(a), __m512i(b));
}
std::uint64_t GtBits(V64 a, V64 b) {
  return _mm512_cmpgt_epu64_mask(__m512i(a), __m512i(b));
}
std::uint64_t EqBits(V8 a, V8 b) {
  return _mm512_cmpeq_epu8_mask(__m512i(a), __m512i(b));
}

#include "common/simd_kernels.inc"
}  // namespace avx512
}  // namespace
FASTFAIR_SIMD_DEFINE_KERNELS(Isa::kAvx512, avx512);
#pragma GCC pop_options

#elif defined(FASTFAIR_SIMD_NEON)

// NEON is baseline on aarch64: no target region, and the portable lane
// loops stand in for movemask.
namespace {
namespace neon {
using V64 = std::uint64_t __attribute__((vector_size(16)));
using V8 = std::uint8_t __attribute__((vector_size(16)));

#include "common/simd_kernels.inc"
}  // namespace neon
}  // namespace
FASTFAIR_SIMD_DEFINE_KERNELS(Isa::kNeon, neon);

#endif

}  // namespace fastfair::simd
