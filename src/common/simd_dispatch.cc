// ISA detection, FASTFAIR_SIMD parsing and the process-wide active ISA
// (DESIGN.md §9.1). The kernels themselves live in common/simd.cc.

#include "common/simd.h"

#include <atomic>
#include <cstdlib>

namespace fastfair::simd {

namespace {

Isa ResolveFromEnv() {
  const char* env = std::getenv("FASTFAIR_SIMD");
  if (env == nullptr || env[0] == '\0') return BestSupportedIsa();
  Isa parsed = Isa::kScalar;
  if (!ParseIsa(env, &parsed)) return Isa::kScalar;  // unknown -> scalar
  return IsaSupported(parsed) ? parsed : Isa::kScalar;
}

std::atomic<Isa>& ActiveSlot() {
  static std::atomic<Isa> active{ResolveFromEnv()};
  return active;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

bool ParseIsa(std::string_view s, Isa* out) {
  if (s.empty() || s == "auto") {
    *out = BestSupportedIsa();
    return true;
  }
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (s == IsaName(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(FASTFAIR_SIMD_X86)
    case Isa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#elif defined(FASTFAIR_SIMD_NEON)
    case Isa::kNeon:
      return true;  // NEON is baseline on aarch64
#endif
    default:
      return false;
  }
}

Isa BestSupportedIsa() {
  static const Isa best = [] {
    for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
      if (IsaSupported(isa)) return isa;
    }
    return Isa::kScalar;
  }();
  return best;
}

Isa ActiveIsa() { return ActiveSlot().load(std::memory_order_relaxed); }

Isa ForceIsa(Isa isa) {
  const Isa installed = IsaSupported(isa) ? isa : Isa::kScalar;
  ActiveSlot().store(installed, std::memory_order_relaxed);
  return installed;
}

std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                         std::uint8_t v) {
  switch (ActiveIsa()) {
#if defined(FASTFAIR_SIMD_X86)
    case Isa::kAvx2:
      return Kernels<Isa::kAvx2>::ByteEqMask(a, n, v);
    case Isa::kAvx512:
      return Kernels<Isa::kAvx512>::ByteEqMask(a, n, v);
#elif defined(FASTFAIR_SIMD_NEON)
    case Isa::kNeon:
      return Kernels<Isa::kNeon>::ByteEqMask(a, n, v);
#endif
    default:
      return ScalarKernels::ByteEqMask(a, n, v);
  }
}

}  // namespace fastfair::simd
