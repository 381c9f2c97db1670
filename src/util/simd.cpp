#include "util/simd.hpp"

#include <atomic>

namespace scrubber::util {
namespace {

/// -1 = no override, otherwise the pinned SimdLevel. Relaxed ordering is
/// enough: the override is a test/bench configuration knob set before the
/// timed region, not a synchronization point.
std::atomic<int> g_override{-1};

// __builtin_cpu_supports requires a string literal, hence one probe
// function per feature instead of a parameterized helper.

[[nodiscard]] bool probe_avx2() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

[[nodiscard]] bool probe_fma() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "?";
}

bool cpu_has_avx2() noexcept {
  static const bool cached = probe_avx2();
  return cached;
}

bool cpu_has_fma() noexcept {
  static const bool cached = probe_fma();
  return cached;
}

bool simd_compiled_avx2() noexcept {
#if defined(SCRUBBER_AVX2) && SCRUBBER_AVX2 && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  return true;
#else
  return false;
#endif
}

SimdLevel simd_detect() noexcept {
  return simd_compiled_avx2() && cpu_has_avx2() ? SimdLevel::kAvx2
                                                : SimdLevel::kScalar;
}

SimdLevel simd_level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  const SimdLevel detected = simd_detect();
  if (forced < 0) return detected;
  const auto wanted = static_cast<SimdLevel>(forced);
  return wanted < detected ? wanted : detected;  // clamp: only ever lower
}

void set_simd_override(SimdLevel level) noexcept {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

}  // namespace scrubber::util
