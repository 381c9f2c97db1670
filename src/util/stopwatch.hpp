#pragma once
// Timing utilities: a steady-clock stopwatch and a CPU cycle counter used
// to report the paper's "mega clock cycles per prediction" (mcc) metric.

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
// NOLINTNEXTLINE(scrubber-simd-isolation): __rdtsc is a cycle counter, not a vector kernel — no AVX2 dispatch needed, it runs on every x86_64
#include <x86intrin.h>
#endif

namespace scrubber::util {

/// Reads the CPU timestamp counter when available; falls back to a
/// nanosecond steady clock (1 tick ~ 1 ns) on other architectures.
[[nodiscard]] inline std::uint64_t cycle_count() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Simple steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  /// Restarts the stopwatch.
  void reset() noexcept { start_ = clock::now(); }

  /// Elapsed time in seconds since construction or last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Measures CPU cycles across a region; mirrors the paper's mcc metric.
class CycleTimer {
 public:
  CycleTimer() noexcept : start_(cycle_count()) {}

  void reset() noexcept { start_ = cycle_count(); }

  /// Elapsed cycles (or ns on non-x86) since construction / reset.
  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return cycle_count() - start_;
  }

  /// Elapsed mega-cycles, the unit used in Table 3 of the paper.
  [[nodiscard]] double mega_cycles() const noexcept {
    return static_cast<double>(cycles()) / 1e6;
  }

 private:
  std::uint64_t start_;
};

}  // namespace scrubber::util
