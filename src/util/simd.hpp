#pragma once
// SIMD capability detection and kernel dispatch for the scoring hot path.
//
// Two gates decide which inference kernel runs (DESIGN.md §13):
//
//   compile time  SCRUBBER_AVX2 (CMake option, default ON) compiles the
//                 AVX2 lane-table kernels in ml/compiled_tree_avx2.cpp.
//                 OFF builds a scalar-only binary — the forced-scalar CI
//                 leg — where simd_level() can never report kAvx2.
//   run time      cpuid (via __builtin_cpu_supports) confirms the machine
//                 actually executes AVX2 before the first vector kernel is
//                 selected, so one binary serves both old and new boxes.
//
// set_simd_override() forces a level below the detected one (benches time
// both kernels on the same machine; tests pin the fallback path). Forcing
// a level the build or the CPU cannot execute is clamped to simd_detect()
// — the override can only ever *lower* the level, never fault the box.
//
// Every kernel behind this dispatch is BIT-IDENTICAL to the scalar oracle
// by contract; the level changes wall time, never output. This header is
// one of the two files allowed to touch x86 vector intrinsics
// (scrubber-simd-isolation) — it deliberately contains none itself, so it
// stays includable from any TU on any architecture.

#include <cstdint>

namespace scrubber::util {

/// Kernel tiers, ordered: a higher level implies the lower ones work.
enum class SimdLevel : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Display name ("scalar", "avx2") used in stats lines and provenance.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// True when the running CPU reports AVX2 (cpuid, cached after first call).
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// True when the running CPU reports FMA3. Recorded in bench provenance
/// only — the inference kernels use no fused ops (fusion would break
/// bit-identity with the scalar oracle).
[[nodiscard]] bool cpu_has_fma() noexcept;

/// True when this binary was built with SCRUBBER_AVX2=ON.
[[nodiscard]] bool simd_compiled_avx2() noexcept;

/// Highest level this binary can execute on this machine (compile-time
/// gate AND runtime cpuid), ignoring any override.
[[nodiscard]] SimdLevel simd_detect() noexcept;

/// The level kernels dispatch on: min(simd_detect(), override).
[[nodiscard]] SimdLevel simd_level() noexcept;

/// Pins dispatch at `level` (clamped to simd_detect()). Thread-safe;
/// intended for benches and tests, not for per-call toggling.
void set_simd_override(SimdLevel level) noexcept;

}  // namespace scrubber::util
