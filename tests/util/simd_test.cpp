// Dispatch-layer tests for util/simd.hpp: the override can only ever
// lower the level below simd_detect() (never fault the box by forcing a
// kernel the build or CPU cannot execute), detection respects the
// compile-time gate, and the level names are stable (they land in bench
// provenance and the ixpd stats line).

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <string>

namespace scrubber::util {
namespace {

/// RAII: every test leaves dispatch at the detected level (an AVX2
/// override clamps to simd_detect()).
struct OverrideGuard {
  ~OverrideGuard() { set_simd_override(SimdLevel::kAvx2); }
};

TEST(Simd, LevelNamesAreStable) {
  EXPECT_EQ(std::string(simd_level_name(SimdLevel::kScalar)), "scalar");
  EXPECT_EQ(std::string(simd_level_name(SimdLevel::kAvx2)), "avx2");
}

TEST(Simd, DetectRespectsCompileTimeGate) {
  if (!simd_compiled_avx2()) {
    EXPECT_EQ(simd_detect(), SimdLevel::kScalar)
        << "a scalar-only build must never detect a vector level";
  }
  if (simd_detect() == SimdLevel::kAvx2) {
    EXPECT_TRUE(simd_compiled_avx2());
    EXPECT_TRUE(cpu_has_avx2());
  }
}

TEST(Simd, DefaultLevelIsDetected) {
  EXPECT_EQ(simd_level(), simd_detect());
}

TEST(Simd, OverrideLowersButNeverRaises) {
  OverrideGuard guard;
  set_simd_override(SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar)
      << "forcing scalar must always stick";
  // Forcing AVX2 is clamped to what this build+CPU can actually execute.
  set_simd_override(SimdLevel::kAvx2);
  EXPECT_EQ(simd_level(), simd_detect());
}

TEST(Simd, DetectionIsCachedAndConsistent) {
  const bool avx2 = cpu_has_avx2();
  const bool fma = cpu_has_fma();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cpu_has_avx2(), avx2);
    EXPECT_EQ(cpu_has_fma(), fma);
    EXPECT_EQ(simd_detect(),
              simd_compiled_avx2() && avx2 ? SimdLevel::kAvx2
                                           : SimdLevel::kScalar);
  }
}

}  // namespace
}  // namespace scrubber::util
