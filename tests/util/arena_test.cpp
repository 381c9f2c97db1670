// util::Arena bump-allocator tests: alignment, block reuse across reset()
// (the steady-state zero-allocation property), and geometric growth with
// the per-block cap.

#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

namespace scrubber::util {
namespace {

TEST(Arena, AllocatesAlignedStorage) {
  Arena arena;
  auto* bytes = arena.alloc<std::uint8_t>(3);
  ASSERT_NE(bytes, nullptr);
  auto* words = arena.alloc<std::uint64_t>(4);
  ASSERT_NE(words, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) % alignof(std::uint64_t),
            0u);
  // The storage is writable and distinct.
  std::memset(bytes, 0xAB, 3);
  for (int i = 0; i < 4; ++i) words[i] = 7;
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(words[3], 7u);
}

TEST(Arena, ResetReusesBlocks) {
  Arena arena(1024);
  std::vector<std::uint64_t*> first_pass;
  for (int i = 0; i < 100; ++i) first_pass.push_back(arena.alloc<std::uint64_t>(16));

  // Same workload after reset: the same storage, allocation for allocation.
  for (int cycle = 0; cycle < 10; ++cycle) {
    arena.reset();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(arena.alloc<std::uint64_t>(16), first_pass[i]) << "cycle " << cycle;
    }
  }
}

TEST(Arena, GrowsForOversizedRequests) {
  Arena arena(1024);
  // A single request larger than any default block still succeeds.
  auto* big = arena.alloc<std::uint8_t>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  EXPECT_EQ(big[0] + big[(1 << 20) - 1], 3);
}

TEST(Arena, PointersRemainValidAcrossGrowth) {
  Arena arena(1024);
  // Earlier allocations must not move when the arena adds blocks.
  auto* first = arena.alloc<std::uint64_t>(1);
  *first = 0xFEEDFACE;
  for (int i = 0; i < 10000; ++i) std::ignore = arena.alloc<std::uint64_t>(8);
  EXPECT_EQ(*first, 0xFEEDFACE);
}

}  // namespace
}  // namespace scrubber::util
