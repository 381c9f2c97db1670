// SIMD-vs-scalar bit-identity property suite (DESIGN.md §13).
//
// compiled_tree_test.cpp proves batch == per-row under whatever kernel
// util::simd_level() happens to pick. This file pins BOTH kernels
// explicitly via set_simd_override() and compares their outputs bit for
// bit (memcmp, so NaN payloads count too) across the adversarial corner
// inputs: NaN (missing) cells, feature indices beyond the row width,
// values exactly on a split threshold, empty and single-leaf (degenerate)
// trees, row counts that are not a multiple of the lane width, padded vs
// unpadded batch buffers, and the dispatch fallback itself.
//
// On a machine (or build: SCRUBBER_AVX2=OFF) without AVX2 the forced
// "avx2" runs are clamped to scalar by the dispatch layer — every
// comparison still holds, and the forced-scalar CI leg runs exactly that
// way by design.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "ml/compiled_tree.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace scrubber::ml {
namespace {

// Same discrete pool as compiled_tree_test.cpp: cells and thresholds
// collide so `v <= t` lands exactly on the boundary, and -1.0 doubles as
// the missing/out-of-range substitute value.
constexpr double kPool[] = {-3.7, -1.0, 0.0, 0.5, 1.0, 2.5, 1e9};

struct Node {
  double threshold = 0.0;
  double value = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::uint32_t feature = 0;
};

/// Random topology; features occasionally index one past the row width.
std::int32_t grow(std::vector<Node>& nodes, util::Rng& rng,
                  std::uint32_t width, int depth) {
  const std::size_t index = nodes.size();
  nodes.emplace_back();
  if (depth == 0 || rng.chance(0.3)) {
    nodes[index].value = rng.uniform(-2.0, 2.0);
    return static_cast<std::int32_t>(index);
  }
  nodes[index].feature = static_cast<std::uint32_t>(rng.below(width + 1));
  nodes[index].threshold = kPool[rng.below(std::size(kPool))];
  const std::int32_t left = grow(nodes, rng, width, depth - 1);
  const std::int32_t right = grow(nodes, rng, width, depth - 1);
  nodes[index].left = left;
  nodes[index].right = right;
  return static_cast<std::int32_t>(index);
}

std::vector<double> random_cells(util::Rng& rng, std::size_t count) {
  std::vector<double> cells(count);
  for (auto& cell : cells) {
    cell = rng.chance(0.15) ? std::numeric_limits<double>::quiet_NaN()
                            : kPool[rng.below(std::size(kPool))];
  }
  return cells;
}

/// RAII: pin the dispatch level for one batch call, restore after.
struct ForceLevel {
  explicit ForceLevel(util::SimdLevel level) noexcept {
    util::set_simd_override(level);
  }
  // The highest level clamps to simd_detect(): automatic dispatch again.
  ~ForceLevel() { util::set_simd_override(util::SimdLevel::kAvx2); }
};

std::vector<double> forest_margins(const CompiledForest& forest,
                                   std::span<const double> rows,
                                   std::size_t width, std::size_t n,
                                   util::SimdLevel level) {
  ForceLevel guard(level);
  std::vector<double> out(n);
  forest.margin_batch(rows, width, out);
  return out;
}

std::vector<double> tree_predictions(const CompiledTree& tree,
                                     std::span<const double> rows,
                                     std::size_t width, std::size_t n,
                                     util::SimdLevel level) {
  ForceLevel guard(level);
  std::vector<double> out(n);
  tree.predict_batch(rows, width, out);
  return out;
}

void expect_bits_equal(const std::vector<double>& scalar,
                       const std::vector<double>& vector, const char* what) {
  ASSERT_EQ(scalar.size(), vector.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &vector[i], sizeof(double)), 0)
        << what << ": row " << i << " scalar=" << scalar[i]
        << " vector=" << vector[i];
  }
}

TEST(SimdInference, ForestMarginsBitIdenticalOnRandomForests) {
  util::Rng rng(0x51D0);
  for (int trial = 0; trial < 40; ++trial) {
    const auto width = static_cast<std::uint32_t>(1 + rng.below(6));
    std::vector<std::vector<Node>> trees(1 + rng.below(8));
    for (auto& tree : trees) {
      grow(tree, rng, width, static_cast<int>(1 + rng.below(7)));
    }
    const CompiledForest forest =
        CompiledForest::compile(trees, rng.uniform(-1.0, 1.0));

    // Unpadded buffer: the vector kernel takes n & ~3, the scalar oracle
    // finishes the ragged tail.
    const std::size_t n = rng.below(40);
    const std::vector<double> rows = random_cells(rng, n * width);
    const auto scalar =
        forest_margins(forest, rows, width, n, util::SimdLevel::kScalar);
    const auto vector =
        forest_margins(forest, rows, width, n, util::SimdLevel::kAvx2);
    expect_bits_equal(scalar, vector, "unpadded margins");
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          forest.margin(std::span(rows.data() + i * width, width));
      EXPECT_EQ(std::memcmp(&scalar[i], &want, sizeof(double)), 0)
          << "trial " << trial << " row " << i;
    }
  }

  // One production-sized batch: 16 trees of depth 6 over 24 features and
  // 4,093 rows, so the 8-row unrolled kernel runs long with a ragged tail.
  constexpr std::uint32_t kWidth = 24;
  constexpr std::size_t kRows = 4'093;
  std::vector<std::vector<Node>> trees(16);
  for (auto& tree : trees) grow(tree, rng, kWidth, 6);
  const CompiledForest forest = CompiledForest::compile(trees, 0.25);
  const std::vector<double> rows = random_cells(rng, kRows * kWidth);
  const auto scalar =
      forest_margins(forest, rows, kWidth, kRows, util::SimdLevel::kScalar);
  expect_bits_equal(
      scalar,
      forest_margins(forest, rows, kWidth, kRows, util::SimdLevel::kAvx2),
      "large batch margins");
  for (std::size_t i = 0; i < kRows; ++i) {
    const double want =
        forest.margin(std::span(rows.data() + i * kWidth, kWidth));
    EXPECT_EQ(std::memcmp(&scalar[i], &want, sizeof(double)), 0)
        << "large batch row " << i;
  }
}

TEST(SimdInference, TreePredictionsBitIdenticalOnRandomTrees) {
  util::Rng rng(0x51D1);
  for (int trial = 0; trial < 40; ++trial) {
    const auto width = static_cast<std::uint32_t>(1 + rng.below(6));
    std::vector<Node> nodes;
    grow(nodes, rng, width, static_cast<int>(1 + rng.below(8)));
    const CompiledTree tree = CompiledTree::compile(nodes);

    const std::size_t n = rng.below(40);
    const std::vector<double> rows = random_cells(rng, n * width);
    const auto scalar =
        tree_predictions(tree, rows, width, n, util::SimdLevel::kScalar);
    const auto vector =
        tree_predictions(tree, rows, width, n, util::SimdLevel::kAvx2);
    expect_bits_equal(scalar, vector, "tree predictions");
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar[i],
                tree.predict(std::span(rows.data() + i * width, width)))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(SimdInference, PaddedBufferCoversRaggedTail) {
  // Rows padded to a multiple of kSimdLaneRows (the LiveDetector batch
  // assembly): the vector kernel covers the ragged tail via the zero
  // padding rows, whose outputs are never read back.
  util::Rng rng(0x51D2);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 9u, 13u, 17u, 31u}) {
    const std::uint32_t width = 5;
    std::vector<std::vector<Node>> trees(3);
    for (auto& tree : trees) grow(tree, rng, width, 6);
    const CompiledForest forest = CompiledForest::compile(trees, 0.25);

    const std::size_t padded =
        (n + kSimdLaneRows - 1) / kSimdLaneRows * kSimdLaneRows;
    std::vector<double> rows(padded * width, 0.0);
    const std::vector<double> cells = random_cells(rng, n * width);
    std::memcpy(rows.data(), cells.data(), cells.size() * sizeof(double));

    const auto scalar_padded =
        forest_margins(forest, rows, width, n, util::SimdLevel::kScalar);
    const auto vector_padded =
        forest_margins(forest, rows, width, n, util::SimdLevel::kAvx2);
    const auto vector_unpadded =
        forest_margins(forest, cells, width, n, util::SimdLevel::kAvx2);
    expect_bits_equal(scalar_padded, vector_padded, "padded buffer");
    expect_bits_equal(scalar_padded, vector_unpadded,
                      "padded vs unpadded entry");
  }
}

TEST(SimdInference, OnThresholdMissingAndOutOfRangeCells) {
  // One hand-built tree whose root splits feature 0 at 0.5 and whose right
  // child reads feature 7 of width-2 rows (out of range -> -1.0 -> left).
  std::vector<Node> nodes(5);
  nodes[0] = {.threshold = 0.5, .left = 1, .right = 2, .feature = 0};
  nodes[1] = {.value = 10.0};
  nodes[2] = {.threshold = -1.0, .left = 3, .right = 4, .feature = 7};
  nodes[3] = {.value = 20.0};
  nodes[4] = {.value = 30.0};
  const CompiledTree tree = CompiledTree::compile(nodes);
  const CompiledForest forest =
      CompiledForest::compile(std::vector<std::vector<Node>>{nodes}, 0.0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double above = std::nextafter(0.5, 1.0);
  // width 2; feature 1 is never read, feature 7 never exists.
  const std::vector<double> rows{
      0.5,   0.0,  // exactly on threshold -> left -> 10
      above, 0.0,  // just above -> right, f7 out of range -> -1 <= -1 -> 20
      nan,   0.0,  // missing -> -1.0 <= 0.5 -> left -> 10
      -1.0,  nan,  // boundary pool value -> left -> 10
      1e9,   0.0,  // far right -> 20 (via out-of-range left turn)
  };
  const std::size_t n = 5;
  const std::vector<double> want{10.0, 20.0, 10.0, 10.0, 20.0};

  const auto scalar =
      tree_predictions(tree, rows, 2, n, util::SimdLevel::kScalar);
  const auto vector =
      tree_predictions(tree, rows, 2, n, util::SimdLevel::kAvx2);
  expect_bits_equal(scalar, vector, "corner cells");
  EXPECT_EQ(scalar, want);

  const auto margins_scalar =
      forest_margins(forest, rows, 2, n, util::SimdLevel::kScalar);
  const auto margins_vector =
      forest_margins(forest, rows, 2, n, util::SimdLevel::kAvx2);
  expect_bits_equal(margins_scalar, margins_vector, "corner margins");
  EXPECT_EQ(margins_scalar, want);
}

TEST(SimdInference, DegenerateForestsAgree) {
  util::Rng rng(0x51D3);
  const std::uint32_t width = 3;
  const std::size_t n = 9;
  const std::vector<double> rows = random_cells(rng, n * width);

  // No trees at all: margin is the base margin everywhere.
  const CompiledForest empty =
      CompiledForest::compile(std::vector<std::vector<Node>>{}, 0.75);
  for (const auto level : {util::SimdLevel::kScalar, util::SimdLevel::kAvx2}) {
    for (const double margin : forest_margins(empty, rows, width, n, level)) {
      EXPECT_EQ(margin, 0.75);
    }
  }

  // Single-leaf (depth 0) trees: zero lockstep steps per tree.
  std::vector<std::vector<Node>> stumps(4);
  for (std::size_t t = 0; t < stumps.size(); ++t) {
    stumps[t].push_back({.value = static_cast<double>(t) + 0.5});
  }
  const CompiledForest leafy = CompiledForest::compile(stumps, -1.0);
  const auto scalar =
      forest_margins(leafy, rows, width, n, util::SimdLevel::kScalar);
  const auto vector =
      forest_margins(leafy, rows, width, n, util::SimdLevel::kAvx2);
  expect_bits_equal(scalar, vector, "leaf-only forest");
  for (const double margin : scalar) {
    EXPECT_EQ(margin, -1.0 + 0.5 + 1.5 + 2.5 + 3.5);
  }

  // Zero-width rows and empty batches must be no-ops under both kernels.
  const CompiledTree empty_tree = CompiledTree::compile(std::vector<Node>{});
  for (const auto level : {util::SimdLevel::kScalar, util::SimdLevel::kAvx2}) {
    const auto none = tree_predictions(empty_tree, {}, 0, 0, level);
    EXPECT_TRUE(none.empty());
    for (const double p : tree_predictions(empty_tree, rows, width, n, level)) {
      EXPECT_EQ(p, 0.5);  // empty tree scores 0.5 everywhere
    }
  }
}

TEST(SimdInference, ForcedVectorOnSmallBatchesFallsBackCleanly) {
  // Batches below kSimdLaneRows rows never enter the vector kernel even
  // when it is forced — simd dispatch hands them to the scalar oracle.
  util::Rng rng(0x51D4);
  const std::uint32_t width = 4;
  std::vector<std::vector<Node>> trees(2);
  for (auto& tree : trees) grow(tree, rng, width, 5);
  const CompiledForest forest = CompiledForest::compile(trees, 0.0);
  for (std::size_t n = 1; n < kSimdLaneRows; ++n) {
    const std::vector<double> rows = random_cells(rng, n * width);
    const auto scalar =
        forest_margins(forest, rows, width, n, util::SimdLevel::kScalar);
    const auto vector =
        forest_margins(forest, rows, width, n, util::SimdLevel::kAvx2);
    expect_bits_equal(scalar, vector, "sub-lane batch");
  }
}

}  // namespace
}  // namespace scrubber::ml
