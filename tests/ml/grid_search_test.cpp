#include "ml/grid_search.hpp"

#include <gtest/gtest.h>

#include <set>

#include "ml/decision_tree.hpp"
#include "ml/preprocess.hpp"

namespace scrubber::ml {
namespace {

Dataset blobs(std::size_t n, std::uint64_t seed) {
  Dataset data({{"x0", ColumnKind::kNumeric}, {"x1", ColumnKind::kNumeric}});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    const double row[2] = {rng.normal(y ? 1.5 : -1.5, 1.0),
                           rng.normal(y ? 1.5 : -1.5, 1.0)};
    data.add_row(row, y);
  }
  return data;
}

TEST(ParamGrid, CartesianProduct) {
  const auto grid = param_grid({{"a", {1.0, 2.0}}, {"b", {10.0, 20.0, 30.0}}});
  EXPECT_EQ(grid.size(), 6u);
  // Every combination appears exactly once.
  std::set<std::pair<double, double>> seen;
  for (const auto& point : grid) seen.insert({point.at("a"), point.at("b")});
  EXPECT_EQ(seen.size(), 6u);
}

TEST(ParamGrid, EmptyAxesGiveSinglePoint) {
  const auto grid = param_grid({});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid[0].empty());
}

TEST(ParamGrid, SingleAxis) {
  const auto grid = param_grid({{"x", {1.0, 2.0, 3.0}}});
  EXPECT_EQ(grid.size(), 3u);
}

/// k-fold cross-validated F_0.5 of an unparameterized decision tree: a
/// one-point grid search.
double cross_val_score(const Dataset& data, std::size_t folds, util::Rng& rng) {
  return grid_search(
             data, param_grid({}),
             [](const ParamPoint&) {
               Pipeline p;
               p.set_classifier(std::make_unique<DecisionTree>());
               return p;
             },
             folds, rng)
      .best_score;
}

TEST(CrossVal, ScoreIsHighOnSeparableData) {
  const Dataset data = blobs(900, 1);
  util::Rng rng(2);
  EXPECT_GT(cross_val_score(data, 3, rng), 0.9);
}

TEST(CrossVal, DeterministicGivenSeed) {
  const Dataset data = blobs(300, 3);
  util::Rng rng_a(7), rng_b(7);
  EXPECT_DOUBLE_EQ(cross_val_score(data, 3, rng_a),
                   cross_val_score(data, 3, rng_b));
}

TEST(GridSearch, PicksDepthThatFitsData) {
  // Depth 1 underfits a quadrant problem (XOR-free variant still needs 2).
  Dataset data({{"x0", ColumnKind::kNumeric}, {"x1", ColumnKind::kNumeric}});
  util::Rng rng(4);
  for (int i = 0; i < 1200; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    const int y = (a > 0.0 && b > 0.0) ? 1 : 0;  // needs depth 2
    const double row[2] = {a, b};
    data.add_row(row, y);
  }
  util::Rng rng2(5);
  const auto grid = param_grid({{"max_depth", {1.0, 4.0}}});
  const auto result = grid_search(
      data, grid,
      [](const ParamPoint& point) {
        DecisionTreeParams params;
        params.max_depth = static_cast<std::size_t>(point.at("max_depth"));
        Pipeline p;
        p.set_classifier(std::make_unique<DecisionTree>(params));
        return p;
      },
      3, rng2);
  EXPECT_DOUBLE_EQ(result.best_params.at("max_depth"), 4.0);
  EXPECT_EQ(result.all_scores.size(), 2u);
  EXPECT_GT(result.best_score, 0.9);
  // Scores recorded in grid order.
  EXPECT_LT(result.all_scores[0].second, result.all_scores[1].second);
}

}  // namespace
}  // namespace scrubber::ml
