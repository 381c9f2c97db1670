// Property tests for the flattened (compiled) tree inference path: for
// random tree/forest topologies and adversarial rows (NaNs, values exactly
// on split thresholds, out-of-range feature indices), the batch kernel must
// be bit-identical to the per-node scalar walk. This is the oracle that
// lets LiveDetector and the tag predictor route through predict_batch
// without any behavioural review: identical bits, faster layout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ml/compiled_tree.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/pipeline.hpp"
#include "util/rng.hpp"

namespace scrubber::ml {
namespace {

// Thresholds and row values share one discrete pool so that `v <= t`
// regularly lands exactly on the boundary — the case a sloppy kernel
// rewrite (e.g. flipping to `<`) would get wrong. -1.0 matters doubly:
// it is also the substitute value for missing/out-of-range features.
constexpr double kPool[] = {-3.7, -1.0, 0.0, 0.5, 1.0, 2.5, 1e9};

double random_cell(util::Rng& rng) {
  if (rng.chance(0.15)) return kMissing;  // quiet NaN
  return kPool[rng.below(std::size(kPool))];
}

/// Grows a random topology into `nodes`, returning the subtree root index.
/// Features occasionally index one past the row width to exercise the
/// out-of-range → -1.0 substitution.
template <typename Node>
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

Dataset random_rows(util::Rng& rng, std::uint32_t width, std::size_t n) {
  std::vector<ColumnInfo> cols;
  for (std::uint32_t j = 0; j < width; ++j) {
    cols.push_back({std::string("f").append(std::to_string(j)),
                    ColumnKind::kNumeric});
  }
  Dataset data(std::move(cols));
  std::vector<double> row(width);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& cell : row) cell = random_cell(rng);
    data.add_row(row, 0);
  }
  return data;
}

TEST(CompiledTree, BatchBitIdenticalToScalarOnRandomTrees) {
  util::Rng rng(0xC0117EE5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto width = static_cast<std::uint32_t>(1 + rng.below(6));
    const auto depth = static_cast<int>(1 + rng.below(8));
    std::vector<DecisionTree::Node> nodes;
    grow(nodes, rng, width, depth);
    DecisionTree tree;
    tree.restore(std::move(nodes));

    // Row counts around the block size (16) hit full blocks, the ragged
    // tail, and the empty case over the course of the trials.
    const Dataset rows = random_rows(rng, width, rng.below(40));
    std::vector<double> batch(rows.n_rows());
    tree.score_batch(rows, batch);
    for (std::size_t i = 0; i < rows.n_rows(); ++i) {
      const double scalar = tree.score(rows.row(i));
      EXPECT_EQ(scalar, batch[i]) << "trial " << trial << " row " << i;
      EXPECT_EQ(scalar, tree.compiled().predict(rows.row(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(CompiledTree, EmptyTreeScoresHalfEverywhere) {
  DecisionTree tree;
  tree.restore({});
  util::Rng rng(7);
  const Dataset rows = random_rows(rng, 3, 17);
  std::vector<double> batch(rows.n_rows());
  tree.score_batch(rows, batch);
  for (std::size_t i = 0; i < rows.n_rows(); ++i) {
    EXPECT_EQ(tree.score(rows.row(i)), 0.5);
    EXPECT_EQ(batch[i], 0.5);
  }
}

TEST(CompiledForest, BatchBitIdenticalToScalarOnRandomForests) {
  util::Rng rng(0xF05E57);
  for (int trial = 0; trial < 30; ++trial) {
    const auto width = static_cast<std::uint32_t>(1 + rng.below(5));
    std::vector<GradientBoostedTrees::Tree> trees(1 + rng.below(8));
    for (auto& tree : trees) {
      grow(tree, rng, width, static_cast<int>(1 + rng.below(6)));
    }
    GradientBoostedTrees model;
    model.restore(std::move(trees), rng.uniform(-1.0, 1.0), GbtParams{}, {});

    const Dataset rows = random_rows(rng, width, rng.below(40));
    std::vector<double> batch(rows.n_rows());
    model.score_batch(rows, batch);
    for (std::size_t i = 0; i < rows.n_rows(); ++i) {
      const double scalar = model.score(rows.row(i));
      EXPECT_EQ(scalar, batch[i]) << "trial " << trial << " row " << i;
      EXPECT_EQ(model.margin(rows.row(i)),
                model.compiled().margin(rows.row(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(CompiledForest, TrainedModelsBatchIdentical) {
  // End-to-end: models trained by the real fit() (including ccp pruning on
  // the DT side, which orphans nodes the flattener must drop) agree with
  // their compiled form on rows with missing values.
  std::vector<ColumnInfo> cols{{"x0", ColumnKind::kNumeric},
                               {"x1", ColumnKind::kNumeric},
                               {"x2", ColumnKind::kNumeric}};
  Dataset train(cols);
  util::Rng rng(42);
  std::vector<double> row(3);
  for (std::size_t i = 0; i < 400; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    for (auto& cell : row) cell = rng.normal(y ? 1.0 : -1.0, 1.0);
    train.add_row(row, y);
  }
  const Dataset test = random_rows(rng, 3, 97);

  DecisionTree dt(DecisionTreeParams{.max_depth = 6, .ccp_alpha = 0.001});
  dt.fit(train);
  GradientBoostedTrees gbt(GbtParams{.n_estimators = 8, .max_depth = 4});
  gbt.fit(train);

  std::vector<double> dt_batch(test.n_rows()), gbt_batch(test.n_rows());
  dt.score_batch(test, dt_batch);
  gbt.score_batch(test, gbt_batch);
  for (std::size_t i = 0; i < test.n_rows(); ++i) {
    EXPECT_EQ(dt.score(test.row(i)), dt_batch[i]) << "row " << i;
    EXPECT_EQ(gbt.score(test.row(i)), gbt_batch[i]) << "row " << i;
  }
}

TEST(Pipeline, ScoreAllBitIdenticalToPerRowScore) {
  std::vector<ColumnInfo> cols{{"x0", ColumnKind::kNumeric},
                               {"x1", ColumnKind::kNumeric},
                               {"port", ColumnKind::kCategorical}};
  Dataset train(cols);
  util::Rng rng(0xA11);
  std::vector<double> row(3);
  for (std::size_t i = 0; i < 300; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    row[0] = rng.normal(y ? 1.0 : -1.0, 1.0);
    row[1] = rng.chance(0.1) ? kMissing : rng.normal(y ? 1.0 : -1.0, 1.0);
    row[2] = static_cast<double>(rng.below(5));
    train.add_row(row, y);
  }

  Pipeline pipeline = make_model_pipeline(ModelKind::kXgb);
  pipeline.fit(train);

  Dataset test(cols);
  for (std::size_t i = 0; i < 111; ++i) {
    row[0] = random_cell(rng);
    row[1] = random_cell(rng);
    row[2] = static_cast<double>(rng.below(8));  // includes unseen categories
    test.add_row(row, 0);
  }
  const std::vector<double> all = pipeline.score_all(test);
  const std::vector<int> predictions = pipeline.predict_all(test);
  ASSERT_EQ(all.size(), test.n_rows());
  for (std::size_t i = 0; i < test.n_rows(); ++i) {
    EXPECT_EQ(pipeline.score(test.row(i)), all[i]) << "row " << i;
    EXPECT_EQ(pipeline.predict(test.row(i)), predictions[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace scrubber::ml
