#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ml/decision_tree.hpp"
#include "ml/dummy.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/neural_net.hpp"
#include "util/rng.hpp"

namespace scrubber::ml {
namespace {

Dataset gaussian_blobs(std::size_t n, double separation, std::uint64_t seed,
                       std::size_t extra_noise_cols = 0) {
  std::vector<ColumnInfo> cols{{"x0", ColumnKind::kNumeric},
                               {"x1", ColumnKind::kNumeric}};
  for (std::size_t j = 0; j < extra_noise_cols; ++j)
    cols.push_back({"noise" + std::to_string(j), ColumnKind::kNumeric});
  Dataset data(std::move(cols));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    std::vector<double> row;
    row.push_back(rng.normal(y ? separation : -separation, 1.0));
    row.push_back(rng.normal(y ? separation : -separation, 1.0));
    for (std::size_t j = 0; j < extra_noise_cols; ++j)
      row.push_back(rng.normal());
    data.add_row(row, y);
  }
  return data;
}

double holdout_accuracy(Classifier& model, const Dataset& train,
                        const Dataset& test) {
  model.fit(train);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.n_rows(); ++i)
    correct += static_cast<std::size_t>(model.predict(test.row(i)) == test.label(i));
  return static_cast<double>(correct) / static_cast<double>(test.n_rows());
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every real classifier must separate Gaussian blobs.
// ---------------------------------------------------------------------------

using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

struct ClassifierCase {
  std::string name;
  ClassifierFactory make;
  double min_accuracy;
};

class AllClassifiers : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(AllClassifiers, SeparatesGaussianBlobs) {
  const Dataset train = gaussian_blobs(1500, 2.0, 1);
  const Dataset test = gaussian_blobs(600, 2.0, 2);
  auto model = GetParam().make();
  EXPECT_GE(holdout_accuracy(*model, train, test), GetParam().min_accuracy)
      << model->name();
}

TEST_P(AllClassifiers, ScoresAreProbabilities) {
  const Dataset train = gaussian_blobs(400, 2.0, 3);
  auto model = GetParam().make();
  model->fit(train);
  for (std::size_t i = 0; i < 100; ++i) {
    const double s = model->score(train.row(i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_P(AllClassifiers, CloneBehavesIdentically) {
  const Dataset train = gaussian_blobs(300, 2.0, 4);
  auto model = GetParam().make();
  model->fit(train);
  auto copy = model->clone();
  // DummyClassifier is stochastic by design; skip its score comparison.
  if (model->name() == "DUM") return;
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(model->score(train.row(i)), copy->score(train.row(i)));
}

TEST_P(AllClassifiers, HandlesMissingValuesAtPredictTime) {
  const Dataset train = gaussian_blobs(300, 2.0, 5);
  auto model = GetParam().make();
  model->fit(train);
  const std::vector<double> row{kMissing, kMissing};
  const double s = model->score(row);
  EXPECT_TRUE(std::isfinite(s));
}

TEST_P(AllClassifiers, EmptyTrainingDataSafe) {
  Dataset empty({{"x0", ColumnKind::kNumeric}, {"x1", ColumnKind::kNumeric}});
  auto model = GetParam().make();
  EXPECT_NO_THROW(model->fit(empty));
  EXPECT_TRUE(std::isfinite(model->score(std::vector<double>{0.0, 0.0})));
}

INSTANTIATE_TEST_SUITE_P(
    Models, AllClassifiers,
    ::testing::Values(
        ClassifierCase{"XGB", [] { return std::make_unique<GradientBoostedTrees>(); }, 0.95},
        ClassifierCase{"DT", [] { return std::make_unique<DecisionTree>(); }, 0.93},
        ClassifierCase{"LSVM", [] { return std::make_unique<LinearSvm>(); }, 0.95},
        ClassifierCase{"NN", [] { return std::make_unique<NeuralNet>(); }, 0.95},
        ClassifierCase{"NB-G", [] { return std::make_unique<GaussianNaiveBayes>(); }, 0.95},
        ClassifierCase{"NB-B",
                       [] {
                         return std::make_unique<CountingNaiveBayes>(
                             CountNbKind::kBernoulli);
                       },
                       0.80}),
    [](const auto& param_info) {
      std::string name = param_info.param.name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Model-specific behavior.
// ---------------------------------------------------------------------------

TEST(DecisionTree, RespectsMaxDepth) {
  const Dataset train = gaussian_blobs(500, 1.0, 6);
  DecisionTreeParams params;
  params.max_depth = 3;
  DecisionTree tree(params);
  tree.fit(train);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, MinSamplesLeafLimitsGrowth) {
  const Dataset train = gaussian_blobs(500, 1.0, 6);
  DecisionTreeParams strict;
  strict.min_samples_leaf = 100;
  DecisionTree small(strict);
  small.fit(train);
  DecisionTree big;
  big.fit(train);
  EXPECT_LT(small.nodes().size(), big.nodes().size());
}

TEST(DecisionTree, CcpPruningShrinksTree) {
  const Dataset train = gaussian_blobs(500, 0.8, 7);
  DecisionTreeParams pruned_params;
  pruned_params.ccp_alpha = 0.01;
  DecisionTree pruned(pruned_params);
  pruned.fit(train);
  DecisionTree unpruned;
  unpruned.fit(train);
  EXPECT_LT(pruned.depth(), unpruned.depth());
}

TEST(DecisionTree, PureNodeIsLeaf) {
  Dataset data({{"x", ColumnKind::kNumeric}});
  for (int i = 0; i < 10; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add_row(row, 1);  // all positive
  }
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{5.0}), 1.0);
}

TEST(Gbt, GainImportanceIdentifiesSignalFeature) {
  // Feature 0/1 carry all signal; noise columns carry none.
  const Dataset train = gaussian_blobs(2000, 2.0, 8, 4);
  GradientBoostedTrees gbt;
  gbt.fit(train);
  const auto importance = gbt.gain_importance();
  ASSERT_GE(importance.size(), 1u);
  EXPECT_LT(importance[0].feature, 2u);  // a signal column ranks first
  double signal_gain = 0.0, noise_gain = 0.0;
  for (const auto& g : importance) {
    (g.feature < 2 ? signal_gain : noise_gain) += g.total_gain;
  }
  EXPECT_GT(signal_gain, noise_gain * 10.0);
}

TEST(Gbt, MoreRoundsImproveTrainFit) {
  const Dataset train = gaussian_blobs(800, 0.7, 9);
  GbtParams weak_params;
  weak_params.n_estimators = 1;
  weak_params.max_depth = 2;
  GradientBoostedTrees weak(weak_params);
  GbtParams strong_params;
  strong_params.n_estimators = 30;
  strong_params.max_depth = 6;
  GradientBoostedTrees strong(strong_params);
  const double weak_acc = holdout_accuracy(weak, train, train);
  const double strong_acc = holdout_accuracy(strong, train, train);
  EXPECT_GT(strong_acc, weak_acc);
}

TEST(Gbt, BaseMarginMatchesClassPrior) {
  Dataset data({{"x", ColumnKind::kNumeric}});
  util::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double row[1] = {rng.normal()};
    data.add_row(row, i < 250 ? 1 : 0);  // 25% positive, feature useless
  }
  GbtParams params;
  params.n_estimators = 0;  // prior only
  GradientBoostedTrees gbt(params);
  gbt.fit(data);
  const double expected = std::log(0.25 / 0.75);
  EXPECT_NEAR(gbt.base_margin(), expected, 1e-9);
  EXPECT_NEAR(gbt.score(std::vector<double>{0.0}), 0.25, 1e-9);
}

TEST(Gbt, RestoreReproducesScores) {
  const Dataset train = gaussian_blobs(500, 2.0, 11);
  GradientBoostedTrees gbt;
  gbt.fit(train);
  GradientBoostedTrees restored;
  std::vector<GradientBoostedTrees::Tree> trees = gbt.trees();
  restored.restore(std::move(trees), gbt.base_margin(), gbt.params(), {});
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(gbt.score(train.row(i)), restored.score(train.row(i)));
}

TEST(Gbt, DeepTreesDoNotCorruptMemory) {
  // Regression test: node references must survive tree-vector reallocation.
  const Dataset train = gaussian_blobs(3000, 0.5, 12, 8);
  GbtParams params;
  params.max_depth = 24;
  params.n_estimators = 10;
  GradientBoostedTrees gbt(params);
  EXPECT_NO_THROW(gbt.fit(train));
  for (const auto& tree : gbt.trees()) {
    for (const auto& node : tree) {
      if (!node.is_leaf()) {
        ASSERT_GE(node.left, 0);
        ASSERT_LT(static_cast<std::size_t>(node.left), tree.size());
        ASSERT_LT(static_cast<std::size_t>(node.right), tree.size());
      }
    }
  }
}

TEST(LinearSvm, LearnsLinearBoundaryWeights) {
  const Dataset train = gaussian_blobs(2000, 2.0, 13);
  LinearSvm svm;
  svm.fit(train);
  // Both features discriminate positively.
  EXPECT_GT(svm.weights()[0], 0.0);
  EXPECT_GT(svm.weights()[1], 0.0);
  EXPECT_GT(svm.margin(std::vector<double>{3.0, 3.0}), 0.0);
  EXPECT_LT(svm.margin(std::vector<double>{-3.0, -3.0}), 0.0);
}

TEST(LinearSvm, BalancedClassWeightHelpsMinority) {
  // 95:5 imbalance; balanced weighting should recover minority recall.
  Dataset train({{"x0", ColumnKind::kNumeric}, {"x1", ColumnKind::kNumeric}});
  util::Rng rng(14);
  for (int i = 0; i < 4000; ++i) {
    const int y = rng.chance(0.05) ? 1 : 0;
    const double row[2] = {rng.normal(y ? 1.5 : -1.5, 1.0),
                           rng.normal(y ? 1.5 : -1.5, 1.0)};
    train.add_row(row, y);
  }
  LinearSvmParams balanced_params;
  balanced_params.balanced_class_weight = true;
  balanced_params.c = 1.0;
  LinearSvm balanced(balanced_params);
  balanced.fit(train);
  LinearSvmParams plain_params;
  plain_params.c = 1.0;
  LinearSvm plain(plain_params);
  plain.fit(train);

  auto recall = [&](const LinearSvm& model) {
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < train.n_rows(); ++i)
      cm.add(train.label(i), model.predict(train.row(i)));
    return cm.tpr();
  };
  EXPECT_GE(recall(balanced), recall(plain));
}

TEST(LinearSvm, RestoreReproducesMargin) {
  const Dataset train = gaussian_blobs(500, 2.0, 15);
  LinearSvm svm;
  svm.fit(train);
  LinearSvm restored;
  restored.restore(svm.weights(), svm.bias());
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(svm.margin(train.row(i)), restored.margin(train.row(i)));
}

TEST(GaussianNb, VarianceSmoothingPreventsDegeneracy) {
  // A feature constant within one class must not produce infinities.
  Dataset data({{"x", ColumnKind::kNumeric}});
  util::Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    const double pos_row[1] = {5.0};  // zero variance in class 1
    data.add_row(pos_row, 1);
    const double neg_row[1] = {rng.normal()};
    data.add_row(neg_row, 0);
  }
  GaussianNaiveBayes nb(1e-9);
  nb.fit(data);
  EXPECT_TRUE(std::isfinite(nb.score(std::vector<double>{5.0})));
  EXPECT_GT(nb.score(std::vector<double>{5.0}), 0.5);
}

TEST(CountingNb, MultinomialUsesFrequencies) {
  // Class 1 rows are heavy in feature 0, class 0 rows in feature 1.
  Dataset data({{"a", ColumnKind::kNumeric}, {"b", ColumnKind::kNumeric}});
  for (int i = 0; i < 200; ++i) {
    const double pos_row[2] = {9.0, 1.0};
    data.add_row(pos_row, 1);
    const double neg_row[2] = {1.0, 9.0};
    data.add_row(neg_row, 0);
  }
  CountingNaiveBayes nb(CountNbKind::kMultinomial);
  nb.fit(data);
  EXPECT_GT(nb.score(std::vector<double>{8.0, 2.0}), 0.5);
  EXPECT_LT(nb.score(std::vector<double>{2.0, 8.0}), 0.5);
}

TEST(CountingNb, ComplementAgreesOnProportionData) {
  // Count-based NB needs classes that differ in feature *proportions*,
  // not just magnitude (multinomial likelihoods are scale-invariant).
  Dataset data({{"a", ColumnKind::kNumeric}, {"b", ColumnKind::kNumeric}});
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double pos_row[2] = {7.0 + rng.uniform(), 2.0 + rng.uniform()};
    data.add_row(pos_row, 1);
    const double neg_row[2] = {2.0 + rng.uniform(), 7.0 + rng.uniform()};
    data.add_row(neg_row, 0);
  }
  CountingNaiveBayes nb(CountNbKind::kComplement);
  const double acc = holdout_accuracy(nb, data, data);
  EXPECT_GT(acc, 0.95);
}

TEST(CountingNb, BernoulliBinarizes) {
  Dataset data({{"a", ColumnKind::kNumeric}});
  for (int i = 0; i < 100; ++i) {
    const double pos_row[1] = {0.7};
    data.add_row(pos_row, 1);
    const double neg_row[1] = {0.0};
    data.add_row(neg_row, 0);
  }
  CountingNaiveBayes nb(CountNbKind::kBernoulli);
  nb.fit(data);
  // Any positive magnitude binarizes to 1.
  EXPECT_GT(nb.score(std::vector<double>{123.0}), 0.5);
  EXPECT_LT(nb.score(std::vector<double>{0.0}), 0.5);
}

TEST(NeuralNet, DropoutStillLearns) {
  const Dataset train = gaussian_blobs(1500, 2.0, 18);
  NeuralNetParams params;
  params.dropout = 0.3;
  NeuralNet nn(params);
  EXPECT_GE(holdout_accuracy(nn, train, train), 0.93);
}

TEST(Dummy, IsACoinToss) {
  DummyClassifier dummy(1);
  Dataset empty({{"x", ColumnKind::kNumeric}});
  dummy.fit(empty);
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    ones += dummy.predict(std::vector<double>{0.0});
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.03);
}

}  // namespace
}  // namespace scrubber::ml
