#include "ml/pipeline.hpp"

#include <gtest/gtest.h>

#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "ml/pca.hpp"
#include "ml/preprocess.hpp"
#include "ml/woe.hpp"
#include "util/rng.hpp"

namespace scrubber::ml {
namespace {

/// Mixed numeric/categorical dataset: categorical value predicts the label,
/// numeric column is noise; some numeric cells missing.
Dataset mixed_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data({{"num", ColumnKind::kNumeric}, {"cat", ColumnKind::kCategorical}});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    double num = rng.normal();
    if (rng.chance(0.1)) num = kMissing;
    // Categorical: classes draw from overlapping but biased value pools.
    const double cat =
        y ? static_cast<double>(rng.below(20))          // 0..19
          : static_cast<double>(10 + rng.below(20));    // 10..29
    const double row[2] = {num, cat};
    data.add_row(row, y);
  }
  return data;
}

TEST(Pipeline, FitWithoutClassifierThrows) {
  Pipeline p;
  p.add(std::make_unique<Imputer>());
  Dataset data = mixed_dataset(10, 1);
  EXPECT_THROW(p.fit(data), std::logic_error);
  EXPECT_EQ(p.describe(), "I->C(none)");
}

TEST(Pipeline, EndToEndLearnsFromCategorical) {
  Dataset train = mixed_dataset(2000, 2);
  Dataset test = mixed_dataset(500, 3);
  Pipeline p;
  p.add(std::make_unique<FeatureReducer>());
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.set_classifier(std::make_unique<GradientBoostedTrees>());
  p.fit(train);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.n_rows(); ++i)
    correct += static_cast<std::size_t>(p.predict(test.row(i)) == test.label(i));
  // Bayes-optimal here is 75% (half of each class in the overlap region).
  EXPECT_GT(static_cast<double>(correct) / test.n_rows(), 0.70);
}

TEST(Pipeline, TransformAppliesAllStages) {
  Dataset train = mixed_dataset(500, 4);
  Pipeline p;
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.set_classifier(std::make_unique<GradientBoostedTrees>());
  p.fit(train);
  const auto out = p.transform(std::vector<double>{kMissing, 5.0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -1.0);           // imputed
  EXPECT_NE(out[1], 5.0);                   // WoE-encoded
}

TEST(Pipeline, WidthChangingStage) {
  Dataset train = mixed_dataset(500, 5);
  Pipeline p;
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.add(std::make_unique<Pca>(1));
  p.set_classifier(std::make_unique<LinearSvm>());
  p.fit(train);
  EXPECT_EQ(p.transform(std::vector<double>{1.0, 2.0}).size(), 1u);
  const Dataset transformed = p.transform_dataset(train);
  EXPECT_EQ(transformed.n_cols(), 1u);
  EXPECT_EQ(transformed.n_rows(), train.n_rows());
}

TEST(Pipeline, TransformDatasetMatchesRowTransform) {
  Dataset train = mixed_dataset(300, 6);
  Pipeline p;
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.set_classifier(std::make_unique<LinearSvm>());
  p.fit(train);
  const Dataset transformed = p.transform_dataset(train);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto row = p.transform(train.row(i));
    for (std::size_t j = 0; j < row.size(); ++j)
      EXPECT_DOUBLE_EQ(row[j], transformed.at(i, j));
  }
}

TEST(Pipeline, FindStageByName) {
  Pipeline p;
  p.add(std::make_unique<Imputer>());
  p.add(std::make_unique<WoeEncoder>());
  EXPECT_NE(p.find_stage("WoE"), nullptr);
  EXPECT_NE(p.find_stage("I"), nullptr);
  EXPECT_EQ(p.find_stage("PCA"), nullptr);
  EXPECT_EQ(p.stage_count(), 2u);
}

TEST(Pipeline, SwapClassifierKeepsStages) {
  Dataset train = mixed_dataset(800, 7);
  Pipeline p;
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.set_classifier(std::make_unique<GradientBoostedTrees>());
  p.fit(train);

  // Train a second classifier on this pipeline's transformed output and
  // swap it in — the §6.4 "transfer the classifier, keep local WoE" move.
  auto foreign = std::make_unique<GradientBoostedTrees>();
  foreign->fit(p.transform_dataset(train));
  const double before = p.score(train.row(0));
  p.swap_classifier(std::move(foreign));
  const double after = p.score(train.row(0));
  EXPECT_TRUE(std::isfinite(before));
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_EQ(p.classifier().name(), "XGB");
}

TEST(Pipeline, CloneIsDeepAndIdentical) {
  Dataset train = mixed_dataset(400, 8);
  Pipeline p;
  p.add(std::make_unique<Imputer>(-1.0));
  p.add(std::make_unique<WoeEncoder>());
  p.set_classifier(std::make_unique<GradientBoostedTrees>());
  p.fit(train);
  const Pipeline copy = p.clone();
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(p.score(train.row(i)), copy.score(train.row(i)));
}

TEST(Pipeline, DescribeListsStages) {
  Pipeline p = make_model_pipeline(ModelKind::kNeuralNet);
  const std::string desc = p.describe();
  EXPECT_NE(desc.find("FR->"), std::string::npos);
  EXPECT_NE(desc.find("WoE->"), std::string::npos);
  EXPECT_NE(desc.find("PCA"), std::string::npos);
  EXPECT_NE(desc.find("C(NN)"), std::string::npos);
}

TEST(ModelPipelines, AllKindsConstructAndName) {
  for (const ModelKind kind : all_model_kinds()) {
    const Pipeline p = make_model_pipeline(kind);
    EXPECT_EQ(p.describe().find("C(none)"), std::string::npos)
        << model_kind_name(kind);
    if (kind != ModelKind::kDummy) {
      EXPECT_GE(p.stage_count(), 3u) << model_kind_name(kind);
    }
  }
  EXPECT_EQ(model_kind_name(ModelKind::kXgb), "XGB");
  EXPECT_EQ(model_kind_name(ModelKind::kNaiveBayesComplement), "NB-C");
}

TEST(ModelPipelines, Figure8StageOrders) {
  // XGB: FR->I->WoE; NN gets S, PCA, N on top.
  EXPECT_EQ(make_model_pipeline(ModelKind::kXgb).describe(), "FR->I->WoE->C(XGB)");
  EXPECT_EQ(make_model_pipeline(ModelKind::kNeuralNet).describe(),
            "FR->I->WoE->S->PCA->N->C(NN)");
  EXPECT_EQ(make_model_pipeline(ModelKind::kLinearSvm).describe(),
            "FR->I->WoE->S->N->C(LSVM)");
  EXPECT_EQ(make_model_pipeline(ModelKind::kDummy).describe(), "C(DUM)");
}

TEST(ModelPipelines, EveryKindFitsOnMixedData) {
  Dataset train = mixed_dataset(600, 9);
  for (const ModelKind kind : all_model_kinds()) {
    Pipeline p = make_model_pipeline(kind, 2);
    ASSERT_NO_THROW(p.fit(train)) << model_kind_name(kind);
    const double s = p.score(train.row(0));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

}  // namespace
}  // namespace scrubber::ml
