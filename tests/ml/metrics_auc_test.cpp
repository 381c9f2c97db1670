#include <gtest/gtest.h>

#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace scrubber::ml {
namespace {

TEST(RocAuc, PerfectSeparation) {
  const std::vector<int> truth{0, 0, 1, 1};
  const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(roc_auc(truth, scores), 1.0);
}

TEST(RocAuc, PerfectlyWrong) {
  const std::vector<int> truth{1, 1, 0, 0};
  const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(roc_auc(truth, scores), 0.0);
}

TEST(RocAuc, RandomScoresNearHalf) {
  util::Rng rng(1);
  std::vector<int> truth;
  std::vector<double> scores;
  for (int i = 0; i < 50000; ++i) {
    truth.push_back(rng.chance(0.3) ? 1 : 0);
    scores.push_back(rng.uniform());
  }
  EXPECT_NEAR(roc_auc(truth, scores), 0.5, 0.01);
}

TEST(RocAuc, TiesHandledAsHalf) {
  // All scores equal: AUC must be exactly 0.5 (tie-corrected ranks).
  const std::vector<int> truth{0, 1, 0, 1};
  const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(roc_auc(truth, scores), 0.5);
}

TEST(RocAuc, KnownSmallCase) {
  // positives: 0.8, 0.4; negatives: 0.6, 0.2.
  // Pairs: (0.8>0.6), (0.8>0.2), (0.4<0.6), (0.4>0.2) -> 3/4.
  const std::vector<int> truth{1, 1, 0, 0};
  const std::vector<double> scores{0.8, 0.4, 0.6, 0.2};
  EXPECT_DOUBLE_EQ(roc_auc(truth, scores), 0.75);
}

TEST(RocAuc, DegenerateClassesGiveHalf) {
  EXPECT_DOUBLE_EQ(roc_auc(std::vector<int>{1, 1}, std::vector<double>{0.1, 0.9}),
                   0.5);
  EXPECT_DOUBLE_EQ(roc_auc(std::vector<int>{0, 0}, std::vector<double>{0.1, 0.9}),
                   0.5);
}

TEST(RocAuc, SizeMismatchThrows) {
  EXPECT_THROW((void)roc_auc(std::vector<int>{1}, std::vector<double>{0.5, 0.6}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scrubber::ml
