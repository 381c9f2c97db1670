#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace scrubber::util {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, VarianceUnbiased) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, StddevIsSqrtVariance) {
  const std::vector<double> v{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(variance(v)));
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0 / 3.0), 2.0);
}

TEST(Stats, QuantileEmptyAndClamps) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  const std::vector<double> v{5.0};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 5.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonMismatchedSizes) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Stats, AverageRanksHandleTies) {
  const std::vector<double> v{10.0, 20.0, 20.0, 30.0};
  const auto ranks = average_ranks(v);
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Stats, SpearmanMonotonicIsOne) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{1.0, 8.0, 27.0, 64.0, 125.0};  // x^3, nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);  // pearson is below 1 for nonlinear
}

TEST(Stats, EcdfPointsSorted) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  const auto pts = ecdf_points(v);
  EXPECT_EQ(pts, (std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace scrubber::util
