#include "ml/preprocess.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scrubber::ml {
namespace {

Dataset numeric_dataset(std::vector<std::vector<double>> rows) {
  std::vector<ColumnInfo> cols;
  for (std::size_t j = 0; j < rows.at(0).size(); ++j)
    cols.push_back({std::string("c").append(std::to_string(j)),
                    ColumnKind::kNumeric});
  Dataset data(std::move(cols));
  for (const auto& row : rows) data.add_row(row, 0);
  return data;
}

TEST(Imputer, ReplacesMissingWithFill) {
  const Imputer imputer(-1.0);
  std::vector<double> row{1.0, kMissing, 3.0};
  imputer.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], -1.0);
  EXPECT_DOUBLE_EQ(row[2], 3.0);
}

TEST(Imputer, CustomFillValue) {
  const Imputer imputer(0.0);
  std::vector<double> row{kMissing};
  imputer.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  Dataset data = numeric_dataset({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  Standardizer s;
  s.fit(data);
  Dataset transformed = s.apply_to_dataset(data);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < 3; ++i) mean += transformed.at(i, j);
    mean /= 3.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double d = transformed.at(i, j) - mean;
      var += d * d;
    }
    var /= 3.0;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(Standardizer, ConstantColumnSafe) {
  Dataset data = numeric_dataset({{5.0}, {5.0}, {5.0}});
  Standardizer s;
  s.fit(data);
  std::vector<double> row{5.0};
  s.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);  // no division by zero
}

TEST(Standardizer, SkipsMissing) {
  Dataset data = numeric_dataset({{1.0}, {kMissing}, {3.0}});
  Standardizer s;
  s.fit(data);
  EXPECT_DOUBLE_EQ(s.means()[0], 2.0);  // missing excluded from the mean
  std::vector<double> row{kMissing};
  s.apply(row);
  EXPECT_TRUE(is_missing(row[0]));  // missing passes through
}

TEST(MinMaxNormalizer, MapsToUnitInterval) {
  Dataset data = numeric_dataset({{2.0}, {4.0}, {6.0}});
  MinMaxNormalizer n;
  n.fit(data);
  std::vector<double> row{2.0};
  n.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
  row[0] = 6.0;
  n.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  row[0] = 4.0;
  n.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.5);
}

TEST(MinMaxNormalizer, OutOfRangeExtrapolates) {
  Dataset data = numeric_dataset({{0.0}, {10.0}});
  MinMaxNormalizer n;
  n.fit(data);
  std::vector<double> row{20.0};
  n.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 2.0);  // linear map, unclamped
}

TEST(MinMaxNormalizer, ConstantColumnSafe) {
  Dataset data = numeric_dataset({{7.0}, {7.0}});
  MinMaxNormalizer n;
  n.fit(data);
  std::vector<double> row{7.0};
  n.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(FeatureReducer, ZeroesConstantColumns) {
  Dataset data = numeric_dataset({{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}});
  FeatureReducer fr;
  fr.fit(data);
  ASSERT_EQ(fr.dropped().size(), 1u);
  EXPECT_EQ(fr.dropped()[0], 1u);
  std::vector<double> row{9.0, 9.0};
  fr.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 9.0);
  EXPECT_DOUBLE_EQ(row[1], 0.0);
}

TEST(FeatureReducer, AllMissingColumnIsConstant) {
  Dataset data = numeric_dataset({{1.0, kMissing}, {2.0, kMissing}});
  FeatureReducer fr;
  fr.fit(data);
  EXPECT_EQ(fr.dropped().size(), 1u);
}

TEST(FeatureReducer, MixedMissingNotConstant) {
  Dataset data = numeric_dataset({{1.0, kMissing}, {2.0, 3.0}, {2.0, 4.0}});
  FeatureReducer fr;
  fr.fit(data);
  EXPECT_TRUE(fr.dropped().empty());
}

TEST(Transformers, CloneIsIndependent) {
  Dataset data = numeric_dataset({{1.0}, {3.0}});
  Standardizer s;
  s.fit(data);
  auto copy = s.clone();
  std::vector<double> a{1.0}, b{1.0};
  s.apply(a);
  copy->apply(b);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_EQ(copy->name(), "S");
}

TEST(Transformers, DefaultFitTransformEqualsFitPlusApply) {
  Dataset data = numeric_dataset({{2.0}, {4.0}});
  MinMaxNormalizer a, b;
  const Dataset via_fit_transform = a.fit_transform(data);
  b.fit(data);
  const Dataset via_apply = b.apply_to_dataset(data);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_DOUBLE_EQ(via_fit_transform.at(i, 0), via_apply.at(i, 0));
}

}  // namespace
}  // namespace scrubber::ml
