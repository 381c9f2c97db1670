#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scrubber::ml {
namespace {

Dataset two_column_dataset(std::size_t rows) {
  Dataset data({{"x", ColumnKind::kNumeric}, {"c", ColumnKind::kCategorical}});
  for (std::size_t i = 0; i < rows; ++i) {
    const double row[2] = {static_cast<double>(i), static_cast<double>(i % 3)};
    data.add_row(row, static_cast<int>(i % 2));
  }
  return data;
}

TEST(Dataset, AddRowAndAccess) {
  Dataset data = two_column_dataset(5);
  EXPECT_EQ(data.n_rows(), 5u);
  EXPECT_EQ(data.n_cols(), 2u);
  EXPECT_DOUBLE_EQ(data.at(3, 0), 3.0);
  EXPECT_DOUBLE_EQ(data.row(4)[1], 1.0);
  EXPECT_EQ(data.label(1), 1);
}

TEST(Dataset, AddRowWrongWidthThrows) {
  Dataset data = two_column_dataset(1);
  const double bad[3] = {1.0, 2.0, 3.0};
  EXPECT_THROW(data.add_row(bad, 0), std::invalid_argument);
}

TEST(Dataset, PositiveCount) {
  const Dataset data = two_column_dataset(10);
  EXPECT_EQ(data.positive_count(), 5u);
}

TEST(Dataset, MissingSentinel) {
  EXPECT_TRUE(is_missing(kMissing));
  EXPECT_FALSE(is_missing(0.0));
  EXPECT_FALSE(is_missing(-1.0));
}

TEST(Dataset, SubsetPreservesOrderAndLabels) {
  const Dataset data = two_column_dataset(10);
  const std::vector<std::size_t> idx{7, 2, 9};
  const Dataset sub = data.subset(idx);
  EXPECT_EQ(sub.n_rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 2.0);
  EXPECT_EQ(sub.label(2), 1);
}

TEST(Dataset, SplitIndicesPartition) {
  const Dataset data = two_column_dataset(99);
  util::Rng rng(1);
  const auto [train, test] = data.split_indices(2.0 / 3.0, rng);
  EXPECT_EQ(train.size(), 66u);
  EXPECT_EQ(test.size(), 33u);
  std::vector<bool> seen(99, false);
  for (const auto i : train) seen[i] = true;
  for (const auto i : test) {
    EXPECT_FALSE(seen[i]);  // disjoint
    seen[i] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);  // exhaustive
}

TEST(Dataset, StratifiedFoldsBalanceClasses) {
  Dataset data({{"x", ColumnKind::kNumeric}});
  // 30 positives, 90 negatives.
  for (int i = 0; i < 120; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add_row(row, i < 30 ? 1 : 0);
  }
  util::Rng rng(2);
  const auto folds = data.stratified_folds(3, rng);
  ASSERT_EQ(folds.size(), 3u);
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.size(), 40u);
    std::size_t pos = 0;
    for (const auto i : fold) pos += static_cast<std::size_t>(data.label(i) == 1);
    EXPECT_EQ(pos, 10u);  // exact class balance per fold
  }
}

TEST(Dataset, StratifiedFoldsZeroThrows) {
  const Dataset data = two_column_dataset(4);
  util::Rng rng(2);
  EXPECT_THROW(data.stratified_folds(0, rng), std::invalid_argument);
}

TEST(Dataset, AppendRequiresSameSchema) {
  Dataset a = two_column_dataset(3);
  const Dataset b = two_column_dataset(2);
  a.append(b);
  EXPECT_EQ(a.n_rows(), 5u);
  Dataset different(std::vector<ColumnInfo>{{"z", ColumnKind::kNumeric}});
  EXPECT_THROW(a.append(different), std::invalid_argument);
}

TEST(Dataset, SetLabels) {
  Dataset data = two_column_dataset(3);
  data.set_labels({1, 1, 1});
  EXPECT_EQ(data.positive_count(), 3u);
  EXPECT_THROW(data.set_labels({1}), std::invalid_argument);
}

TEST(Dataset, MutableRowWrites) {
  Dataset data = two_column_dataset(2);
  data.row(0)[0] = 42.0;
  EXPECT_DOUBLE_EQ(data.at(0, 0), 42.0);
}

}  // namespace
}  // namespace scrubber::ml
