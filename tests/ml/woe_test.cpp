#include "ml/woe.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace scrubber::ml {
namespace {

/// Dataset with one categorical column; value 100 appears only in class 1,
/// value 200 only in class 0, value 300 in both equally.
Dataset categorical_dataset() {
  Dataset data({{"cat", ColumnKind::kCategorical}});
  for (int i = 0; i < 10; ++i) {
    const double a[1] = {100.0};
    data.add_row(a, 1);
    const double b[1] = {200.0};
    data.add_row(b, 0);
    const double c[1] = {300.0};
    data.add_row(c, i % 2);
  }
  return data;
}

TEST(WoeColumn, MatchesClosedForm) {
  WoeColumn column;
  // 3 positives of value 7, 1 negative of value 7; totals 4 pos, 2 neg.
  column.observe(7, 1);
  column.observe(7, 1);
  column.observe(7, 1);
  column.observe(7, 0);
  column.observe(9, 1);
  column.observe(9, 0);
  column.finalize();
  // WoE(7) = ln( ((3+1)/(4+1)) / ((1+1)/(2+1)) ) with +1 smoothing.
  const double expected = std::log((4.0 / 5.0) / (2.0 / 3.0));
  EXPECT_NEAR(column.encode(7), expected, 1e-12);
}

TEST(WoeColumn, UnknownValueIsNeutral) {
  WoeColumn column;
  column.observe(1, 1);
  column.finalize();
  EXPECT_DOUBLE_EQ(column.encode(9999), 0.0);
}

TEST(WoeColumn, SignsReflectClassAffinity) {
  WoeColumn column;
  for (int i = 0; i < 50; ++i) {
    column.observe(100, 1);  // blackhole-only value
    column.observe(200, 0);  // benign-only value
  }
  column.finalize();
  EXPECT_GT(column.encode(100), 1.0);
  EXPECT_LT(column.encode(200), -1.0);
}

TEST(WoeColumn, BalancedValueNearZero) {
  WoeColumn column;
  for (int i = 0; i < 50; ++i) {
    column.observe(300, 1);
    column.observe(300, 0);
  }
  column.finalize();
  EXPECT_NEAR(column.encode(300), 0.0, 0.05);
}

TEST(WoeColumn, DivisionByZeroSmoothed) {
  WoeColumn column;
  column.observe(5, 1);  // value 5 never seen in class 0
  column.observe(6, 0);  // class 0 exists, but with a different value
  column.finalize();
  const double woe5 = column.encode(5);
  EXPECT_TRUE(std::isfinite(woe5));
  EXPECT_GT(woe5, 0.0);
  const double woe6 = column.encode(6);
  EXPECT_TRUE(std::isfinite(woe6));
  EXPECT_LT(woe6, 0.0);
}

TEST(WoeColumn, ValuesAboveThreshold) {
  WoeColumn column;
  for (int i = 0; i < 100; ++i) column.observe(1, 1);
  for (int i = 0; i < 100; ++i) column.observe(2, 0);
  column.finalize();
  const auto above = column.values_above(1.0);
  ASSERT_EQ(above.size(), 1u);
  EXPECT_EQ(above[0], 1);
}

TEST(WoeEncoder, EncodesOnlyCategoricalColumns) {
  Dataset data({{"num", ColumnKind::kNumeric}, {"cat", ColumnKind::kCategorical}});
  for (int i = 0; i < 20; ++i) {
    const double row[2] = {1.5, static_cast<double>(i % 2)};
    data.add_row(row, i % 2);
  }
  WoeEncoder encoder(0);
  encoder.fit(data);
  EXPECT_FALSE(encoder.encodes(0));
  EXPECT_TRUE(encoder.encodes(1));
  EXPECT_EQ(encoder.encoded_columns(), std::vector<std::size_t>{1});
  std::vector<double> row{1.5, 1.0};
  encoder.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 1.5);       // numeric untouched
  EXPECT_GT(row[1], 0.5);              // value 1 is pure class-1
  EXPECT_THROW((void)encoder.column(0), std::out_of_range);
}

TEST(WoeEncoder, MissingEncodesToNeutral) {
  Dataset data = categorical_dataset();
  WoeEncoder encoder(0);
  encoder.fit(data);
  std::vector<double> row{kMissing};
  encoder.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(WoeEncoder, ApplyIsDeterministic) {
  Dataset data = categorical_dataset();
  WoeEncoder encoder(0);
  encoder.fit(data);
  std::vector<double> a{100.0}, b{100.0};
  encoder.apply(a);
  encoder.apply(b);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

TEST(WoeEncoder, CrossFitEncodesTrainingRowsOutOfFold) {
  // A value that appears exactly once gets WoE 0 under cross-fitting
  // (the fold that encodes it never saw it), while in-sample fitting
  // would give it a nonzero score — the memorization this prevents.
  Dataset data({{"cat", ColumnKind::kCategorical}});
  for (int i = 0; i < 40; ++i) {
    const double row[1] = {static_cast<double>(1000 + i)};  // all unique
    data.add_row(row, i % 2);
  }
  WoeEncoder cross(5);
  const Dataset encoded = cross.fit_transform(data);
  for (std::size_t i = 0; i < encoded.n_rows(); ++i)
    EXPECT_DOUBLE_EQ(encoded.at(i, 0), 0.0);

  WoeEncoder in_sample(0);
  const Dataset leaky = in_sample.fit_transform(data);
  bool any_nonzero = false;
  for (std::size_t i = 0; i < leaky.n_rows(); ++i)
    any_nonzero |= (leaky.at(i, 0) != 0.0);
  EXPECT_TRUE(any_nonzero);
}

TEST(WoeEncoder, CrossFitKeepsFullTablesForInference) {
  Dataset data = categorical_dataset();
  WoeEncoder encoder(5);
  (void)encoder.fit_transform(data);
  // After fit_transform, apply() must use tables over ALL rows.
  std::vector<double> row{100.0};
  encoder.apply(row);
  EXPECT_GT(row[0], 1.0);
}

TEST(WoeEncoder, CrossFitSmallDataFallsBack) {
  Dataset data({{"cat", ColumnKind::kCategorical}});
  const double row[1] = {1.0};
  data.add_row(row, 1);
  data.add_row(row, 0);
  WoeEncoder encoder(5);
  EXPECT_NO_THROW((void)encoder.fit_transform(data));
}

TEST(WoeColumn, FromTablePreservesIterationOrder) {
  // FlatHash iterates in insertion order; from_table() re-adopts a table
  // as-is, so the (value, woe) sequence — and therefore every future
  // serialization — survives the round trip exactly.
  WoeColumn column;
  for (const std::int64_t value : {42, 7, 1000, -3, 0}) {
    column.observe(value, 1);
    column.observe(value, value % 2 == 0 ? 0 : 1);
  }
  column.finalize();

  const auto sequence = [](const WoeColumn& c) {
    std::vector<std::pair<std::int64_t, double>> out;
    c.table().for_each([&out](std::int64_t value, double woe) {
      out.emplace_back(value, woe);
    });
    return out;
  };
  const auto original = sequence(column);
  ASSERT_EQ(original.size(), 5u);
  EXPECT_EQ(original[0].first, 42);  // first-observation order
  EXPECT_EQ(original[4].first, 0);

  const WoeColumn restored = WoeColumn::from_table(column.table());
  EXPECT_EQ(sequence(restored), original);
}

TEST(WoeEncoder, EncodeRowsBitIdenticalToPerRowApply) {
  // encode_rows() is the column-strip batch form of apply(): same table
  // lookups, same missing -> 0.0 rule, cell-for-cell identical bits.
  Dataset data({{"cat_a", ColumnKind::kCategorical},
                {"num", ColumnKind::kNumeric},
                {"cat_b", ColumnKind::kCategorical}});
  for (int i = 0; i < 30; ++i) {
    const double row[3] = {static_cast<double>(i % 5), 1.5 * i,
                           static_cast<double>(100 + i % 7)};
    data.add_row(row, i % 2);
  }
  WoeEncoder encoder(0);
  encoder.fit(data);

  // Seen values, unseen values (-> 0.0), missing cells, and a numeric
  // column that must pass through untouched (including its NaNs).
  std::vector<double> cells{
      0.0,      1.5,      100.0,     //
      4.0,      kMissing, 106.0,     //
      999.0,    -2.25,    -50.0,     //
      kMissing, 0.0,      kMissing,  //
      2.0,      1e18,     103.0,     //
  };
  const std::size_t width = 3;
  const std::size_t n = cells.size() / width;

  std::vector<double> by_row = cells;
  for (std::size_t i = 0; i < n; ++i) {
    encoder.apply(std::span(by_row.data() + i * width, width));
  }
  std::vector<double> by_batch = cells;
  encoder.encode_rows(by_batch, width);
  ASSERT_EQ(by_row.size(), by_batch.size());
  EXPECT_EQ(std::memcmp(by_row.data(), by_batch.data(),
                        by_row.size() * sizeof(double)),
            0);

  // The Dataset-level batch override routes through the same pass.
  Dataset probe({{"cat_a", ColumnKind::kCategorical},
                 {"num", ColumnKind::kNumeric},
                 {"cat_b", ColumnKind::kCategorical}});
  for (std::size_t i = 0; i < n; ++i) {
    probe.add_row(std::span(cells.data() + i * width, width), 0);
  }
  const Dataset encoded = encoder.apply_to_dataset(probe);
  EXPECT_EQ(std::memcmp(encoded.raw().data(), by_row.data(),
                        by_row.size() * sizeof(double)),
            0);
}

TEST(WoeEncoder, RestoreRoundTrip) {
  Dataset data = categorical_dataset();
  WoeEncoder encoder(0);
  encoder.fit(data);
  const double woe_100 = encoder.column(0).encode(100);

  std::vector<std::optional<WoeColumn>> columns(1);
  columns[0] = WoeColumn::from_table(encoder.column(0).table());
  WoeEncoder restored;
  restored.restore(std::move(columns));
  EXPECT_DOUBLE_EQ(restored.column(0).encode(100), woe_100);
}

}  // namespace
}  // namespace scrubber::ml
