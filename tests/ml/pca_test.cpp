#include "ml/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace scrubber::ml {
namespace {

Dataset numeric_dataset(std::size_t cols) {
  std::vector<ColumnInfo> infos;
  for (std::size_t j = 0; j < cols; ++j)
    infos.push_back({std::string("c").append(std::to_string(j)),
                     ColumnKind::kNumeric});
  return Dataset(std::move(infos));
}

TEST(Jacobi, DiagonalMatrix) {
  std::vector<double> m{3.0, 0.0, 0.0, 1.0};
  std::vector<double> vectors;
  const auto values = jacobi_eigen_symmetric(m, 2, vectors);
  ASSERT_EQ(values.size(), 2u);
  const double hi = std::max(values[0], values[1]);
  const double lo = std::min(values[0], values[1]);
  EXPECT_NEAR(hi, 3.0, 1e-10);
  EXPECT_NEAR(lo, 1.0, 1e-10);
}

TEST(Jacobi, KnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  std::vector<double> m{2.0, 1.0, 1.0, 2.0};
  std::vector<double> vectors;
  const auto values = jacobi_eigen_symmetric(m, 2, vectors);
  const double hi = std::max(values[0], values[1]);
  const double lo = std::min(values[0], values[1]);
  EXPECT_NEAR(hi, 3.0, 1e-10);
  EXPECT_NEAR(lo, 1.0, 1e-10);
}

TEST(Jacobi, EigenvectorsOrthonormal) {
  util::Rng rng(3);
  const std::size_t n = 8;
  // Random symmetric matrix.
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  }
  std::vector<double> vectors;
  (void)jacobi_eigen_symmetric(m, n, vectors);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        dot += vectors[k * n + a] * vectors[k * n + b];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(Jacobi, SizeMismatchThrows) {
  std::vector<double> m(3, 0.0);
  std::vector<double> vectors;
  EXPECT_THROW(jacobi_eigen_symmetric(m, 2, vectors), std::invalid_argument);
}

TEST(Pca, RecoversDominantDirection) {
  // Data lies along (1,1)/sqrt(2) with small orthogonal noise.
  util::Rng rng(5);
  Dataset data = numeric_dataset(2);
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.normal(0.0, 5.0);
    const double noise = rng.normal(0.0, 0.1);
    const double row[2] = {t + noise, t - noise};
    data.add_row(row, 0);
  }
  Pca pca(1);
  pca.fit(data);
  // First component explains nearly all variance.
  EXPECT_GT(pca.explained_variance(1), 0.99);
  // Differences cancel the (empirical) mean centering: moving by (1,1)
  // shifts the projection by sqrt(2); moving by (1,-1) barely moves it.
  std::vector<double> origin(1), along(1), across(1);
  pca.transform(std::vector<double>{0.0, 0.0}, origin);
  pca.transform(std::vector<double>{1.0, 1.0}, along);
  pca.transform(std::vector<double>{1.0, -1.0}, across);
  EXPECT_NEAR(std::abs(along[0] - origin[0]), std::sqrt(2.0), 0.01);
  EXPECT_NEAR(std::abs(across[0] - origin[0]), 0.0, 0.05);
}

TEST(Pca, ExplainedVarianceCurveMonotone) {
  util::Rng rng(7);
  Dataset data = numeric_dataset(6);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(6);
    for (auto& v : row) v = rng.normal();
    row[3] = row[0] * 2.0;  // induce correlation
    data.add_row(row, 0);
  }
  Pca pca(0);
  pca.fit(data);
  const auto curve = pca.explained_variance_curve();
  ASSERT_EQ(curve.size(), 6u);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i], curve[i - 1] - 1e-12);
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);
}

TEST(Pca, OutputWidthClamps) {
  Pca pca(10);
  EXPECT_EQ(pca.output_width(4), 4u);
  EXPECT_EQ(pca.output_width(20), 10u);
  Pca full(0);
  EXPECT_EQ(full.output_width(7), 7u);
}

TEST(Pca, CenteringRemovesMean) {
  Dataset data = numeric_dataset(2);
  for (int i = 0; i < 100; ++i) {
    const double row[2] = {100.0 + (i % 2), 200.0 - (i % 2)};
    data.add_row(row, 0);
  }
  Pca pca(2);
  pca.fit(data);
  // Transforming the mean row gives the origin.
  std::vector<double> out(2);
  pca.transform(std::vector<double>{100.5, 199.5}, out);
  EXPECT_NEAR(out[0], 0.0, 1e-9);
  EXPECT_NEAR(out[1], 0.0, 1e-9);
}

TEST(Pca, EmptyDatasetSafe) {
  Dataset data = numeric_dataset(3);
  Pca pca(2);
  EXPECT_NO_THROW(pca.fit(data));
  EXPECT_DOUBLE_EQ(pca.explained_variance(1), 0.0);
}

TEST(Pca, EigenvaluesSortedDescending) {
  util::Rng rng(11);
  Dataset data = numeric_dataset(5);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(5);
    for (std::size_t j = 0; j < 5; ++j)
      row[j] = rng.normal(0.0, static_cast<double>(j + 1));
    data.add_row(row, 0);
  }
  Pca pca(0);
  pca.fit(data);
  const auto& ev = pca.eigenvalues();
  for (std::size_t i = 1; i < ev.size(); ++i) EXPECT_GE(ev[i - 1], ev[i]);
  // Largest eigenvalue should be ~variance of the widest column (25).
  EXPECT_NEAR(ev[0], 25.0, 4.0);
}

}  // namespace
}  // namespace scrubber::ml
