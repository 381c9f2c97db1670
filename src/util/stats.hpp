#pragma once
// Descriptive statistics used throughout dataset validation and evaluation:
// moments, quantiles, correlation coefficients (Pearson/Spearman), and a
// small online accumulator. These back the reproduction of Figures 3, 4,
// and 16 of the paper.

#include <cstddef>
#include <span>
#include <vector>

namespace scrubber::util {

/// Arithmetic mean; returns 0 for empty input.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Unbiased sample variance (n-1 denominator); 0 when fewer than 2 values.
[[nodiscard]] double variance(std::span<const double> values) noexcept;

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> values) noexcept;

/// q-th quantile (q in [0,1]) with linear interpolation; input need not be
/// sorted (a sorted copy is made). Returns 0 for empty input.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Convenience median.
[[nodiscard]] double median(std::span<const double> values);

/// Pearson product-moment correlation of two equally sized series.
/// Returns 0 when either series is constant or inputs are empty/mismatched.
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y) noexcept;

/// Spearman rank correlation (Pearson over average ranks, handling ties).
[[nodiscard]] double spearman(std::span<const double> x,
                              std::span<const double> y);

/// Average ranks of a series (1-based, ties share the mean rank).
[[nodiscard]] std::vector<double> average_ranks(std::span<const double> values);

/// Empirical CDF evaluation points: returns sorted copy of the input; the
/// CDF value of element i is (i + 1) / n.
[[nodiscard]] std::vector<double> ecdf_points(std::span<const double> values);

}  // namespace scrubber::util
