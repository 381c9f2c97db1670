#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace scrubber::util {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double variance(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double ss = 0.0;
  for (double v : values) {
    const double d = v - m;
    ss += d * d;
  }
  return ss / static_cast<double>(values.size() - 1);
}

double stddev(std::span<const double> values) noexcept {
  return std::sqrt(variance(values));
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double pearson(std::span<const double> x, std::span<const double> y) noexcept {
  if (x.size() != y.size() || x.empty()) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> average_ranks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Elements order[i..j] are tied; assign them the mean of ranks i+1..j+1.
    const double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

double spearman(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.empty()) return 0.0;
  const std::vector<double> rx = average_ranks(x);
  const std::vector<double> ry = average_ranks(y);
  return pearson(rx, ry);
}

std::vector<double> ecdf_points(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace scrubber::util
