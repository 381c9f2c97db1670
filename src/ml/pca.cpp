#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace scrubber::ml {

std::vector<double> jacobi_eigen_symmetric(std::vector<double> a, std::size_t n,
                                           std::vector<double>& vectors,
                                           int max_sweeps) {
  if (a.size() != n * n) throw std::invalid_argument("matrix size mismatch");
  vectors.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vectors[i * n + i] = 1.0;

  auto at = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };
  auto vt = [&](std::size_t r, std::size_t c) -> double& {
    return vectors[r * n + c];
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += at(p, q) * at(p, q);
    if (off < 1e-22) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = at(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = at(p, p);
        const double aqq = at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Stable tangent of the rotation angle.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = at(k, p);
          const double akq = at(k, q);
          at(k, p) = c * akp - s * akq;
          at(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = at(p, k);
          const double aqk = at(q, k);
          at(p, k) = c * apk - s * aqk;
          at(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vt(k, p);
          const double vkq = vt(k, q);
          vt(k, p) = c * vkp - s * vkq;
          vt(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<double> eigenvalues(n);
  for (std::size_t i = 0; i < n; ++i) eigenvalues[i] = at(i, i);
  return eigenvalues;
}

void Pca::fit(const Dataset& data) {
  const std::size_t d = data.n_cols();
  const std::size_t rows = data.n_rows();
  input_width_ = d;
  mean_.assign(d, 0.0);
  eigenvalues_.clear();
  components_matrix_.clear();
  if (rows == 0 || d == 0) return;

  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = data.row(i);
    for (std::size_t j = 0; j < d; ++j) mean_[j] += is_missing(row[j]) ? 0.0 : row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(rows);

  // Covariance matrix (biased 1/n; scale does not affect directions).
  std::vector<double> cov(d * d, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = data.row(i);
    for (std::size_t p = 0; p < d; ++p) {
      const double vp = (is_missing(row[p]) ? 0.0 : row[p]) - mean_[p];
      for (std::size_t q = p; q < d; ++q) {
        const double vq = (is_missing(row[q]) ? 0.0 : row[q]) - mean_[q];
        cov[p * d + q] += vp * vq;
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(rows);
  for (std::size_t p = 0; p < d; ++p) {
    for (std::size_t q = p; q < d; ++q) {
      cov[p * d + q] *= inv_n;
      cov[q * d + p] = cov[p * d + q];
    }
  }

  std::vector<double> vectors;
  std::vector<double> values = jacobi_eigen_symmetric(std::move(cov), d, vectors);

  // Sort components by descending eigenvalue.
  std::vector<std::size_t> order(d);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return values[x] > values[y]; });

  const std::size_t keep = output_width(d);
  eigenvalues_.resize(d);
  for (std::size_t r = 0; r < d; ++r) eigenvalues_[r] = std::max(0.0, values[order[r]]);
  components_matrix_.assign(keep * d, 0.0);
  for (std::size_t r = 0; r < keep; ++r) {
    const std::size_t src = order[r];
    for (std::size_t j = 0; j < d; ++j)
      components_matrix_[r * d + j] = vectors[j * d + src];
  }
}

void Pca::apply(std::span<double> row) const {
  if (output_width(input_width_) != input_width_)
    throw std::logic_error("Pca::apply requires full-width projection; use transform");
  std::vector<double> out(input_width_);
  transform(row, out);
  std::copy(out.begin(), out.end(), row.begin());
}

void Pca::transform(std::span<const double> row, std::span<double> out) const {
  const std::size_t d = input_width_;
  const std::size_t keep = out.size();
  for (std::size_t r = 0; r < keep; ++r) {
    double dot = 0.0;
    for (std::size_t j = 0; j < d && j < row.size(); ++j) {
      const double centered = (is_missing(row[j]) ? 0.0 : row[j]) - mean_[j];
      dot += components_matrix_[r * d + j] * centered;
    }
    out[r] = dot;
  }
}

double Pca::explained_variance(std::size_t k) const noexcept {
  if (eigenvalues_.empty()) return 0.0;
  double total = 0.0;
  for (const double v : eigenvalues_) total += v;
  if (total <= 0.0) return 0.0;
  double top = 0.0;
  for (std::size_t i = 0; i < k && i < eigenvalues_.size(); ++i)
    top += eigenvalues_[i];
  return top / total;
}

}  // namespace scrubber::ml
