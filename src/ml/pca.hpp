#pragma once
// Principal component analysis via cyclic Jacobi eigendecomposition of the
// feature covariance matrix. Used (i) as the dimensionality reduction stage
// of the neural-network pipeline (Figure 8) and (ii) for the explained-
// variance analysis of Appendix B / Figure 16b.
//
// The aggregated feature space is ~150 columns, so an O(d^3) dense
// eigensolver is entirely adequate.

#include <vector>

#include "ml/classifier.hpp"

namespace scrubber::ml {

/// PCA transformer projecting rows onto the top-k principal components.
class Pca final : public Transformer {
 public:
  /// `components` = number of output dimensions (0 = keep all).
  explicit Pca(std::size_t components = 0) noexcept : components_(components) {}

  void fit(const Dataset& data) override;

  /// In-place apply is only valid when output width equals input width;
  /// prefer transform() in pipelines.
  void apply(std::span<double> row) const override;

  void transform(std::span<const double> row, std::span<double> out) const override;

  [[nodiscard]] std::size_t output_width(std::size_t input_width) const override {
    return components_ == 0 ? input_width : std::min(components_, input_width);
  }

  [[nodiscard]] std::string name() const override { return "PCA"; }
  [[nodiscard]] std::unique_ptr<Transformer> clone() const override {
    return std::make_unique<Pca>(*this);
  }

  /// Eigenvalues (descending) of the covariance matrix, i.e. component
  /// variances over the training data.
  [[nodiscard]] const std::vector<double>& eigenvalues() const noexcept {
    return eigenvalues_;
  }

  /// Fraction of total variance explained by the first k components.
  [[nodiscard]] double explained_variance(std::size_t k) const noexcept;

  [[nodiscard]] std::size_t components() const noexcept { return components_; }
  [[nodiscard]] std::size_t input_width() const noexcept { return input_width_; }
  [[nodiscard]] const std::vector<double>& means() const noexcept { return mean_; }
  [[nodiscard]] const std::vector<double>& components_matrix() const noexcept {
    return components_matrix_;
  }

  /// Rebuilds a fitted PCA (model_io).
  void restore(std::size_t components, std::size_t input_width,
               std::vector<double> means, std::vector<double> eigenvalues,
               std::vector<double> matrix) {
    components_ = components;
    input_width_ = input_width;
    mean_ = std::move(means);
    eigenvalues_ = std::move(eigenvalues);
    components_matrix_ = std::move(matrix);
  }

 private:
  std::size_t components_;
  std::size_t input_width_ = 0;
  std::vector<double> mean_;
  std::vector<double> eigenvalues_;        // descending
  std::vector<double> components_matrix_;  // row r = r-th principal axis
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix (row-major, n*n).
/// Returns eigenvalues (unsorted) and fills `vectors` with eigenvectors as
/// columns. Exposed for testing and reuse.
std::vector<double> jacobi_eigen_symmetric(std::vector<double> matrix,
                                           std::size_t n,
                                           std::vector<double>& vectors,
                                           int max_sweeps = 64);

}  // namespace scrubber::ml
