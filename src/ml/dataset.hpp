#pragma once
// Dense dataset container for the ML stack: a row-major matrix of doubles
// with named, typed columns (numeric vs. categorical) and binary labels.
//
// Categorical values (IPs, ports, member MACs) are stored as their exact
// integer value cast to double; the Weight-of-Evidence encoder replaces
// them with real-valued scores before classification. Missing values are
// quiet NaNs (replaced by the Imputer stage, mirroring Figure 8's "I").

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace scrubber::ml {

/// Missing-value sentinel used throughout the ML stack.
inline constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

/// True when a cell holds the missing sentinel.
[[nodiscard]] inline bool is_missing(double v) noexcept { return std::isnan(v); }

/// Column type: numeric columns feed models directly; categorical columns
/// must be encoded (WoE) first.
enum class ColumnKind : std::uint8_t { kNumeric, kCategorical };

/// Column metadata.
struct ColumnInfo {
  std::string name;
  ColumnKind kind = ColumnKind::kNumeric;

  friend bool operator==(const ColumnInfo&, const ColumnInfo&) = default;
};

/// A labeled dataset with a fixed column schema.
class Dataset {
 public:
  Dataset() = default;

  /// Constructs an empty dataset with the given schema.
  explicit Dataset(std::vector<ColumnInfo> columns) : columns_(std::move(columns)) {}

  [[nodiscard]] std::size_t n_rows() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t n_cols() const noexcept { return columns_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  [[nodiscard]] const std::vector<ColumnInfo>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const ColumnInfo& column(std::size_t j) const {
    return columns_.at(j);
  }

  /// Appends a row; `values.size()` must equal n_cols().
  void add_row(std::span<const double> values, int label);

  /// Pre-sizes storage for `rows` total rows (producers that know their
  /// row count up front avoid the geometric-growth copies of add_row).
  void reserve_rows(std::size_t rows) {
    data_.reserve(rows * n_cols());
    labels_.reserve(rows);
  }

  /// Read-only view of row i.
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * n_cols(), n_cols()};
  }

  /// Mutable view of row i (used by in-place transformers).
  [[nodiscard]] std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * n_cols(), n_cols()};
  }

  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    return data_[i * n_cols() + j];
  }
  double& at(std::size_t i, std::size_t j) noexcept {
    return data_[i * n_cols() + j];
  }

  [[nodiscard]] int label(std::size_t i) const noexcept { return labels_[i]; }
  [[nodiscard]] const std::vector<int>& labels() const noexcept { return labels_; }

  /// Count of rows labeled 1.
  [[nodiscard]] std::size_t positive_count() const noexcept;

  /// Copies the selected rows (in order) into a new dataset.
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

  /// Shuffled train/test split; returns {train_indices, test_indices} with
  /// `train_fraction` of rows in train. Deterministic for a given rng.
  [[nodiscard]] std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
  split_indices(double train_fraction, util::Rng& rng) const;

  /// Stratified k-fold indices: fold f contains every row whose shuffled
  /// within-class position is congruent to f (preserves class balance).
  [[nodiscard]] std::vector<std::vector<std::size_t>> stratified_folds(
      std::size_t k, util::Rng& rng) const;

  /// Concatenates another dataset with an identical schema.
  void append(const Dataset& other);

  /// Replaces all labels (same size required).
  void set_labels(std::vector<int> labels);

  /// Direct access to the underlying row-major buffer (for PCA/BLAS-ish code).
  [[nodiscard]] const std::vector<double>& raw() const noexcept { return data_; }

  /// Mutable view of the whole row-major cell buffer (column-strip
  /// transformers, e.g. WoeEncoder::encode_rows).
  [[nodiscard]] std::span<double> cells() noexcept {
    return {data_.data(), data_.size()};
  }

  /// Row-major cell view padded to a multiple of `lane` rows (zero-filled
  /// padding rows), so SIMD batch kernels can run full lane groups over
  /// the ragged tail. Returns raw() directly when no padding is needed;
  /// otherwise copies into `storage` and views that. The padding rows are
  /// read but never scored — out.size() still bounds the live rows.
  [[nodiscard]] std::span<const double> raw_padded(
      std::size_t lane, std::vector<double>& storage) const;

 private:
  std::vector<ColumnInfo> columns_;
  std::vector<double> data_;  // row-major, n_rows * n_cols
  std::vector<int> labels_;
};

}  // namespace scrubber::ml
