#include "ml/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace scrubber::ml {

void Dataset::add_row(std::span<const double> values, int label) {
  if (values.size() != n_cols())
    throw std::invalid_argument("row width does not match schema");
  data_.insert(data_.end(), values.begin(), values.end());
  labels_.push_back(label);
}

std::size_t Dataset::positive_count() const noexcept {
  std::size_t count = 0;
  for (const int y : labels_) count += static_cast<std::size_t>(y == 1);
  return count;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(columns_);
  out.data_.reserve(indices.size() * n_cols());
  out.labels_.reserve(indices.size());
  for (const std::size_t i : indices) {
    const auto r = row(i);
    out.data_.insert(out.data_.end(), r.begin(), r.end());
    out.labels_.push_back(labels_[i]);
  }
  return out;
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
Dataset::split_indices(double train_fraction, util::Rng& rng) const {
  std::vector<std::size_t> order(n_rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(n_rows()) * train_fraction);
  const auto cut_it = order.begin() + static_cast<std::ptrdiff_t>(cut);
  std::vector<std::size_t> train(order.begin(), cut_it);
  std::vector<std::size_t> test(cut_it, order.end());
  return {std::move(train), std::move(test)};
}

std::vector<std::vector<std::size_t>> Dataset::stratified_folds(
    std::size_t k, util::Rng& rng) const {
  if (k == 0) throw std::invalid_argument("k must be positive");
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < n_rows(); ++i) {
    (labels_[i] == 1 ? pos : neg).push_back(i);
  }
  rng.shuffle(pos);
  rng.shuffle(neg);
  std::vector<std::vector<std::size_t>> folds(k);
  for (std::size_t i = 0; i < pos.size(); ++i) folds[i % k].push_back(pos[i]);
  for (std::size_t i = 0; i < neg.size(); ++i) folds[i % k].push_back(neg[i]);
  return folds;
}

void Dataset::append(const Dataset& other) {
  if (other.columns_ != columns_)
    throw std::invalid_argument("cannot append dataset with different schema");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

std::span<const double> Dataset::raw_padded(
    std::size_t lane, std::vector<double>& storage) const {
  const std::size_t rows = n_rows();
  if (lane <= 1 || n_cols() == 0 || rows % lane == 0) {
    return {data_.data(), data_.size()};
  }
  const std::size_t padded = (rows + lane - 1) / lane * lane;
  storage.assign(padded * n_cols(), 0.0);
  std::copy(data_.begin(), data_.end(), storage.begin());
  return {storage.data(), storage.size()};
}

void Dataset::set_labels(std::vector<int> labels) {
  if (labels.size() != labels_.size())
    throw std::invalid_argument("label count mismatch");
  labels_ = std::move(labels);
}

}  // namespace scrubber::ml
