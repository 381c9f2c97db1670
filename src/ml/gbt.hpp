#pragma once
// Gradient-boosted decision trees with second-order (Newton) boosting and
// histogram-based split finding — an XGBoost-style learner [Chen & Guestrin
// 2016], the model the paper recommends for deployment (Table 3).
//
// Training bins every feature into quantile buckets once, then grows each
// tree depth-wise, accumulating (gradient, hessian) histograms per node and
// scanning bins for the split maximizing the regularized gain
//   0.5 * ( GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ) - gamma.
// Per-feature total/average gain is recorded for the Figure 10 feature-
// importance analysis.

#include <cstdint>
#include <limits>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/compiled_tree.hpp"

namespace scrubber::ml {

/// Hyperparameters of the XGB model (grid of Table 4). The paper selected
/// max_depth 24 on ~250k-record folds; at this repo's scaled-down dataset
/// sizes a depth-8 default generalizes better and is what the benches use.
struct GbtParams {
  std::size_t n_estimators = 24;   ///< number of boosting rounds
  std::size_t max_depth = 8;       ///< maximum tree depth
  double learning_rate = 0.3;     ///< shrinkage per round (eta)
  double reg_lambda = 1.0;        ///< L2 regularization on leaf weights
  double gamma = 0.0;             ///< minimum gain to make a split
  double min_child_weight = 1.0;  ///< minimum hessian sum per child
  std::size_t max_bins = 128;     ///< histogram bins per feature
  /// Reserve a dedicated histogram bin for missing (NaN) cells instead of
  /// folding them into the -1.0 value bin (the historical behavior, which
  /// collides with a legitimate -1.0 feature value). Off by default: the
  /// legacy mapping keeps trained models byte-identical to the historical
  /// builder.
  bool missing_reserved_bin = false;

  /// The value a missing or out-of-range feature reads as during scoring.
  /// Legacy models use -1.0; reserved-bin models use -inf, which routes
  /// missing below the kReservedMissingEdge split threshold — consistent
  /// with the training-side reserved bin 0 (ml/binned.hpp).
  [[nodiscard]] double missing_surrogate() const noexcept {
    return missing_reserved_bin ? -std::numeric_limits<double>::infinity()
                                : -1.0;
  }
};

/// Per-feature importance aggregated over all splits.
struct FeatureGain {
  std::size_t feature = 0;
  double total_gain = 0.0;
  std::size_t split_count = 0;

  [[nodiscard]] double average_gain() const noexcept {
    return split_count == 0 ? 0.0
                            : total_gain / static_cast<double>(split_count);
  }
};

/// Gradient-boosted trees binary classifier with logistic loss.
class GradientBoostedTrees final : public Classifier {
 public:
  explicit GradientBoostedTrees(GbtParams params = {}) noexcept
      : params_(params) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double score(std::span<const double> row) const override;
  /// Batch scoring through the compiled (flattened) forest; bit-identical
  /// to per-row score().
  void score_batch(const Dataset& data, std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "XGB"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<GradientBoostedTrees>(*this);
  }

  /// Raw additive margin before the sigmoid.
  [[nodiscard]] double margin(std::span<const double> row) const;

  /// Feature importances sorted by descending average gain (Figure 10).
  [[nodiscard]] std::vector<FeatureGain> gain_importance() const;

  [[nodiscard]] const GbtParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }

  /// Serializable tree node (exposed for model_io).
  struct Node {
    std::int32_t left = -1;   ///< child for value <= threshold; -1 = leaf
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;       ///< leaf weight (already shrunk)

    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };
  using Tree = std::vector<Node>;

  [[nodiscard]] const std::vector<Tree>& trees() const noexcept { return trees_; }
  [[nodiscard]] double base_margin() const noexcept { return base_margin_; }

  /// Restores a trained model from serialized state (model_io).
  void restore(std::vector<Tree> trees, double base_margin, GbtParams params,
               std::vector<FeatureGain> importance);

 private:
  GbtParams params_;
  std::vector<Tree> trees_;
  double base_margin_ = 0.0;
  std::vector<FeatureGain> importance_;
  CompiledForest compiled_;
};

}  // namespace scrubber::ml
