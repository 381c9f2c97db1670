#pragma once
// CART binary decision tree with Gini impurity, exact split search, and
// minimal cost-complexity (ccp_alpha) pruning — the DT model of Table 3,
// with the hyperparameters of Table 4 (Appendix C).

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/compiled_tree.hpp"

namespace scrubber::ml {

/// Hyperparameters mirroring scikit-learn's DecisionTreeClassifier subset
/// searched in Table 4.
struct DecisionTreeParams {
  std::size_t max_depth = 0;            ///< 0 = unlimited
  std::size_t min_samples_split = 2;    ///< minimum node size to consider a split
  std::size_t min_samples_leaf = 1;     ///< minimum samples in each child
  double min_impurity_decrease = 0.0;   ///< minimum weighted impurity decrease
  double ccp_alpha = 0.0;               ///< cost-complexity pruning strength
};

/// CART decision tree classifier.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {}) noexcept
      : params_(params) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double score(std::span<const double> row) const override;
  /// Batch scoring through the compiled (flattened) tree; bit-identical
  /// to per-row score().
  void score_batch(const Dataset& data, std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "DT"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<DecisionTree>(*this);
  }

  /// Maximum depth reached by any leaf.
  [[nodiscard]] std::size_t depth() const noexcept;

  [[nodiscard]] const DecisionTreeParams& params() const noexcept { return params_; }

  /// Serializable node (exposed for model_io).
  struct Node {
    // Internal node: feature/threshold and child indices; leaf: value only.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;       ///< positive-class fraction at this node
    std::size_t samples = 0;  ///< training samples reaching the node
    double impurity = 0.0;    ///< Gini impurity at the node

    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Rebuilds a trained tree (model_io).
  void restore(std::vector<Node> nodes) {
    nodes_ = std::move(nodes);
    compiled_ = CompiledTree::compile(nodes_);
  }

 private:
  friend class TreeBuilder;

  void prune_ccp();

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
  CompiledTree compiled_;
};

}  // namespace scrubber::ml
