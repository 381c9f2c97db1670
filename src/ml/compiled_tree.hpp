#pragma once
// Compiled (flattened) form of the tree models for batch inference.
//
// Training-side trees (DecisionTree::Node, GradientBoostedTrees::Node)
// carry bookkeeping (sample counts, impurity) and live wherever the
// builder left them, including nodes orphaned by ccp pruning. Compilation
// re-lays the reachable nodes out breadth-first in one contiguous array —
// a level's nodes are adjacent, children sit left-to-right after their
// parents — so batch traversal walks a dense, prefetch-friendly table
// instead of chasing scattered indices.
//
// Alongside the array-of-structs node table, compilation also builds an
// SoA "lane table" (detail::LaneTable): separate contiguous arrays for
// thresholds, feature indices, child links and leaf payloads, with leaves
// rewritten to self-loops so every root-to-leaf path reads as exactly
// `depth` steps. That is the layout the AVX2 kernels in
// compiled_tree_avx2.cpp descend in masked lockstep, 4 rows per vector
// (DESIGN.md §13). Dispatch is per batch via util::simd_level(); the
// scalar lockstep path below is kept verbatim as the bit-identity oracle.
//
// Semantics contract (tests/ml/compiled_tree_test.cpp,
// tests/ml/simd_inference_test.cpp): predict() and predict_batch() are
// BIT-IDENTICAL to the training-side scalar score() for every input —
// whichever kernel runs — including NaN (missing) cells, feature indices
// beyond the row width, and values exactly on a threshold. The traversal
// rule is copied verbatim: a missing or out-of-range feature reads as a
// per-model surrogate value (-1.0 historically; -inf for GBT models
// trained with the reserved missing bin, GbtParams::missing_surrogate),
// and `v <= threshold` goes left.

#include <cstdint>
#include <span>
#include <vector>

namespace scrubber::ml {

/// One node of a compiled tree. 32 bytes, hot fields first.
struct CompiledNode {
  double threshold = 0.0;   ///< split point (internal nodes)
  double value = 0.0;       ///< leaf payload (DT: probability, GBT: weight)
  std::int32_t left = -1;   ///< child for v <= threshold; -1 = leaf
  std::int32_t right = -1;  ///< child for v > threshold
  std::uint32_t feature = 0;

  [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
};

/// Rows per SIMD lane group (one __m256d of feature values). Callers that
/// assemble batches padded to a multiple of this row count (zero-filled
/// padding rows, Dataset::raw_padded) let the vector kernel cover the
/// ragged tail too; unpadded batches fall back to the scalar oracle for
/// the last `n % kSimdLaneRows` rows — identical bits either way.
inline constexpr std::size_t kSimdLaneRows = 4;

namespace detail {

/// Appends the BFS re-layout of `nodes` (rooted at index 0) to `out`,
/// dropping unreachable nodes. Child links are absolute indices into
/// `out`, so concatenated trees traverse without per-tree bases.
template <typename Node>
void flatten_bfs(const std::vector<Node>& nodes,
                 std::vector<CompiledNode>& out) {
  if (nodes.empty()) return;
  const std::size_t base = out.size();
  std::vector<std::size_t> order{0};  // BFS order of original indices
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Node& src = nodes[order[head]];
    CompiledNode node;
    node.threshold = src.threshold;
    node.value = src.value;
    node.feature = src.feature;
    if (src.left >= 0) {
      node.left = static_cast<std::int32_t>(base + order.size());
      order.push_back(static_cast<std::size_t>(src.left));
      node.right = static_cast<std::int32_t>(base + order.size());
      order.push_back(static_cast<std::size_t>(src.right));
    }
    out.push_back(node);
  }
}

/// SoA mirror of the BFS node table, laid out for masked lockstep descent
/// (DESIGN.md §13). Entry i describes the same node as the AoS table's
/// index i, so cursors gather by absolute node index:
///
///   * internal nodes copy {threshold, feature, left, right} verbatim
///     (feature bit-cast to int32 — the kernel compares it unsigned,
///     matching the scalar `feature < width` rule);
///   * leaves become self-loops (left = right = own index), the virtual
///     form of padding every level: stepping a leaf lane is a no-op, so
///     all lanes can descend exactly `depth[tree]` times with no active
///     mask and land on the same leaf the scalar walk reaches.
struct LaneTable {
  std::vector<double> threshold;
  std::vector<double> value;
  std::vector<std::int32_t> feature;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  std::vector<std::int32_t> root;   ///< per tree: absolute root index
  std::vector<std::int32_t> depth;  ///< per tree: lockstep descent steps
  double missing = -1.0;            ///< surrogate for missing/out-of-range

  [[nodiscard]] bool empty() const noexcept { return value.empty(); }
};

/// Appends the lane form of the BFS-flattened tree occupying
/// nodes[root, root + count) to `out` (lane index == node index, so the
/// caller must append trees in table order with no gaps).
void append_lane_tree(const std::vector<CompiledNode>& nodes,
                      std::uint32_t root, std::size_t count, LaneTable& out);

// AVX2 lane-table kernels (compiled_tree_avx2.cpp; stubs when the build
// disables SCRUBBER_AVX2 — util::simd_level() then never selects them).
// Both traverse rows [0, n_pad) in kSimdLaneRows-lane groups and write
// out[0, n_live), n_pad a multiple of kSimdLaneRows with either
// n_pad == n_live (caller handles the tail) or n_pad = ceil(n_live)
// (caller supplied padded rows); `rows` must hold n_pad readable rows.

/// Adds each tree's reached leaf value to out[i] (caller pre-fills the
/// base margin), trees in table order — the scalar accumulation order.
void avx2_forest_margin(const LaneTable& table, const double* rows,
                        std::size_t width, std::size_t n_live,
                        std::size_t n_pad, double* out) noexcept;

/// Writes the single tree's reached leaf value to out[i].
void avx2_tree_predict(const LaneTable& table, const double* rows,
                       std::size_t width, std::size_t n_live,
                       std::size_t n_pad, double* out) noexcept;

}  // namespace detail

/// A single flattened decision tree (compiled DecisionTree).
class CompiledTree {
 public:
  CompiledTree() = default;

  /// Compiles any node array with {left,right,feature,threshold,value}
  /// fields and root at index 0.
  template <typename Node>
  [[nodiscard]] static CompiledTree compile(const std::vector<Node>& nodes) {
    CompiledTree out;
    detail::flatten_bfs(nodes, out.nodes_);
    out.build_lanes();
    return out;
  }

  /// Scalar prediction; identical to DecisionTree::score (empty → 0.5).
  [[nodiscard]] double predict(std::span<const double> row) const noexcept;

  /// Predicts out.size() rows stored contiguously in `rows` (row-major,
  /// `width` doubles each). Bit-identical to per-row predict(). When
  /// `rows` holds at least ceil(out.size() / kSimdLaneRows) full rows
  /// (padded assembly) the AVX2 kernel covers the ragged tail too.
  void predict_batch(std::span<const double> rows, std::size_t width,
                     std::span<double> out) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] const std::vector<CompiledNode>& nodes() const noexcept {
    return nodes_;
  }

 private:
  void build_lanes();

  std::vector<CompiledNode> nodes_;
  detail::LaneTable lanes_;
};

/// A flattened GBT ensemble: every tree BFS-compiled into one shared node
/// array, one root offset per tree.
class CompiledForest {
 public:
  CompiledForest() = default;

  /// `missing` is the surrogate value a missing or out-of-range feature
  /// reads as during traversal (GbtParams::missing_surrogate).
  template <typename Tree>
  [[nodiscard]] static CompiledForest compile(const std::vector<Tree>& trees,
                                              double base_margin,
                                              double missing = -1.0) {
    CompiledForest out;
    out.base_margin_ = base_margin;
    out.missing_ = missing;
    out.roots_.reserve(trees.size());
    for (const Tree& tree : trees) {
      out.roots_.push_back(static_cast<std::uint32_t>(out.nodes_.size()));
      detail::flatten_bfs(tree, out.nodes_);
    }
    out.build_lanes();
    return out;
  }

  /// Raw additive margin; identical to GradientBoostedTrees::margin.
  [[nodiscard]] double margin(std::span<const double> row) const noexcept;

  /// Sigmoid of margin; identical to GradientBoostedTrees::score.
  [[nodiscard]] double score(std::span<const double> row) const noexcept;

  /// Margins for out.size() contiguous rows. Trees are walked tree-major
  /// (all rows through tree t before tree t+1) so a tree's node table
  /// stays cache-resident; per-row accumulation order still matches the
  /// scalar path (base margin, then trees in order) — bit-identical,
  /// whichever kernel util::simd_level() selects.
  void margin_batch(std::span<const double> rows, std::size_t width,
                    std::span<double> out) const noexcept;

  /// Scores (sigmoid of margin) for out.size() contiguous rows.
  void score_batch(std::span<const double> rows, std::size_t width,
                   std::span<double> out) const noexcept;

  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }
  [[nodiscard]] double base_margin() const noexcept { return base_margin_; }
  [[nodiscard]] double missing_surrogate() const noexcept { return missing_; }

 private:
  void build_lanes();

  std::vector<CompiledNode> nodes_;
  std::vector<std::uint32_t> roots_;
  detail::LaneTable lanes_;
  double base_margin_ = 0.0;
  double missing_ = -1.0;
};

}  // namespace scrubber::ml
