#pragma once
// The pre-partition histogram GBT builder, embedded verbatim as the
// bit-identity oracle for the current engine (src/ml/gbt.cpp) — the same
// pattern as the flow-cache baselines in tests/oracles/legacy_flow.hpp: the
// historical algorithm lives on in test/bench code so every refactor of
// the production engine can prove "same model bytes" against it rather
// than against a remembered claim.
//
// This is the seed engine's fit() loop: per-column u16 binning with
// `std::upper_bound` assignment (missing folds into -1.0 — the legacy
// MissingPolicy::kMinusOne mapping, the only policy this oracle models),
// full global row scans per (level, feature) gated on a node_slot lookup,
// split-nested `hist_g`/`hist_h` buffers re-assigned per feature, and
// bin-based row routing. Only the wrapper differs: the algorithm is a
// free function returning {trees, base_margin, importance} so callers
// rebuild a model via GradientBoostedTrees::restore() and compare
// serialized bytes (util::gbt_to_json(...).dump()).
//
// Used by tests/ml/gbt_oracle_test.cpp and bench/training.cpp. Do not
// "improve" this code — its value is being frozen.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/gbt.hpp"
#include "util/thread_pool.hpp"

namespace scrubber::bench_oracle {

/// Everything fit() produces that reaches the serialized model.
struct OracleModel {
  std::vector<ml::GradientBoostedTrees::Tree> trees;
  double base_margin = 0.0;
  std::vector<ml::FeatureGain> importance;
};

namespace detail {

[[nodiscard]] inline double sigmoid(double x) noexcept {
  return 1.0 / (1.0 + std::exp(-x));
}

/// Quantile bin edges and a binned column-major copy of the training data.
/// (Seed engine: always u16 codes, missing mapped to -1.0, per-row
/// std::upper_bound assignment, per-column `values` + `sorted` buffers.)
class BinnedMatrix {
 public:
  BinnedMatrix(const ml::Dataset& data, std::size_t max_bins) {
    rows_ = data.n_rows();
    cols_ = data.n_cols();
    edges_.resize(cols_);
    binned_.resize(rows_ * cols_);

    util::training_pool().parallel_for_chunks(
        cols_, [&](std::size_t, std::size_t col_begin, std::size_t col_end) {
          std::vector<double> values;
          values.reserve(rows_);
          for (std::size_t j = col_begin; j < col_end; ++j) {
            values.clear();
            for (std::size_t i = 0; i < rows_; ++i) {
              const double v = data.at(i, j);
              values.push_back(ml::is_missing(v) ? -1.0 : v);
            }
            std::vector<double> sorted = values;
            std::sort(sorted.begin(), sorted.end());
            sorted.erase(std::unique(sorted.begin(), sorted.end()),
                         sorted.end());

            auto& edges = edges_[j];
            if (sorted.size() <= max_bins) {
              // One bin per distinct value; edges are midpoints.
              for (std::size_t k = 0; k + 1 < sorted.size(); ++k)
                edges.push_back((sorted[k] + sorted[k + 1]) / 2.0);
            } else {
              for (std::size_t b = 1; b < max_bins; ++b) {
                const std::size_t idx = b * sorted.size() / max_bins;
                const double edge = sorted[idx];
                if (edges.empty() || edge > edges.back()) edges.push_back(edge);
              }
            }
            // Bin assignment: bin = count of edges <= value (upper_bound).
            for (std::size_t i = 0; i < rows_; ++i) {
              const auto it =
                  std::upper_bound(edges.begin(), edges.end(), values[i]);
              binned_[j * rows_ + i] =
                  static_cast<std::uint16_t>(std::distance(edges.begin(), it));
            }
          }
        });
  }

  [[nodiscard]] std::uint16_t bin(std::size_t row,
                                  std::size_t col) const noexcept {
    return binned_[col * rows_ + row];
  }
  [[nodiscard]] std::size_t bin_count(std::size_t col) const noexcept {
    return edges_[col].size() + 1;
  }
  /// Raw-value threshold of splitting "bin <= b" on column `col`.
  [[nodiscard]] double edge_value(std::size_t col,
                                  std::size_t b) const noexcept {
    return edges_[col][b];
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::vector<double>> edges_;  // per column, ascending
  std::vector<std::uint16_t> binned_;       // column-major bins
};

struct SplitChoice {
  double gain = 0.0;
  std::size_t feature = 0;
  std::size_t bin = 0;  // split: bin <= this goes left
  bool valid = false;
};

}  // namespace detail

/// The seed engine's GradientBoostedTrees::fit(), verbatim modulo the
/// free-function wrapper. Honors util::set_training_threads like the
/// production engine; its output is thread-count independent.
[[nodiscard]] inline OracleModel fit_oracle(const ml::Dataset& data,
                                            const ml::GbtParams& params) {
  using ml::GradientBoostedTrees;
  using Node = GradientBoostedTrees::Node;
  using Tree = GradientBoostedTrees::Tree;
  using detail::BinnedMatrix;
  using detail::SplitChoice;

  OracleModel out;
  out.importance.assign(data.n_cols(), ml::FeatureGain{});
  for (std::size_t j = 0; j < data.n_cols(); ++j) out.importance[j].feature = j;

  const std::size_t n = data.n_rows();
  if (n == 0) return out;
  // Initialize the margin at the log-odds of the base rate.
  const double pos = static_cast<double>(data.positive_count());
  const double base_rate =
      std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  out.base_margin = std::log(base_rate / (1.0 - base_rate));

  const BinnedMatrix binned(data, params.max_bins);

  std::vector<double> margin(n, out.base_margin);
  std::vector<double> grad(n), hess(n);
  std::vector<std::size_t> row_node(n);  // node id each row currently sits in

  util::ThreadPool& pool = util::training_pool();

  for (std::size_t round = 0; round < params.n_estimators; ++round) {
    // Per-row slots: thread-count independent by construction.
    pool.parallel_for(n, [&](std::size_t i) {
      const double p = detail::sigmoid(margin[i]);
      grad[i] = p - static_cast<double>(data.label(i));
      hess[i] = std::max(p * (1.0 - p), 1e-16);
    });

    Tree tree;
    tree.push_back(Node{});
    std::fill(row_node.begin(), row_node.end(), std::size_t{0});
    std::vector<std::size_t> frontier{0};  // node ids open at current depth

    for (std::size_t depth = 0; depth < params.max_depth && !frontier.empty();
         ++depth) {
      // Histograms per open node: G and H per (feature, bin).
      const std::size_t open = frontier.size();
      std::vector<std::size_t> node_slot(
          tree.size(), std::numeric_limits<std::size_t>::max());
      for (std::size_t s = 0; s < open; ++s) node_slot[frontier[s]] = s;

      std::vector<double> node_g(open, 0.0), node_h(open, 0.0);
      std::vector<std::size_t> node_rows(open, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = node_slot[row_node[i]];
        if (slot == std::numeric_limits<std::size_t>::max()) continue;
        node_g[slot] += grad[i];
        node_h[slot] += hess[i];
        ++node_rows[slot];
      }

      // Per-feature pass: build histograms for all open nodes at once,
      // fanned out over contiguous feature chunks.
      const std::size_t n_chunks = pool.plan_chunks(binned.cols());
      std::vector<std::vector<SplitChoice>> chunk_best(
          n_chunks, std::vector<SplitChoice>(open));
      pool.parallel_for_chunks(
          binned.cols(),
          [&](std::size_t chunk, std::size_t f_begin, std::size_t f_end) {
            std::vector<SplitChoice>& local_best = chunk_best[chunk];
            std::vector<double> hist_g, hist_h;
            for (std::size_t feature = f_begin; feature < f_end; ++feature) {
              const std::size_t bins = binned.bin_count(feature);
              if (bins <= 1) continue;
              hist_g.assign(open * bins, 0.0);
              hist_h.assign(open * bins, 0.0);
              for (std::size_t i = 0; i < n; ++i) {
                const std::size_t slot = node_slot[row_node[i]];
                if (slot == std::numeric_limits<std::size_t>::max()) continue;
                const std::size_t b = binned.bin(i, feature);
                hist_g[slot * bins + b] += grad[i];
                hist_h[slot * bins + b] += hess[i];
              }
              for (std::size_t s = 0; s < open; ++s) {
                const double g_total = node_g[s];
                const double h_total = node_h[s];
                const double parent_score =
                    g_total * g_total / (h_total + params.reg_lambda);
                double gl = 0.0, hl = 0.0;
                for (std::size_t b = 0; b + 1 < bins; ++b) {
                  gl += hist_g[s * bins + b];
                  hl += hist_h[s * bins + b];
                  const double gr = g_total - gl;
                  const double hr = h_total - hl;
                  if (hl < params.min_child_weight ||
                      hr < params.min_child_weight)
                    continue;
                  const double gain =
                      0.5 * (gl * gl / (hl + params.reg_lambda) +
                             gr * gr / (hr + params.reg_lambda) -
                             parent_score) -
                      params.gamma;
                  if (gain > local_best[s].gain) {
                    local_best[s] = SplitChoice{gain, feature, b, true};
                  }
                }
              }
            }
          });
      std::vector<SplitChoice> best(open);
      for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
        for (std::size_t s = 0; s < open; ++s) {
          if (chunk_best[chunk][s].gain > best[s].gain) {
            best[s] = chunk_best[chunk][s];
          }
        }
      }

      // Materialize accepted splits; rows are reassigned to child nodes.
      std::vector<std::size_t> next_frontier;
      std::vector<std::int32_t> left_of(open, -1);
      for (std::size_t s = 0; s < open; ++s) {
        const std::size_t node_id = frontier[s];
        if (!best[s].valid || node_rows[s] < 2) continue;
        const auto left = static_cast<std::int32_t>(tree.size());
        {
          Node& node = tree[node_id];
          node.feature = static_cast<std::uint32_t>(best[s].feature);
          node.threshold = binned.edge_value(best[s].feature, best[s].bin);
          node.left = left;
          node.right = left + 1;
        }  // reference dies before push_back may reallocate the vector
        left_of[s] = left;
        tree.push_back(Node{});
        tree.push_back(Node{});
        next_frontier.push_back(static_cast<std::size_t>(left));
        next_frontier.push_back(static_cast<std::size_t>(left + 1));
        auto& gain_entry = out.importance[best[s].feature];
        gain_entry.total_gain += best[s].gain;
        ++gain_entry.split_count;
      }
      if (next_frontier.empty()) break;

      // Route rows to children. The split stored a raw-value threshold, but
      // during training we route via bins for exactness.
      std::vector<std::size_t> split_bin(open), split_feature(open);
      for (std::size_t s = 0; s < open; ++s) {
        split_bin[s] = best[s].bin;
        split_feature[s] = best[s].feature;
      }
      pool.parallel_for(n, [&](std::size_t i) {
        const std::size_t slot = node_slot[row_node[i]];
        if (slot == std::numeric_limits<std::size_t>::max() ||
            left_of[slot] < 0)
          return;
        const bool goes_left =
            binned.bin(i, split_feature[slot]) <= split_bin[slot];
        row_node[i] =
            static_cast<std::size_t>(left_of[slot] + (goes_left ? 0 : 1));
      });
      frontier = std::move(next_frontier);
    }

    // Leaf weights: w = -G / (H + lambda), shrunk by the learning rate.
    std::vector<double> leaf_g(tree.size(), 0.0), leaf_h(tree.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      leaf_g[row_node[i]] += grad[i];
      leaf_h[row_node[i]] += hess[i];
    }
    for (std::size_t t = 0; t < tree.size(); ++t) {
      if (tree[t].is_leaf()) {
        tree[t].value = -params.learning_rate * leaf_g[t] /
                        (leaf_h[t] + params.reg_lambda);
      }
    }
    for (std::size_t i = 0; i < n; ++i) margin[i] += tree[row_node[i]].value;
    out.trees.push_back(std::move(tree));
  }
  return out;
}

/// Rebuilds a scorable model from the oracle's raw output (the same
/// restore path model_io uses), so serialized bytes compare 1:1 with a
/// production fit under identical params.
[[nodiscard]] inline ml::GradientBoostedTrees restore_oracle(
    const ml::Dataset& data, const ml::GbtParams& params) {
  OracleModel raw = fit_oracle(data, params);
  ml::GradientBoostedTrees model(params);
  model.restore(std::move(raw.trees), raw.base_margin, params,
                std::move(raw.importance));
  return model;
}

}  // namespace scrubber::bench_oracle
