#include "ml/gbt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "ml/bin_cache.hpp"
#include "ml/binned.hpp"
#include "util/thread_pool.hpp"

namespace scrubber::ml {
namespace {

/// Power-of-two upper bound on 1/d for finite d >= 1: with e the biased
/// exponent of d, d >= 2^(e-1023), so 2^(1023-e) >= 1/d. The bound is
/// within 2x of the true reciprocal at a few integer ops and no divide;
/// the clamp keeps the result a normal float for astronomically large d
/// (still an upper bound on 1/d, which is all soundness needs).
[[nodiscard]] inline double recip_upper(double d) noexcept {
  const std::uint64_t e = (std::bit_cast<std::uint64_t>(d) >> 52) & 0x7FF;
  return std::bit_cast<double>((2046 - std::min<std::uint64_t>(e, 2045))
                               << 52);
}

[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

struct SplitChoice {
  double gain = 0.0;
  std::size_t feature = 0;
  std::size_t bin = 0;  // split: bin <= this goes left
  bool valid = false;
};

/// Contiguous slice of the active row-index buffer holding one open
/// node's rows, ascending by global row index.
struct NodeSpan {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

/// Histogram + split scan for the features in [f_begin, f_end), reading
/// only the open nodes' row spans. Templated on the bin-code width so the
/// inner loop loads u8 codes when the matrix is narrow.
///
/// Bit-identity invariants vs the historical all-rows engine
/// (tests/oracles/gbt_oracle.hpp):
///
///   * Per-(node, bin) accumulation order: a span's rows are ascending by
///     global row index — stable partition of an ascending parent — so
///     each accumulator sees the exact float stream of the historical
///     global scan restricted to that node. Processing one node at a time
///     in a single-node histogram is bitwise irrelevant: accumulators of
///     different nodes are disjoint.
///   * Candidate visit order: slots ascending, bins ascending, features
///     ascending within the chunk — the historical order — with strict
///     `>` keeping the earliest maximum.
///   * Touched-range truncation: the gain scan covers only [lo, hi], the
///     bins this node actually populated. Untouched interior bins hold
///     exact +0.0 pairs (adding them changes no bits and their candidate
///     gain duplicates the preceding touched candidate, which strict `>`
///     already keeps). Prefix candidates (all-left mass zero) evaluate to
///     exactly -gamma, never beating the 0.0 init while gamma >= 0.
///     Suffix candidates have hr within rounding of zero, which
///     min_child_weight > 0 rejects. Exotic params (gamma < 0 or
///     min_child_weight == 0) fall back to the full range.
///
/// The single-node histogram replaces the historical `open * bins` zero
/// fill per feature with a touched-range re-zero per node. Features are
/// processed in blocks of up to four so one pass over a node's rows
/// amortizes the row-index and (g,h) loads across four histograms, and
/// the `__restrict` pointers let the compiler fuse each interleaved
/// (g,h) cell update into a single 128-bit pair add — two independent
/// IEEE doubles adds, bitwise the scalar pair.
constexpr std::size_t kFeatureBlock = 4;

template <typename Code>
void scan_features(const BinnedMatrix& binned, std::size_t f_begin,
                   std::size_t f_end, const std::uint32_t* row_index,
                   const std::vector<NodeSpan>& spans, const double* gh,
                   const std::vector<double>& node_g,
                   const std::vector<double>& node_h, const GbtParams& params,
                   std::vector<double>& hist,
                   std::vector<SplitChoice>& local_best) {
  const std::size_t open = spans.size();
  std::size_t widest = 0;
  for (std::size_t feature = f_begin; feature < f_end; ++feature) {
    widest = std::max(widest, binned.bin_count(feature));
  }
  // One single-node histogram slice per block lane, all-zero between
  // nodes: each node re-zeroes only the ranges it touched, so the buffer
  // is all-zero again on exit and the full-width fill runs once per
  // chunk per fit (the chunk partition — and hence `widest` — is fixed).
  if (hist.size() != kFeatureBlock * widest * 2) {
    hist.assign(kFeatureBlock * widest * 2, 0.0);
  }
  const bool can_truncate =
      params.gamma >= 0.0 && params.min_child_weight > 0.0;
  const double* __restrict gh_pairs = gh;
  const double min_cw = params.min_child_weight;
  const double lambda = params.reg_lambda;
  const double gamma = params.gamma;
  // Division-free pre-filter: with lambda >= 1 and hr >= 0 every divisor
  // d = h + lambda is >= 1, and recip_upper(d) >= 1/d over the reals —
  // so replacing each quotient x/d by x * recip_upper(d) can only raise
  // the result. Every float operation in the gain expression is monotone
  // in its operands (rounding is monotone), so the bound dominates the
  // computed gain too, not just the real one. A candidate whose bound
  // fails `> best` can therefore never win; survivors compute the exact
  // historical gain, so the selected split is bit-identical.
  const bool can_filter = lambda >= 1.0;
  // A node needs hl >= min_cw AND hr >= min_cw for any candidate on any
  // feature, and hl + hr reconstructs h_total to within rounding — so a
  // node whose hessian total sits below ~2*min_cw can never split and
  // skips its histograms outright (the oracle reaches the same "no valid
  // candidate" conclusion the slow way). The epsilon margin keeps the
  // half-ulp boundary case, where fl(h_total - hl) could still round up
  // to min_cw, on the scanning path.
  const double h_floor =
      2.0 * min_cw * (1.0 - 4.0 * std::numeric_limits<double>::epsilon());
  // One divide per node, reused across every feature (the quotient is the
  // same bits the historical per-feature recomputation produced).
  std::vector<double> node_parent(open);
  for (std::size_t s = 0; s < open; ++s) {
    node_parent[s] = node_g[s] * node_g[s] / (node_h[s] + lambda);
  }

  std::size_t feats[kFeatureBlock];
  const Code* codes[kFeatureBlock];
  std::size_t nbins[kFeatureBlock];
  for (std::size_t next = f_begin; next < f_end;) {
    // Fill the block with the next (up to) four features wide enough to
    // split; single-bin columns have no candidates and skip entirely.
    std::size_t nf = 0;
    std::size_t block_bins = 0;
    while (next < f_end && nf < kFeatureBlock) {
      if (binned.bin_count(next) > 1) {
        feats[nf] = next;
        codes[nf] = binned.codes<Code>(next);
        nbins[nf] = binned.bin_count(next);
        block_bins = std::max(block_bins, nbins[nf]);
        ++nf;
      }
      ++next;
    }
    if (nf == 0) continue;

    for (std::size_t s = 0; s < open; ++s) {
      // A node with fewer than two rows cannot split (the materialization
      // gate below would reject it; no candidate can clear the strict-`>`
      // 0.0 bar either) — skip its scan entirely.
      const std::uint32_t count = spans[s].count;
      if (count < 2 || node_h[s] < h_floor) continue;
      const std::uint32_t* span = row_index + spans[s].begin;
      // Touched-range bookkeeping costs two cmovs per (row, lane); worth
      // it only when the node's rows are sparser than the block's widest
      // histogram. Either mode selects identically — full range is the
      // historical scan itself, the truncated range drops only provably
      // losing candidates (see header comment).
      const bool track = can_truncate && count < block_bins;
      std::size_t lo[kFeatureBlock], hi[kFeatureBlock];
      for (std::size_t j = 0; j < nf; ++j) {
        lo[j] = track ? widest : 0;
        hi[j] = track ? 0 : nbins[j] - 1;
      }

      // Per-(feature, bin) accumulation order is the span's ascending
      // row order regardless of the block shape: every row updates each
      // lane's histogram exactly once, lanes are disjoint slices.
      const auto accumulate = [&](auto lanes, auto mode_tag) {
        constexpr std::size_t kLanes = decltype(lanes)::value;
        constexpr int kMode = decltype(mode_tag)::value;
        for (std::uint32_t k = 0; k < count; ++k) {
          const std::size_t i = span[k];
          const double* __restrict pair = gh_pairs + 2 * i;
          const double g = pair[0];
          const double h = pair[1];
          for (std::size_t j = 0; j < kLanes; ++j) {
            const std::size_t b = codes[j][i];
            double* __restrict cell = hist.data() + (j * widest + b) * 2;
            cell[0] += g;
            cell[1] += h;
            if constexpr (kMode == 1) {
              lo[j] = std::min(lo[j], b);
              hi[j] = std::max(hi[j], b);
            }
          }
        }
      };
      const auto dispatch = [&](auto mode_tag) {
        switch (nf) {
          case 1:
            accumulate(std::integral_constant<std::size_t, 1>{}, mode_tag);
            break;
          case 2:
            accumulate(std::integral_constant<std::size_t, 2>{}, mode_tag);
            break;
          case 3:
            accumulate(std::integral_constant<std::size_t, 3>{}, mode_tag);
            break;
          default:
            accumulate(std::integral_constant<std::size_t, 4>{}, mode_tag);
            break;
        }
      };
      if (track) {
        dispatch(std::integral_constant<int, 1>{});
      } else {
        dispatch(std::integral_constant<int, 0>{});
      }

      const double g_total = node_g[s];
      const double h_total = node_h[s];
      const double parent_score = node_parent[s];
      for (std::size_t j = 0; j < nf; ++j) {
        const std::size_t feature = feats[j];
        const std::size_t bins = nbins[j];
        const double* __restrict slice = hist.data() + j * widest * 2;

        double gl = 0.0, hl = 0.0;
        double best_gain = local_best[s].gain;
        const std::size_t scan_begin = lo[j];
        const std::size_t scan_end = std::min(hi[j] + 1, bins - 1);
        // hl only grows (hessian cells are nonnegative and rounding is
        // monotone), so hr = h_total - hl only shrinks: the first
        // min_child_weight failure on the right ends the lane — every
        // later candidate fails the same historical test. The prefix
        // `continue` is the historical check verbatim.
        for (std::size_t b = scan_begin; b < scan_end; ++b) {
          gl += slice[b * 2];
          hl += slice[b * 2 + 1];
          if (hl < min_cw) continue;
          const double gr = g_total - gl;
          const double hr = h_total - hl;
          if (hr < min_cw) break;
          if (can_filter) {
            // Speculative division-free bound; hr >= min_cw >= 0 here, so
            // the divisors are >= lambda >= 1 and the bound lemma applies.
            const double bound =
                0.5 * (gl * gl * recip_upper(hl + lambda) +
                       gr * gr * recip_upper(hr + lambda) - parent_score) -
                gamma;
            if (!(bound > best_gain)) continue;
          }
          const double gain =
              0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) -
                     parent_score) -
              gamma;
          if (gain > best_gain) {
            best_gain = gain;
            local_best[s] = SplitChoice{gain, feature, b, true};
          }
        }
        // Restore the all-zero invariant over the touched range only.
        const auto first = static_cast<std::ptrdiff_t>((j * widest + lo[j]) * 2);
        const auto last = static_cast<std::ptrdiff_t>((j * widest + hi[j] + 1) * 2);
        std::fill(hist.begin() + first, hist.begin() + last, 0.0);
      }
    }
  }
}

}  // namespace

void GradientBoostedTrees::fit(const Dataset& data) {
  // scrubber-deterministic-begin
  trees_.clear();
  importance_.assign(data.n_cols(), FeatureGain{});
  for (std::size_t j = 0; j < data.n_cols(); ++j) importance_[j].feature = j;

  const std::size_t n = data.n_rows();
  if (n == 0) {
    base_margin_ = 0.0;
    compiled_ = CompiledForest::compile(trees_, base_margin_,
                                        params_.missing_surrogate());
    return;
  }
  // Initialize the margin at the log-odds of the base rate.
  const double pos = static_cast<double>(data.positive_count());
  const double base_rate = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_margin_ = std::log(base_rate / (1.0 - base_rate));

  // Shared immutable binned copy: grid-search cells and repeated fits
  // over the same encoded fold reuse one matrix (ml/bin_cache.hpp).
  const MissingPolicy policy = params_.missing_reserved_bin
                                   ? MissingPolicy::kReservedBin
                                   : MissingPolicy::kMinusOne;
  const std::shared_ptr<const BinnedMatrix> shared =
      BinCache::instance().get_or_build(data, params_.max_bins, policy);
  const BinnedMatrix& binned = *shared;

  std::vector<double> margin(n, base_margin_);
  std::vector<double> gh(2 * n);  // interleaved (grad, hess) pairs
  std::vector<std::uint32_t> row_node(n);  // node id each row sits in
  // Ping-pong row-partition buffers: the active one holds every open
  // node's rows as contiguous ascending spans; splits stably partition
  // each span into the other buffer.
  std::vector<std::uint32_t> rows_cur(n), rows_next(n);

  util::ThreadPool& pool = util::training_pool();

  // Fit-lifetime scan workspaces: the feature-chunk partition is fixed
  // for the whole fit, so per-chunk histogram buffers and argmax slots
  // allocate once and reuse across every level of every round.
  const std::size_t n_chunks = pool.plan_chunks(binned.cols());
  std::vector<std::vector<double>> chunk_hist(n_chunks);
  std::vector<std::vector<SplitChoice>> chunk_best(n_chunks);

  for (std::size_t round = 0; round < params_.n_estimators; ++round) {
    // Per-row slots: thread-count independent by construction.
    pool.parallel_for(n, [&](std::size_t i) {
      const double p = sigmoid(margin[i]);
      gh[2 * i] = p - static_cast<double>(data.label(i));
      gh[2 * i + 1] = std::max(p * (1.0 - p), 1e-16);
    });

    Tree tree;
    tree.push_back(Node{});
    std::fill(row_node.begin(), row_node.end(), std::uint32_t{0});
    std::iota(rows_cur.begin(), rows_cur.end(), std::uint32_t{0});
    std::vector<std::size_t> frontier{0};  // node ids open at current depth
    std::vector<NodeSpan> spans{NodeSpan{0, static_cast<std::uint32_t>(n)}};

    for (std::size_t depth = 0; depth < params_.max_depth && !frontier.empty();
         ++depth) {
      const std::size_t open = frontier.size();

      // Per-node (G, H) totals: each slot sums its span ascending — the
      // historical global-scan stream restricted to that node.
      std::vector<double> node_g(open, 0.0), node_h(open, 0.0);
      pool.parallel_for(open, [&](std::size_t s) {
        const std::uint32_t* span = rows_cur.data() + spans[s].begin;
        double g = 0.0, h = 0.0;
        for (std::uint32_t k = 0; k < spans[s].count; ++k) {
          g += gh[2 * span[k]];
          h += gh[2 * span[k] + 1];
        }
        node_g[s] = g;
        node_h[s] = h;
      });

      // Per-feature histograms over the open spans, fanned out over
      // contiguous feature chunks. Each feature is accumulated by exactly
      // one thread; per-chunk argmaxes merge in ascending chunk order,
      // which equals the sequential ascending-feature fold (strict `>`
      // keeps the earliest maximum) for any chunk partition.
      for (auto& slots : chunk_best) slots.assign(open, SplitChoice{});
      pool.parallel_for_chunks(
          binned.cols(),
          [&](std::size_t chunk, std::size_t f_begin, std::size_t f_end) {
            if (binned.narrow()) {
              scan_features<std::uint8_t>(binned, f_begin, f_end,
                                          rows_cur.data(), spans, gh.data(),
                                          node_g, node_h, params_,
                                          chunk_hist[chunk],
                                          chunk_best[chunk]);
            } else {
              scan_features<std::uint16_t>(binned, f_begin, f_end,
                                           rows_cur.data(), spans, gh.data(),
                                           node_g, node_h, params_,
                                           chunk_hist[chunk],
                                           chunk_best[chunk]);
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

      // Materialize accepted splits; spans of declined nodes simply drop
      // out of the active buffer (their rows keep their row_node id).
      std::vector<std::size_t> next_frontier;
      std::vector<std::size_t> split_slot;  // slots with accepted splits
      for (std::size_t s = 0; s < open; ++s) {
        const std::size_t node_id = frontier[s];
        if (!best[s].valid || spans[s].count < 2) continue;
        const auto left = static_cast<std::int32_t>(tree.size());
        {
          Node& node = tree[node_id];
          node.feature = static_cast<std::uint32_t>(best[s].feature);
          node.threshold = binned.edge_value(best[s].feature, best[s].bin);
          node.left = left;
          node.right = left + 1;
        }  // reference dies before push_back may reallocate the vector
        split_slot.push_back(s);
        tree.push_back(Node{});
        tree.push_back(Node{});
        next_frontier.push_back(static_cast<std::size_t>(left));
        next_frontier.push_back(static_cast<std::size_t>(left + 1));
        auto& gain_entry = importance_[best[s].feature];
        gain_entry.total_gain += best[s].gain;
        ++gain_entry.split_count;
      }
      if (next_frontier.empty()) break;

      // Stable partition into the other buffer: left counts first (the
      // children's span offsets need them), then each split writes its
      // two children into disjoint ranges — parallel over splits, output
      // independent of the thread count by construction. Writing left
      // rows then right rows in span order preserves ascending global
      // row order within every child span.
      const std::size_t n_splits = split_slot.size();
      std::vector<std::uint32_t> left_count(n_splits, 0);
      pool.parallel_for(n_splits, [&](std::size_t k) {
        const NodeSpan span = spans[split_slot[k]];
        const SplitChoice& choice = best[split_slot[k]];
        std::uint32_t count = 0;
        for (std::uint32_t r = 0; r < span.count; ++r) {
          const std::uint32_t i = rows_cur[span.begin + r];
          count += binned.bin(i, choice.feature) <= choice.bin ? 1U : 0U;
        }
        left_count[k] = count;
      });

      std::vector<NodeSpan> next_spans(2 * n_splits);
      std::uint32_t offset = 0;
      for (std::size_t k = 0; k < n_splits; ++k) {
        const NodeSpan span = spans[split_slot[k]];
        next_spans[2 * k] = NodeSpan{offset, left_count[k]};
        next_spans[2 * k + 1] =
            NodeSpan{offset + left_count[k], span.count - left_count[k]};
        offset += span.count;
      }
      pool.parallel_for(n_splits, [&](std::size_t k) {
        const NodeSpan span = spans[split_slot[k]];
        const SplitChoice& choice = best[split_slot[k]];
        const auto left_id =
            static_cast<std::uint32_t>(tree[frontier[split_slot[k]]].left);
        std::uint32_t* left_out = rows_next.data() + next_spans[2 * k].begin;
        std::uint32_t* right_out =
            rows_next.data() + next_spans[2 * k + 1].begin;
        for (std::uint32_t r = 0; r < span.count; ++r) {
          const std::uint32_t i = rows_cur[span.begin + r];
          const bool goes_left = binned.bin(i, choice.feature) <= choice.bin;
          row_node[i] = left_id + (goes_left ? 0U : 1U);
          *(goes_left ? left_out : right_out)++ = i;
        }
      });

      rows_cur.swap(rows_next);
      spans = std::move(next_spans);
      frontier = std::move(next_frontier);
    }

    // Leaf weights: w = -G / (H + lambda), shrunk by the learning rate.
    std::vector<double> leaf_g(tree.size(), 0.0), leaf_h(tree.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      leaf_g[row_node[i]] += gh[2 * i];
      leaf_h[row_node[i]] += gh[2 * i + 1];
    }
    for (std::size_t t = 0; t < tree.size(); ++t) {
      if (tree[t].is_leaf()) {
        tree[t].value = -params_.learning_rate * leaf_g[t] /
                        (leaf_h[t] + params_.reg_lambda);
      }
    }
    for (std::size_t i = 0; i < n; ++i) margin[i] += tree[row_node[i]].value;
    trees_.push_back(std::move(tree));
  }
  compiled_ = CompiledForest::compile(trees_, base_margin_,
                                      params_.missing_surrogate());
  // scrubber-deterministic-end
}

double GradientBoostedTrees::margin(std::span<const double> row) const {
  const double missing = params_.missing_surrogate();
  double total = base_margin_;
  for (const Tree& tree : trees_) {
    std::size_t index = 0;
    while (!tree[index].is_leaf()) {
      const Node& node = tree[index];
      const double v = node.feature < row.size() && !is_missing(row[node.feature])
                           ? row[node.feature]
                           : missing;
      index = static_cast<std::size_t>(v <= node.threshold ? node.left : node.right);
    }
    total += tree[index].value;
  }
  return total;
}

double GradientBoostedTrees::score(std::span<const double> row) const {
  return sigmoid(margin(row));
}

void GradientBoostedTrees::score_batch(const Dataset& data,
                                       std::span<double> out) const {
  // Padded assembly: zero-fill up to a whole SIMD lane group so the AVX2
  // kernel can run full groups over the ragged tail (no copy when the row
  // count already divides evenly — raw_padded returns the live buffer).
  std::vector<double> padded;
  compiled_.score_batch(data.raw_padded(kSimdLaneRows, padded), data.n_cols(),
                        out);
}

std::vector<FeatureGain> GradientBoostedTrees::gain_importance() const {
  std::vector<FeatureGain> sorted = importance_;
  std::erase_if(sorted, [](const FeatureGain& g) { return g.split_count == 0; });
  std::sort(sorted.begin(), sorted.end(),
            [](const FeatureGain& a, const FeatureGain& b) {
              return a.average_gain() > b.average_gain();
            });
  return sorted;
}

void GradientBoostedTrees::restore(std::vector<Tree> trees, double base_margin,
                                   GbtParams params,
                                   std::vector<FeatureGain> importance) {
  trees_ = std::move(trees);
  base_margin_ = base_margin;
  params_ = params;
  importance_ = std::move(importance);
  compiled_ = CompiledForest::compile(trees_, base_margin_,
                                      params_.missing_surrogate());
}

}  // namespace scrubber::ml
