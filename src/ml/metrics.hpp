#pragma once
// Binary classification metrics used throughout the evaluation: confusion
// matrix, rates, F1 and the paper's F_beta (beta = 0.5, weighting false
// positives more heavily than false negatives — see §6.1).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace scrubber::ml {

/// Binary confusion matrix with derived rates and F-scores.
struct ConfusionMatrix {
  std::uint64_t tp = 0;
  std::uint64_t tn = 0;
  std::uint64_t fp = 0;
  std::uint64_t fn = 0;

  /// Accumulates one (truth, prediction) pair.
  void add(int truth, int predicted) noexcept {
    if (truth == 1) {
      (predicted == 1 ? tp : fn) += 1;
    } else {
      (predicted == 1 ? fp : tn) += 1;
    }
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return tp + tn + fp + fn; }

  /// True positive rate (recall / sensitivity); 0 when no positives.
  [[nodiscard]] double tpr() const noexcept {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  }
  /// True negative rate (specificity).
  [[nodiscard]] double tnr() const noexcept {
    return tn + fp == 0 ? 0.0 : static_cast<double>(tn) / static_cast<double>(tn + fp);
  }
  /// False positive rate.
  [[nodiscard]] double fpr() const noexcept {
    return tn + fp == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(tn + fp);
  }
  /// False negative rate.
  [[nodiscard]] double fnr() const noexcept {
    return tp + fn == 0 ? 0.0 : static_cast<double>(fn) / static_cast<double>(tp + fn);
  }
  /// Precision (positive predictive value).
  [[nodiscard]] double precision() const noexcept {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  }
  /// Recall; alias of tpr().
  [[nodiscard]] double recall() const noexcept { return tpr(); }

  /// F1 = tp / (tp + (fp + fn) / 2), the harmonic mean of precision/recall.
  [[nodiscard]] double f1() const noexcept { return f_beta(1.0); }

  /// F_beta = (1 + b^2) tp / ((1 + b^2) tp + b^2 fn + fp). The paper uses
  /// beta = 0.5 so that false positives weigh more than false negatives.
  [[nodiscard]] double f_beta(double beta) const noexcept {
    const double b2 = beta * beta;
    const double num = (1.0 + b2) * static_cast<double>(tp);
    const double den = num + b2 * static_cast<double>(fn) + static_cast<double>(fp);
    return den == 0.0 ? 0.0 : num / den;
  }

  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;
};

/// Builds a confusion matrix from parallel truth/prediction spans.
[[nodiscard]] ConfusionMatrix evaluate(std::span<const int> truth,
                                       std::span<const int> predicted);

/// Area under the ROC curve from probability-like scores; equals the
/// probability that a random positive outscores a random negative
/// (Mann-Whitney U, tie-corrected). Returns 0.5 when a class is empty.
[[nodiscard]] double roc_auc(std::span<const int> truth,
                             std::span<const double> scores);

}  // namespace scrubber::ml
