#pragma once
// Preprocessing + classifier pipelines (Figure 8 of the paper).
//
// A Pipeline owns an ordered list of Transformers and a final Classifier.
// fit() fits each stage on the output of the previous stages and then the
// classifier; predict()/score() push a raw feature row through all stages.
// The WoE stage can be swapped independently of the classifier, which is
// exactly the cross-IXP transfer experiment of §6.4 (Figure 12, right).

#include <memory>
#include <vector>

#include "ml/classifier.hpp"

namespace scrubber::ml {

/// An end-to-end model: transformers followed by a classifier.
class Pipeline {
 public:
  Pipeline() = default;

  /// Builder-style stage registration (call before fit()).
  Pipeline& add(std::unique_ptr<Transformer> stage) {
    stages_.push_back(std::move(stage));
    return *this;
  }
  Pipeline& set_classifier(std::unique_ptr<Classifier> classifier) {
    classifier_ = std::move(classifier);
    return *this;
  }

  /// Fits all stages and the classifier on `data`.
  void fit(const Dataset& data);

  /// Applies all fitted transformer stages to a raw row; returns the
  /// feature vector the classifier consumes.
  [[nodiscard]] std::vector<double> transform(std::span<const double> row) const;

  /// Probability-like score for a raw feature row.
  [[nodiscard]] double score(std::span<const double> row) const;

  /// Scores every raw row of `data` in one pass: transforms the dataset
  /// stage-by-stage, then hands the materialized matrix to the
  /// classifier's batch kernel. Every stage is row-independent, so the
  /// scores are bit-identical to per-row score().
  [[nodiscard]] std::vector<double> score_all(const Dataset& data) const;

  /// Hard prediction for a raw feature row.
  [[nodiscard]] int predict(std::span<const double> row) const {
    return score(row) >= 0.5 ? 1 : 0;
  }

  /// Batch prediction over raw rows of a dataset.
  [[nodiscard]] std::vector<int> predict_all(const Dataset& data) const;

  /// Materializes the fully transformed dataset (used by fit internally
  /// and by analyses that inspect the encoded feature space).
  [[nodiscard]] Dataset transform_dataset(const Dataset& data) const;

  /// Access to stages for inspection (e.g. the WoE encoder).
  [[nodiscard]] std::size_t stage_count() const noexcept { return stages_.size(); }
  [[nodiscard]] Transformer& stage(std::size_t i) { return *stages_.at(i); }
  [[nodiscard]] const Transformer& stage(std::size_t i) const {
    return *stages_.at(i);
  }

  /// First stage with the given name() (e.g. "WoE"), or nullptr.
  [[nodiscard]] Transformer* find_stage(std::string_view name);
  [[nodiscard]] const Transformer* find_stage(std::string_view name) const;

  /// Swaps in a different (already trained elsewhere) classifier while
  /// keeping the locally fitted transformers — the §6.4 transfer mode.
  void swap_classifier(std::unique_ptr<Classifier> classifier) {
    classifier_ = std::move(classifier);
  }

  [[nodiscard]] Classifier& classifier() { return *classifier_; }
  [[nodiscard]] const Classifier& classifier() const { return *classifier_; }

  /// Deep copy of the whole pipeline (stages + classifier).
  [[nodiscard]] Pipeline clone() const;

  /// "FR->I->WoE->C(XGB)"-style description.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::unique_ptr<Transformer>> stages_;
  std::unique_ptr<Classifier> classifier_;
};

/// The model selection of Figure 8. Builds the per-model pipeline with its
/// specific preprocessing chain:
///   XGB/DT:  FR -> I -> WoE -> C
///   NB-*:    FR -> I -> WoE -> N -> C
///   LSVM:    FR -> I -> WoE -> S -> N -> C
///   NN:      FR -> I -> WoE -> S -> PCA -> N -> C
///   DUM:     C
enum class ModelKind {
  kXgb, kDecisionTree, kNeuralNet, kLinearSvm,
  kNaiveBayesGaussian, kNaiveBayesMultinomial, kNaiveBayesComplement,
  kNaiveBayesBernoulli, kDummy,
};

/// Display name matching Tables 3/5 ("XGB", "NN", "LSVM", "NB-G", ...).
[[nodiscard]] std::string_view model_kind_name(ModelKind kind) noexcept;

/// Builds the Figure 8 pipeline for a model with its default (Table 4
/// selected) hyperparameters. `pca_components` applies to NN only.
[[nodiscard]] Pipeline make_model_pipeline(ModelKind kind,
                                           std::size_t pca_components = 50);

/// All model kinds evaluated in Table 5, in the paper's order.
[[nodiscard]] std::span<const ModelKind> all_model_kinds() noexcept;

}  // namespace scrubber::ml
