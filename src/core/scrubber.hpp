#pragma once
// The IXP Scrubber facade: the two-step ML system of §5.
//
// Step 1 (rule tagging): mine association rules from balanced flows with
// FP-Growth, drop non-{blackhole} consequents, minimize with Algorithm 1,
// and hand the survivors to an operator curation workflow (RuleSet).
//
// Step 2 (classification): aggregate flows to per-target records, WoE-
// encode, and classify with one of the Figure 8 model pipelines. Rule tags
// are preserved alongside records for the RBC baseline, ACL generation,
// and local explainability — never as classifier features (§5.2.1).

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "arm/rules.hpp"
#include "core/aggregator.hpp"
#include "core/balancer.hpp"
#include "ml/metrics.hpp"
#include "ml/pipeline.hpp"

namespace scrubber::core {

/// End-to-end configuration.
struct ScrubberConfig {
  ml::ModelKind model = ml::ModelKind::kXgb;
  arm::FpGrowthParams mining{};       ///< FP-Growth thresholds (§5.1.1)
  std::uint64_t seed = 42;
  /// Workers for the parallel feature build (0 = full training pool);
  /// bit-identical output for any value.
  unsigned agg_threads = 0;
};

/// Verdict for one aggregated target record.
struct Classification {
  bool is_ddos = false;
  double score = 0.0;  ///< model probability
  /// Accepted tagging rules matching the record's flows (deployable ACLs
  /// and local explanation, Figure 14a).
  std::vector<const arm::TaggingRule*> matched_rules;
};

/// The IXP Scrubber system.
class IxpScrubber {
 public:
  explicit IxpScrubber(ScrubberConfig config = {});

  // ----- Step 1: rule tagging -----

  /// Mines, filters, and minimizes tagging rules from balanced flows.
  /// Returned rules are in `staging`; operators accept/decline them.
  /// `counts` (optional) receives {mined, blackhole-consequent, minimized}.
  [[nodiscard]] arm::RuleSet mine_tagging_rules(
      std::span<const net::FlowRecord> balanced_flows,
      std::array<std::size_t, 3>* counts = nullptr) const;

  /// Installs the curated rule set used for tagging and RBC.
  void set_rules(arm::RuleSet rules) { rules_ = std::move(rules); }
  [[nodiscard]] const arm::RuleSet& rules() const noexcept { return rules_; }
  [[nodiscard]] arm::RuleSet& rules() noexcept { return rules_; }

  // ----- Step 2: aggregation + classification -----

  /// Aggregates balanced flows into per-target records, annotated with the
  /// installed rules.
  [[nodiscard]] AggregatedDataset aggregate(
      std::span<const net::FlowRecord> balanced_flows) const;

  /// Trains the configured model pipeline on aggregated records.
  void train(const AggregatedDataset& data);

  /// Classifies one aggregated record (row `index` of `data`).
  [[nodiscard]] Classification classify(const AggregatedDataset& data,
                                        std::size_t index) const;

  /// Batch scores over a whole aggregated dataset, one probability per
  /// record — the compiled-tree fast path (bit-identical to classify()'s
  /// per-record score; the live detector's per-minute pass uses this).
  [[nodiscard]] std::vector<double> score_all(const AggregatedDataset& data) const;

  /// Batch predictions (0/1) over a whole aggregated dataset.
  [[nodiscard]] std::vector<int> predict_all(const AggregatedDataset& data) const;

  /// Evaluates against the dataset's labels.
  [[nodiscard]] ml::ConfusionMatrix evaluate(const AggregatedDataset& data) const;

  /// The trained pipeline (for transfer experiments and explainability).
  [[nodiscard]] ml::Pipeline& pipeline() noexcept { return pipeline_; }
  [[nodiscard]] const ml::Pipeline& pipeline() const noexcept { return pipeline_; }

  [[nodiscard]] const ScrubberConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return trained_; }

 private:
  ScrubberConfig config_;
  arm::Itemizer itemizer_;
  arm::RuleSet rules_;
  Aggregator aggregator_;
  ml::Pipeline pipeline_;
  bool trained_ = false;
};

/// Rule-based classifier baseline (RBC, §5.2.2): predicts DDoS iff any
/// accepted tagging rule matched the record's flows.
[[nodiscard]] std::vector<int> rbc_predict(const AggregatedDataset& data);

/// Threshold-policy operator: accepts staged rules with confidence >=
/// `min_confidence` (the released rule list of Appendix F uses 0.9), at
/// least `min_support` antecedent support, and at least `min_items`
/// antecedent items (operators decline overly generic rules — a deployable
/// reflection filter pins protocol + port + size, not just "UDP").
/// Declines the rest. Returns the number of accepted rules.
std::size_t accept_rules_above(arm::RuleSet& rules, double min_confidence,
                               double min_support = 0.0,
                               std::size_t min_items = 0);

}  // namespace scrubber::core
