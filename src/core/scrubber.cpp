#include "core/scrubber.hpp"

namespace scrubber::core {
namespace {

// Algorithm 1's loss bounds (Appendix A): a rule is dropped in favour of a
// more specific one when it gains less than L_c in confidence and L_s in
// support over it.
constexpr double kRuleLossConfidence = 0.01;
constexpr double kRuleLossSupport = 0.01;

}  // namespace

IxpScrubber::IxpScrubber(ScrubberConfig config)
    : config_(config), pipeline_(ml::make_model_pipeline(config.model)) {
  aggregator_.set_threads(config_.agg_threads);
}

arm::RuleSet IxpScrubber::mine_tagging_rules(
    std::span<const net::FlowRecord> balanced_flows,
    std::array<std::size_t, 3>* counts) const {
  // Itemize every balanced flow (label item included for blackholed flows).
  std::vector<arm::Transaction> transactions;
  transactions.reserve(balanced_flows.size());
  for (const auto& flow : balanced_flows)
    transactions.push_back(itemizer_.itemize(flow));

  // FP-Growth rule mining (§5.1.1).
  std::vector<arm::MinedRule> mined = arm::mine_rules(transactions, config_.mining);
  const std::size_t total_mined = mined.size();

  // Step i: keep only rules with the {blackhole} consequent.
  mined = arm::keep_blackhole_consequent(std::move(mined));
  const std::size_t blackhole_rules = mined.size();

  // Step ii: Algorithm 1 minimization.
  mined = arm::minimize_rules(std::move(mined), kRuleLossConfidence,
                              kRuleLossSupport);
  if (counts != nullptr) *counts = {total_mined, blackhole_rules, mined.size()};

  return arm::RuleSet::from_mined(mined);
}

AggregatedDataset IxpScrubber::aggregate(
    std::span<const net::FlowRecord> balanced_flows) const {
  return aggregator_.aggregate(balanced_flows, &rules_);
}

void IxpScrubber::train(const AggregatedDataset& data) {
  pipeline_.fit(data.data);
  trained_ = true;
}

Classification IxpScrubber::classify(const AggregatedDataset& data,
                                     std::size_t index) const {
  Classification result;
  result.score = pipeline_.score(data.data.row(index));
  result.is_ddos = result.score >= 0.5;
  for (const std::uint32_t tag : data.meta[index].rule_tags)
    result.matched_rules.push_back(&rules_.rule_at(tag));
  return result;
}

std::vector<double> IxpScrubber::score_all(const AggregatedDataset& data) const {
  return pipeline_.score_all(data.data);
}

std::vector<int> IxpScrubber::predict_all(const AggregatedDataset& data) const {
  return pipeline_.predict_all(data.data);
}

ml::ConfusionMatrix IxpScrubber::evaluate(const AggregatedDataset& data) const {
  return ml::evaluate(data.data.labels(), predict_all(data));
}

std::vector<int> rbc_predict(const AggregatedDataset& data) {
  std::vector<int> out;
  out.reserve(data.size());
  for (const auto& meta : data.meta)
    out.push_back(meta.rule_tags.empty() ? 0 : 1);
  return out;
}

std::size_t accept_rules_above(arm::RuleSet& rules, double min_confidence,
                               double min_support, std::size_t min_items) {
  std::size_t accepted = 0;
  for (auto& rule : rules.rules()) {
    if (rule.status == arm::RuleStatus::kDeclined) continue;
    if (rule.rule.confidence >= min_confidence &&
        rule.rule.support >= min_support &&
        rule.rule.antecedent.size() >= min_items) {
      rule.status = arm::RuleStatus::kAccepted;
      ++accepted;
    } else {
      rule.status = arm::RuleStatus::kDeclined;
    }
  }
  return accepted;
}

}  // namespace scrubber::core
