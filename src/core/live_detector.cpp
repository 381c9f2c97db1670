#include "core/live_detector.hpp"

namespace scrubber::core {

LiveDetector::LiveDetector(LiveDetectorConfig config, DetectionSink sink)
    : config_(config), sink_(std::move(sink)) {
  ScrubberConfig scrubber_config;  // default model: the XGB pipeline
  scrubber_config.mining = config_.mining;
  scrubber_config.seed = config_.seed;
  scrubber_config.agg_threads = config_.agg_threads;
  scrubber_ = IxpScrubber(scrubber_config);
}

std::size_t LiveDetector::window_flows() const noexcept {
  std::size_t total = 0;
  for (const auto& [minute, flows] : window_) total += flows.size();
  return total;
}

void LiveDetector::evict_window(std::uint32_t now_minute) {
  while (!window_.empty() &&
         window_.front().first + config_.training_window_min <= now_minute) {
    window_.pop_front();
  }
}

void LiveDetector::retrain(std::uint32_t now_minute) {
  evict_window(now_minute);
  std::vector<net::FlowRecord> training;
  training.reserve(window_flows());
  for (const auto& [minute, flows] : window_)
    training.insert(training.end(), flows.begin(), flows.end());
  if (training.empty()) return;

  // Step 1: mine + minimize + auto-curate tagging rules. A production
  // deployment routes the staged rules through the operator UI instead of
  // the threshold policy (see RuleSet / Figure 6).
  auto rules = scrubber_.mine_tagging_rules(training);
  accept_rules_above(rules, config_.rule_min_confidence, 0.0,
                     config_.rule_min_items);
  scrubber_.set_rules(std::move(rules));

  // Step 2: aggregate + train.
  const AggregatedDataset aggregated = scrubber_.aggregate(training);
  if (aggregated.size() < 20 || aggregated.data.positive_count() < 5) return;
  scrubber_.train(aggregated);
  last_retrain_minute_ = now_minute;
  ++retrain_count_;
}

void LiveDetector::ingest_minute(std::uint32_t minute,
                                 std::span<const net::FlowRecord> flows) {
  ++minutes_processed_;
  if (!first_minute_) first_minute_ = minute;

  // Online balancing into the sliding training window.
  Balancer balancer(config_.seed ^ minute);
  balancer.add_minute(minute, flows);
  auto balanced = balancer.take_balanced();
  if (!balanced.empty()) window_.emplace_back(minute, std::move(balanced));
  evict_window(minute);

  // Scheduled (re)training.
  const bool warmed_up = minute >= *first_minute_ + config_.warmup_min;
  const bool due = !scrubber_.trained() ||
                   minute >= last_retrain_minute_ + config_.retrain_interval_min;
  if (warmed_up && due) retrain(minute);
  if (!scrubber_.trained() || flows.empty()) return;

  // Detection pass over the live (unbalanced) minute: one batch scoring
  // call for the whole minute (compiled-tree kernel), then per-record
  // thresholding — scores match scrubber_.classify() bit-for-bit.
  const AggregatedDataset aggregated = scrubber_.aggregate(flows);
  const std::vector<double> scores = scrubber_.score_all(aggregated);
  for (std::size_t i = 0; i < aggregated.size(); ++i) {
    if (aggregated.meta[i].flow_count < config_.min_flows_per_target) continue;
    if (scores[i] < 0.5) continue;
    ++detections_;
    if (!sink_) continue;
    Detection detection;
    detection.minute = minute;
    detection.target = aggregated.meta[i].target;
    detection.score = scores[i];
    detection.flow_count = aggregated.meta[i].flow_count;
    detection.vector = aggregated.meta[i].dominant_vector;
    for (const std::uint32_t tag : aggregated.meta[i].rule_tags)
      detection.acl_entries.push_back(
          acl_entry(scrubber_.rules().rule_at(tag)));
    sink_(detection);
  }
}

}  // namespace scrubber::core
