#pragma once
// Operational detection loop: continuous learning + streaming detection.
//
// LiveDetector packages the deployment recipe the paper's evaluation
// arrives at: labeled (blackholing) traffic is balanced online and kept in
// a sliding training window; the two-step model (tagging rules + WoE +
// XGB classifier) is retrained on a schedule (§6.3 recommends daily retraining
// over the trailing month); and every live minute is aggregated and scored,
// emitting detections with ready-to-push ACL entries for targets above a
// minimum traffic threshold (classifying every single-flow target would
// turn any nonzero false-positive rate into alert floods, §6.1).

#include <deque>
#include <functional>
#include <optional>

#include "core/acl.hpp"
#include "core/balancer.hpp"
#include "core/scrubber.hpp"

namespace scrubber::core {

/// Deployment configuration.
struct LiveDetectorConfig {
  std::uint32_t min_flows_per_target = 8;    ///< detection traffic threshold
  std::uint32_t retrain_interval_min = 24 * 60;      ///< daily (paper §6.3)
  std::uint32_t training_window_min = 28 * 24 * 60;  ///< trailing month
  std::uint32_t warmup_min = 24 * 60;  ///< data collected before first training
  std::uint64_t seed = 77;
  /// Workers for the per-minute parallel feature build (0 = full training
  /// pool); output is bit-identical for any value.
  unsigned agg_threads = 0;
};

/// One detection event.
struct Detection {
  std::uint32_t minute = 0;
  net::Ipv4Address target;
  double score = 0.0;
  std::uint32_t flow_count = 0;
  std::optional<net::DdosVector> vector;
  std::vector<std::string> acl_entries;  ///< deployable filters, may be empty
};

/// Streaming detector with scheduled retraining.
class LiveDetector {
 public:
  using DetectionSink = std::function<void(const Detection&)>;

  LiveDetector(LiveDetectorConfig config, DetectionSink sink);

  /// Feeds one minute of labeled live traffic. Flows are (i) balanced into
  /// the sliding training window and (ii) — once a model is trained —
  /// aggregated and scored for detection.
  void ingest_minute(std::uint32_t minute, std::span<const net::FlowRecord> flows);

  /// True once the first model has been trained.
  [[nodiscard]] bool ready() const noexcept { return scrubber_.trained(); }

  /// Forces a retrain on the current window (otherwise scheduled).
  void retrain(std::uint32_t now_minute);

  [[nodiscard]] const IxpScrubber& scrubber() const noexcept { return scrubber_; }

  // --- statistics ---
  [[nodiscard]] std::uint64_t minutes_processed() const noexcept {
    return minutes_processed_;
  }
  [[nodiscard]] std::uint64_t detections() const noexcept { return detections_; }
  [[nodiscard]] std::uint32_t retrain_count() const noexcept {
    return retrain_count_;
  }
  [[nodiscard]] std::size_t window_flows() const noexcept;

 private:
  void evict_window(std::uint32_t now_minute);

  LiveDetectorConfig config_;
  DetectionSink sink_;
  IxpScrubber scrubber_;
  std::deque<std::pair<std::uint32_t, std::vector<net::FlowRecord>>> window_;
  std::optional<std::uint32_t> first_minute_;
  std::uint32_t last_retrain_minute_ = 0;
  std::uint64_t minutes_processed_ = 0;
  std::uint64_t detections_ = 0;
  std::uint32_t retrain_count_ = 0;
};

}  // namespace scrubber::core
