#pragma once
// Synthetic IXP traffic generator.
//
// Replaces the paper's proprietary sFlow feed (see DESIGN.md §1). The
// generator pre-schedules DDoS attack events over the requested time range,
// derives the corresponding BGP blackhole announcements/withdrawals (with
// operator noise: detection delay, non-adhering members, spurious
// blackholes), and then streams sampled flows minute by minute. Flow labels
// come from the BlackholeRegistry — *not* from attack ground truth — which
// reproduces the label noise of §3/§4.2: pre-announcement attack flows stay
// unlabeled and benign flows towards blackholed IPs get swept into the
// blackhole class (~12.5% contamination).
//
// Streaming matters: like the paper's online recording, consumers (the
// balancer) can discard unselected flows immediately, so multi-day traces
// never need to be held in memory at once.

#include <functional>
#include <span>
#include <vector>

#include "bgp/blackhole_registry.hpp"
#include "flowgen/profile.hpp"
#include "flowgen/vectors.hpp"
#include "net/flow.hpp"

namespace scrubber::flowgen {

/// Upper bound on one attack's duration (minutes). Bounds the window of
/// attack starts that can affect a given minute, which is what lets
/// minutes generate independently (and therefore in parallel).
inline constexpr std::uint32_t kMaxAttackDurationMin = 120;

/// One scheduled DDoS attack.
struct AttackEvent {
  std::uint32_t start_minute = 0;
  std::uint32_t end_minute = 0;  ///< exclusive
  net::Ipv4Address victim;
  net::DdosVector vector = net::DdosVector::kNtp;
  double flows_per_minute = 0.0;
  bool dst_port_sprayed = true;  ///< random dst ports vs. one popular port
  std::uint16_t fixed_dst_port = 80;
  bool announces_blackhole = false;
  std::uint32_t announce_minute = 0;
  std::uint32_t withdraw_minute = 0;
};

/// Callback receiving each generated minute's flows (labeled, sorted).
using MinuteSink =
    std::function<void(std::uint32_t minute, std::span<const net::FlowRecord>)>;

/// Fully materialized trace for small runs and tests.
struct GeneratedTrace {
  std::vector<net::FlowRecord> flows;
  std::vector<AttackEvent> attacks;
  std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>> updates;
};

/// Streaming synthetic traffic source for one IXP vantage point.
class TrafficGenerator {
 public:
  /// Labeling mode: blackhole-registry labels (production pipeline) or
  /// attack ground truth (self-attack set).
  enum class Labeling { kBlackholeRegistry, kGroundTruth };

  TrafficGenerator(IxpProfile profile, std::uint64_t seed);

  /// Generates minutes [start_minute, start_minute + minutes) and streams
  /// each minute's flows into `sink`.
  ///
  /// Every minute draws from its own RNG stream derived from (seed,
  /// minute), so the trace bytes depend only on the seed and the range —
  /// `threads` > 1 generates minute bins concurrently on worker threads
  /// while this (the calling) thread still invokes `sink` in minute
  /// order. Output is byte-identical for every thread count.
  void generate_stream(std::uint32_t start_minute, std::uint32_t minutes,
                       Labeling labeling, const MinuteSink& sink,
                       unsigned threads = 1);

  /// Schedules the attacks and BGP announcements for the range without
  /// generating any flows. The control plane depends only on (seed,
  /// range), so a wire-listening daemon can pre-draw the exact update
  /// schedule its remote load generator will pace flows against; read the
  /// result from updates()/registry()/attacks().
  void schedule_control_plane(std::uint32_t start_minute,
                              std::uint32_t minutes);

  /// Convenience: materializes the whole trace (use for short ranges).
  [[nodiscard]] GeneratedTrace generate(std::uint32_t start_minute,
                                        std::uint32_t minutes,
                                        Labeling labeling = Labeling::kBlackholeRegistry);

  /// Attack events scheduled by the most recent generate call.
  [[nodiscard]] const std::vector<AttackEvent>& attacks() const noexcept {
    return attacks_;
  }

  /// BGP updates (with their minute) from the most recent generate call.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>>&
  updates() const noexcept {
    return updates_;
  }

  /// Reflector IP of pool `slot` for `vector` during `minute` (exposed so
  /// tests can verify churn and cross-IXP disjointness).
  [[nodiscard]] net::Ipv4Address reflector_ip(net::DdosVector vector,
                                              std::uint32_t slot,
                                              std::uint32_t minute) const noexcept;

  [[nodiscard]] const IxpProfile& profile() const noexcept { return profile_; }

 private:
  void schedule_attacks(std::uint32_t start_minute, std::uint32_t minutes,
                        util::Rng& rng);
  /// Appends minute `minute`'s labeled flows to `out` using the minute's
  /// own derived RNG stream. Const and data-race-free against concurrent
  /// calls for other minutes (reads only the frozen schedule/registry),
  /// which is what the parallel generate_stream path relies on.
  void generate_minute(std::uint32_t minute, Labeling labeling,
                       std::vector<net::FlowRecord>& out) const;
  void emit_benign_flow(std::uint32_t minute, std::vector<net::FlowRecord>& out,
                        util::Rng& rng) const;
  void emit_benign_flow_to(std::uint32_t minute, net::Ipv4Address dst,
                           std::vector<net::FlowRecord>& out,
                           util::Rng& rng) const;
  void emit_attack_flows(std::uint32_t minute, const AttackEvent& attack,
                         std::vector<net::FlowRecord>& out,
                         util::Rng& rng) const;

  [[nodiscard]] net::Ipv4Address member_host(std::uint32_t member,
                                             std::uint32_t host) const noexcept;
  [[nodiscard]] net::Ipv4Address random_victim(util::Rng& rng) const noexcept;
  [[nodiscard]] net::Ipv4Address random_server(util::Rng& rng) const noexcept;
  [[nodiscard]] net::Ipv4Address random_client(util::Rng& rng) const noexcept;
  [[nodiscard]] net::MemberId member_of(net::Ipv4Address ip) const noexcept;
  [[nodiscard]] bool vector_active(net::DdosVector vector,
                                   std::uint32_t minute) const noexcept;

  IxpProfile profile_;
  std::uint64_t seed_;
  bgp::BlackholeRegistry registry_;
  std::vector<AttackEvent> attacks_;
  std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>> updates_;
};

}  // namespace scrubber::flowgen
