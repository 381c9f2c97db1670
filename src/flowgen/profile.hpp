#pragma once
// IXP vantage-point profiles.
//
// Each profile parameterizes the synthetic substrate for one of the five
// IXPs of §4.1 (relative scale follows Table 2: IXP-CE1 is by far the
// largest, IXP-CE2 the smallest and rarely blackholed) plus the self-attack
// setup of §4.1. Flow volumes are scaled down ~1:300 against the paper's
// multi-terabyte traces so every experiment runs on a laptop while
// preserving the distributional shape (blackhole share < 0.8% of traffic,
// heavy-tailed attack intensities, per-IXP disjoint reflector pools).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocols.hpp"

namespace scrubber::flowgen {

/// Configuration of one synthetic IXP vantage point.
struct IxpProfile {
  std::string name;

  // --- topology ---
  std::uint32_t member_count = 200;       ///< connected ASes / member ports
  std::uint32_t victims_per_member = 6;   ///< potential DDoS targets per member
  std::uint32_t servers_per_member = 24;  ///< benign service hosts per member
  std::uint32_t client_pool = 50000;      ///< benign remote client IP pool

  // --- benign traffic ---
  double benign_flows_per_minute = 500.0;
  double benign_ddos_port_share = 0.075;  ///< Fig 4a: ~7.5% well-known DDoS ports
  double benign_fragment_share = 0.004;   ///< small UDP-fragment background

  // --- attacks ---
  double attacks_per_day = 20.0;
  double attack_duration_mean_min = 9.0;        ///< exponential mean, minutes
  double attack_flows_per_minute_scale = 25.0;  ///< Pareto scale (xm)
  double attack_flows_per_minute_shape = 1.6;   ///< Pareto shape (alpha)
  double benign_victim_flow_fraction = 0.13;    ///< benign share reaching victims

  // --- reflectors ---
  std::uint32_t reflectors_per_vector = 400;  ///< pool size per vector
  double reflector_churn_weeks = 6.0;         ///< mean reflector lifetime
  std::uint64_t reflector_universe_seed = 1;  ///< per-IXP pool decorrelation

  // --- blackholing behavior ---
  double blackhole_probability = 0.85;   ///< victim AS announces a blackhole
  double announce_delay_mean_min = 1.5;  ///< detection delay before announcing
  double withdraw_delay_mean_min = 12.0; ///< lag after the attack ends
  double spurious_blackhole_per_day = 0.3;  ///< blackholes on unattacked IPs

  // --- drift ---
  /// First week (from absolute minute 0) a vector appears at this IXP;
  /// vectors absent from the map are active from week 0.
  std::map<net::DdosVector, std::uint32_t> vector_onset_week;

  /// Deterministic per-IXP seed folded into all address pools.
  [[nodiscard]] std::uint64_t pool_seed() const noexcept {
    return reflector_universe_seed;
  }
};

/// The five evaluation IXPs of §4.1, scaled down for laptop-scale runs.
[[nodiscard]] IxpProfile ixp_ce1();  ///< central Europe, very large (>800 ASes)
[[nodiscard]] IxpProfile ixp_us1();  ///< US east coast, large
[[nodiscard]] IxpProfile ixp_se();   ///< southern Europe, mid (2-year dataset)
[[nodiscard]] IxpProfile ixp_us2();  ///< US south, small, rare blackholing
[[nodiscard]] IxpProfile ixp_ce2();  ///< central Europe, smallest

/// IXP-SE variant with staged vector onsets for the §6.5 new-vector study
/// (SNMP appears at week 10, SSDP at week 14, memcached at week 40).
[[nodiscard]] IxpProfile ixp_se_longitudinal();

/// All five standard profiles in Table 2 order (CE1, US1, SE, US2, CE2).
[[nodiscard]] std::vector<IxpProfile> all_ixp_profiles();

/// Profile of the self-attack experiment (§4.1): a dedicated victim AS,
/// disjoint reflector universe, pure attack + contemporaneous benign data.
[[nodiscard]] IxpProfile self_attack_profile();

/// The profile a command line names: a standard profile's name in lower
/// case with or without its "ixp-" prefix ("se", "ixp-se"), or "sas" for
/// the self-attack profile. Throws std::runtime_error on any other name.
[[nodiscard]] IxpProfile profile_by_name(const std::string& name);

}  // namespace scrubber::flowgen
