#include "flowgen/profile.hpp"

#include <cctype>
#include <stdexcept>

namespace scrubber::flowgen {

IxpProfile ixp_ce1() {
  IxpProfile p;
  p.name = "IXP-CE1";
  p.member_count = 800;
  p.victims_per_member = 8;
  p.servers_per_member = 30;
  p.client_pool = 120000;
  p.benign_flows_per_minute = 2200.0;
  p.attacks_per_day = 110.0;
  p.attack_flows_per_minute_scale = 30.0;
  p.reflectors_per_vector = 700;
  p.reflector_universe_seed = 0xCE1;
  p.blackhole_probability = 0.88;
  return p;
}

IxpProfile ixp_us1() {
  IxpProfile p;
  p.name = "IXP-US1";
  p.member_count = 250;
  p.benign_flows_per_minute = 420.0;
  p.attacks_per_day = 28.0;
  p.attack_flows_per_minute_scale = 14.0;
  p.reflectors_per_vector = 420;
  p.reflector_universe_seed = 0x0051;
  p.blackhole_probability = 0.85;
  return p;
}

IxpProfile ixp_se() {
  IxpProfile p;
  p.name = "IXP-SE";
  p.member_count = 209;
  p.benign_flows_per_minute = 210.0;
  p.attacks_per_day = 14.0;
  p.attack_flows_per_minute_scale = 10.0;
  p.reflectors_per_vector = 320;
  p.reflector_universe_seed = 0x005E;
  p.blackhole_probability = 0.86;
  return p;
}

IxpProfile ixp_us2() {
  IxpProfile p;
  p.name = "IXP-US2";
  p.member_count = 103;
  p.benign_flows_per_minute = 160.0;
  p.attacks_per_day = 2.2;
  p.attack_flows_per_minute_scale = 8.0;
  p.reflectors_per_vector = 180;
  p.reflector_universe_seed = 0x0052;
  p.blackhole_probability = 0.55;  // members rarely adhere to blackholing
  p.spurious_blackhole_per_day = 0.2;
  return p;
}

IxpProfile ixp_ce2() {
  IxpProfile p;
  p.name = "IXP-CE2";
  p.member_count = 211;
  p.benign_flows_per_minute = 120.0;
  p.attacks_per_day = 0.9;
  p.attack_flows_per_minute_scale = 7.0;
  p.reflectors_per_vector = 140;
  p.reflector_universe_seed = 0xCE2;
  p.blackhole_probability = 0.5;
  p.spurious_blackhole_per_day = 0.1;
  return p;
}

IxpProfile ixp_se_longitudinal() {
  IxpProfile p = ixp_se();
  p.name = "IXP-SE";
  p.vector_onset_week[net::DdosVector::kSnmp] = 10;
  p.vector_onset_week[net::DdosVector::kSsdp] = 14;
  p.vector_onset_week[net::DdosVector::kMemcached] = 40;
  return p;
}

std::vector<IxpProfile> all_ixp_profiles() {
  return {ixp_ce1(), ixp_us1(), ixp_se(), ixp_us2(), ixp_ce2()};
}

IxpProfile self_attack_profile() {
  IxpProfile p;
  p.name = "SAS";
  p.member_count = 40;
  p.victims_per_member = 2;
  p.benign_flows_per_minute = 320.0;
  // Controlled experiment: frequent short attacks on a dedicated AS, all
  // "labeled" by construction (ground truth, not blackholing).
  p.attacks_per_day = 220.0;
  p.attack_duration_mean_min = 4.0;  // booter packages run < 5 minutes
  p.attack_flows_per_minute_scale = 14.0;  // booter packages are small (<7 Gbps)
  p.reflectors_per_vector = 260;
  p.reflector_universe_seed = 0x5A5;  // disjoint reflector universe
  p.blackhole_probability = 1.0;
  p.announce_delay_mean_min = 0.0;   // ground truth: no detection delay
  p.withdraw_delay_mean_min = 0.0;
  p.spurious_blackhole_per_day = 0.0;
  return p;
}

IxpProfile profile_by_name(const std::string& name) {
  for (const auto& profile : all_ixp_profiles()) {
    std::string lowered = profile.name;  // "IXP-US1" -> accept "us1"
    for (auto& c : lowered) c = static_cast<char>(std::tolower(c));
    if (lowered == "ixp-" + name || lowered == name) return profile;
  }
  if (name == "sas") return self_attack_profile();
  throw std::runtime_error("unknown profile: " + name +
                           " (use ce1/us1/se/us2/ce2/sas)");
}

}  // namespace scrubber::flowgen
