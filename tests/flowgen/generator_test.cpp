#include "flowgen/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/stats.hpp"

namespace scrubber::flowgen {
namespace {

using Labeling = TrafficGenerator::Labeling;

constexpr std::uint32_t kDay = 24 * 60;

IxpProfile small_profile() {
  IxpProfile p = ixp_us1();
  p.benign_flows_per_minute = 120.0;
  p.attacks_per_day = 40.0;
  return p;
}

TEST(Generator, DeterministicForSeed) {
  TrafficGenerator a(small_profile(), 42);
  TrafficGenerator b(small_profile(), 42);
  const auto trace_a = a.generate(0, 120);
  const auto trace_b = b.generate(0, 120);
  EXPECT_EQ(trace_a.flows, trace_b.flows);
  EXPECT_EQ(trace_a.attacks.size(), trace_b.attacks.size());
}

TEST(Generator, DifferentSeedsDiffer) {
  TrafficGenerator a(small_profile(), 1);
  TrafficGenerator b(small_profile(), 2);
  EXPECT_NE(a.generate(0, 60).flows, b.generate(0, 60).flows);
}

TEST(Generator, FlowsSortedByMinuteWithinRange) {
  TrafficGenerator gen(small_profile(), 3);
  const auto trace = gen.generate(100, 60);
  std::uint32_t last = 0;
  for (const auto& flow : trace.flows) {
    EXPECT_GE(flow.minute, 100u);
    EXPECT_LT(flow.minute, 160u);
    EXPECT_GE(flow.minute, last);
    last = flow.minute;
  }
}

TEST(Generator, StreamMatchesMaterialized) {
  TrafficGenerator a(small_profile(), 4);
  TrafficGenerator b(small_profile(), 4);
  const auto trace = a.generate(0, 60);
  std::vector<net::FlowRecord> streamed;
  b.generate_stream(0, 60, Labeling::kBlackholeRegistry,
                    [&](std::uint32_t, std::span<const net::FlowRecord> flows) {
                      streamed.insert(streamed.end(), flows.begin(), flows.end());
                    });
  EXPECT_EQ(trace.flows, streamed);
}

// Parallel generation must be invisible: any thread count, and any number
// of regenerations with the same seed, produce the same trace bytes (the
// wire serialization, not just value equality). This test is part of the
// TSan CI config, which also checks the worker handoff for data races.
TEST(Generator, ThreadedStreamByteIdenticalForAnyThreadCount) {
  const auto bytes_with_threads = [](unsigned threads) {
    TrafficGenerator gen(small_profile(), 11);
    std::vector<net::FlowRecord> flows;
    std::uint32_t next_minute = 0;
    gen.generate_stream(
        0, 48, Labeling::kBlackholeRegistry,
        [&](std::uint32_t minute, std::span<const net::FlowRecord> batch) {
          EXPECT_EQ(minute, next_minute++);  // sink stays in minute order
          flows.insert(flows.end(), batch.begin(), batch.end());
        },
        threads);
    EXPECT_EQ(next_minute, 48u);
    std::ostringstream out;
    net::write_flows(out, flows);
    return out.str();
  };

  const std::string serial = bytes_with_threads(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, bytes_with_threads(2));
  EXPECT_EQ(serial, bytes_with_threads(8));
  // Oversubscribed relative to the 48-minute range: more workers than the
  // 4*threads window can ever fill concurrently.
  EXPECT_EQ(serial, bytes_with_threads(64));
  // Same-seed regeneration (fresh generator object) is also identical.
  EXPECT_EQ(serial, bytes_with_threads(2));
}

TEST(Generator, ThreadedStreamPropagatesSinkExceptions) {
  TrafficGenerator gen(small_profile(), 12);
  std::uint32_t delivered = 0;
  EXPECT_THROW(
      gen.generate_stream(
          0, 32, Labeling::kBlackholeRegistry,
          [&](std::uint32_t minute, std::span<const net::FlowRecord>) {
            if (minute == 5) throw std::runtime_error("sink failed");
            ++delivered;
          },
          4),
      std::runtime_error);
  EXPECT_EQ(delivered, 5u);  // minutes 0..4, then the throw stopped the run
}

TEST(Generator, BlackholeShareIsSmall) {
  // Figure 3a: blackholing traffic is a tiny share of total bytes.
  TrafficGenerator gen(ixp_us1(), 5);
  const auto trace = gen.generate(0, kDay);
  std::uint64_t total = 0, blackholed = 0;
  for (const auto& flow : trace.flows) {
    total += flow.bytes;
    if (flow.blackholed) blackholed += flow.bytes;
  }
  const double share = static_cast<double>(blackholed) / static_cast<double>(total);
  EXPECT_GT(share, 0.0);
  EXPECT_LT(share, 0.05);
}

TEST(Generator, LabelsComeFromRegistryNotGroundTruth) {
  // Attacks without a blackhole announcement must stay unlabeled.
  IxpProfile profile = small_profile();
  profile.blackhole_probability = 0.0;
  profile.spurious_blackhole_per_day = 0.0;
  TrafficGenerator gen(profile, 6);
  const auto trace = gen.generate(0, kDay);
  for (const auto& flow : trace.flows) EXPECT_FALSE(flow.blackholed);
  EXPECT_GT(trace.attacks.size(), 0u);
}

TEST(Generator, AnnouncementDelayLeavesEarlyAttackFlowsUnlabeled) {
  IxpProfile profile = small_profile();
  profile.announce_delay_mean_min = 10.0;  // long detection delay
  profile.spurious_blackhole_per_day = 0.0;
  TrafficGenerator gen(profile, 7);
  const auto trace = gen.generate(0, kDay);
  // Some reflector-sourced flows (128.0.0.0/2) are not blackholed because
  // the announcement lagged: exactly the §3 label noise.
  std::size_t unlabeled_attack_flows = 0;
  for (const auto& flow : trace.flows) {
    if ((flow.src_ip.value() >> 30) == 2 && !flow.blackholed)
      ++unlabeled_attack_flows;
  }
  EXPECT_GT(unlabeled_attack_flows, 0u);
}

TEST(Generator, BlackholeClassContainsBenignTraffic) {
  // §4.2: attacked IPs receive benign and attack traffic; both get swept
  // into the blackhole class.
  TrafficGenerator gen(small_profile(), 8);
  const auto trace = gen.generate(0, kDay);
  std::size_t bh_total = 0, bh_benign = 0;
  for (const auto& flow : trace.flows) {
    if (!flow.blackholed) continue;
    ++bh_total;
    if ((flow.src_ip.value() >> 30) != 2) ++bh_benign;  // not a reflector
  }
  ASSERT_GT(bh_total, 0u);
  const double benign_share = static_cast<double>(bh_benign) / bh_total;
  EXPECT_GT(benign_share, 0.02);
  EXPECT_LT(benign_share, 0.30);  // paper: up to ~12.5%
}

TEST(Generator, GroundTruthLabelingMarksReflectorFlows) {
  TrafficGenerator gen(self_attack_profile(), 9);
  const auto trace = gen.generate(0, 6 * 60, Labeling::kGroundTruth);
  std::size_t attack = 0;
  for (const auto& flow : trace.flows) {
    EXPECT_EQ(flow.blackholed, (flow.src_ip.value() >> 30) == 2);
    attack += flow.blackholed;
  }
  EXPECT_GT(attack, 0u);
}

TEST(Generator, UpdatesDriveRegistry) {
  TrafficGenerator gen(small_profile(), 10);
  (void)gen.generate(0, kDay);
  EXPECT_GT(gen.updates().size(), 0u);
  // Every update must round-trip the BGP wire format.
  for (const auto& [minute, update] : gen.updates()) {
    const auto decoded = bgp::UpdateMessage::decode(update.encode());
    EXPECT_EQ(decoded, update);
  }
  // Registry must contain at least one interval per announced attack
  // (spurious blackholes add more; repeat victims may merge intervals).
  std::size_t announced = 0;
  for (const auto& attack : gen.attacks()) announced += attack.announces_blackhole;
  EXPECT_GT(announced, 0u);
  EXPECT_GT(gen.registry().interval_count(), announced / 2);
}

TEST(Generator, AttackVectorsFollowPrevalence) {
  TrafficGenerator gen(ixp_ce1(), 11);
  (void)gen.generate(0, 7 * kDay);
  std::size_t ntp = 0, rare = 0;
  for (const auto& attack : gen.attacks()) {
    if (attack.vector == net::DdosVector::kNtp) ++ntp;
    if (attack.vector == net::DdosVector::kTftp) ++rare;
  }
  EXPECT_GT(ntp, rare);
}

TEST(Generator, VectorOnsetRespected) {
  // Strip the profile down so a full year of schedule is cheap to emit.
  IxpProfile profile = ixp_se_longitudinal();
  profile.attacks_per_day = 40.0;
  profile.benign_flows_per_minute = 0.0;
  profile.attack_duration_mean_min = 1.0;
  profile.attack_flows_per_minute_scale = 1.0;
  TrafficGenerator gen(profile, 12);
  (void)gen.generate(0, 52 * 7 * kDay);  // one year
  ASSERT_GT(gen.attacks().size(), 1000u);
  // memcached onset is week 40, SNMP week 10: nothing before.
  for (const auto& attack : gen.attacks()) {
    if (attack.vector == net::DdosVector::kMemcached) {
      EXPECT_GE(attack.start_minute / (7 * kDay), 40u);
    }
    if (attack.vector == net::DdosVector::kSnmp) {
      EXPECT_GE(attack.start_minute / (7 * kDay), 10u);
    }
  }
}

TEST(Generator, ReflectorPoolsChurnOverTime) {
  TrafficGenerator gen(ixp_us1(), 13);
  const std::uint32_t week = 7 * kDay;
  std::size_t same = 0, total = 0;
  for (std::uint32_t slot = 0; slot < 200; ++slot) {
    const auto now = gen.reflector_ip(net::DdosVector::kNtp, slot, 0);
    const auto later = gen.reflector_ip(net::DdosVector::kNtp, slot, 26 * week);
    same += (now == later);
    ++total;
  }
  // After half a year almost every reflector should have rotated
  // (lifetime ~6 weeks), but within the same week they are stable.
  EXPECT_LT(static_cast<double>(same) / total, 0.2);
  for (std::uint32_t slot = 0; slot < 50; ++slot) {
    EXPECT_EQ(gen.reflector_ip(net::DdosVector::kNtp, slot, 100),
              gen.reflector_ip(net::DdosVector::kNtp, slot, 101));
  }
}

TEST(Generator, ReflectorPoolsDisjointAcrossIxps) {
  // §6.4 / Figure 12 (middle): reflector overlap between IXPs is tiny.
  TrafficGenerator a(ixp_ce1(), 14);
  TrafficGenerator b(ixp_us1(), 14);
  std::unordered_set<std::uint32_t> pool_a;
  for (std::uint32_t slot = 0; slot < 400; ++slot)
    pool_a.insert(a.reflector_ip(net::DdosVector::kNtp, slot, 0).value());
  std::size_t overlap = 0;
  for (std::uint32_t slot = 0; slot < 400; ++slot)
    overlap += pool_a.count(b.reflector_ip(net::DdosVector::kNtp, slot, 0).value());
  EXPECT_LT(overlap, 4u);
}

TEST(Generator, BenignDdosPortShareNearTarget) {
  // Figure 4a: ~7.5% of benign flows carry well-known DDoS ports.
  TrafficGenerator gen(ixp_us1(), 15);
  const auto trace = gen.generate(0, kDay);
  std::size_t benign = 0, ddos_port = 0;
  for (const auto& flow : trace.flows) {
    if (flow.blackholed) continue;
    ++benign;
    ddos_port += flow.vector().has_value();
  }
  const double share = static_cast<double>(ddos_port) / benign;
  EXPECT_GT(share, 0.03);
  EXPECT_LT(share, 0.15);
}

TEST(Generator, ProfilesScaleAsTable2) {
  // CE1 must dwarf CE2 in traffic and attacks, as in Table 2.
  EXPECT_GT(ixp_ce1().benign_flows_per_minute, ixp_ce2().benign_flows_per_minute * 5);
  EXPECT_GT(ixp_ce1().attacks_per_day, ixp_ce2().attacks_per_day * 20);
  EXPECT_EQ(all_ixp_profiles().size(), 5u);
  std::set<std::string> names;
  for (const auto& p : all_ixp_profiles()) names.insert(p.name);
  EXPECT_EQ(names.size(), 5u);
}

TEST(Generator, ProfileByNameResolvesCommandLineNames) {
  EXPECT_EQ(profile_by_name("se").name, "IXP-SE");
  EXPECT_EQ(profile_by_name("ixp-se").name, "IXP-SE");
  EXPECT_EQ(profile_by_name("ce1").name, ixp_ce1().name);
  EXPECT_EQ(profile_by_name("sas").name, self_attack_profile().name);
  EXPECT_THROW((void)profile_by_name("xx"), std::runtime_error);
}

TEST(Generator, MemberIdsStable) {
  TrafficGenerator gen(ixp_us1(), 16);
  const auto trace = gen.generate(0, 30);
  // The same source IP always enters via the same member port.
  std::unordered_map<std::uint32_t, net::MemberId> seen;
  for (const auto& flow : trace.flows) {
    const auto [it, inserted] = seen.emplace(flow.src_ip.value(), flow.src_member);
    if (!inserted) {
      EXPECT_EQ(it->second, flow.src_member);
    }
  }
}

}  // namespace
}  // namespace scrubber::flowgen
