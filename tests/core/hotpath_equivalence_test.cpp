// Bit-identity of the flattened hot path against the pre-flattening
// implementations kept in tests/oracles/legacy_flow.hpp:
//
//   * FlowCache (util::FlatHash, insertion-order drain) vs the legacy
//     std::unordered_map + explicit order-counter cache — drain_before
//     must return the same FlowRecords in the same order.
//   * Aggregator (index sort + flat tallies + bounded top-k + parallel
//     feature build) vs the legacy std::map group-by with per-metric full
//     sorts — the feature matrix must be byte-equal (memcmp, so NaN
//     patterns count too) and labels/meta identical, at every thread
//     count (1, 2, 3, 8). This is the DESIGN.md §10 determinism contract
//     for the serving-path feature build.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "../oracles/legacy_flow.hpp"
#include "core/aggregator.hpp"
#include "core/balancer.hpp"
#include "flowgen/generator.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace scrubber {
namespace {

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

std::vector<net::PacketHeader> synth_packets(std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::PacketHeader> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::PacketHeader p;
    // Small key spaces force heavy flow aggregation and hash collisions.
    p.timestamp_ms = rng.below(8) * 60000 + rng.below(60000);
    p.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng.below(64)));
    p.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng.below(16)));
    p.src_port = static_cast<std::uint16_t>(rng.below(128));
    p.dst_port = static_cast<std::uint16_t>(rng.below(32));
    p.protocol = rng.chance(0.7) ? 17 : 6;
    p.tcp_flags = static_cast<std::uint8_t>(rng.below(64));
    p.length = static_cast<std::uint16_t>(64 + rng.below(1400));
    p.ingress_member = static_cast<net::MemberId>(rng.below(12));
    packets.push_back(p);
  }
  return packets;
}

arm::RuleSet ntp_dns_rules() {
  arm::MinedRule ntp;
  ntp.antecedent = {arm::Item(arm::Attribute::kProtocol, 17),
                    arm::Item(arm::Attribute::kSrcPort, 123)};
  std::sort(ntp.antecedent.begin(), ntp.antecedent.end());
  ntp.consequent = arm::kBlackholeItem;
  ntp.confidence = 0.95;
  ntp.support = 0.1;
  arm::MinedRule dns;
  dns.antecedent = {arm::Item(arm::Attribute::kProtocol, 17),
                    arm::Item(arm::Attribute::kSrcPort, 53)};
  std::sort(dns.antecedent.begin(), dns.antecedent.end());
  dns.consequent = arm::kBlackholeItem;
  dns.confidence = 0.93;
  dns.support = 0.08;
  arm::RuleSet rules = arm::RuleSet::from_mined({ntp, dns});
  for (auto& rule : rules.rules()) rule.status = arm::RuleStatus::kAccepted;
  return rules;
}

void expect_identical(const core::AggregatedDataset& got,
                      const core::AggregatedDataset& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.data.n_cols(), want.data.n_cols());
  // Byte equality: NaN missing-markers compare equal by bit pattern.
  const auto& got_raw = got.data.raw();
  const auto& want_raw = want.data.raw();
  ASSERT_EQ(got_raw.size(), want_raw.size());
  EXPECT_EQ(std::memcmp(got_raw.data(), want_raw.data(),
                        got_raw.size() * sizeof(double)),
            0)
      << "feature matrix bytes differ";
  EXPECT_EQ(got.data.labels(), want.data.labels());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.meta[i].minute, want.meta[i].minute) << "row " << i;
    EXPECT_EQ(got.meta[i].target.value(), want.meta[i].target.value())
        << "row " << i;
    EXPECT_EQ(got.meta[i].flow_count, want.meta[i].flow_count) << "row " << i;
    EXPECT_EQ(got.meta[i].rule_tags, want.meta[i].rule_tags) << "row " << i;
    EXPECT_EQ(got.meta[i].dominant_vector, want.meta[i].dominant_vector)
        << "row " << i;
  }
}

// --------------------------------------------------------------------------
// Tests
// --------------------------------------------------------------------------

TEST(HotPathEquivalence, FlowCacheDrainMatchesLegacyOrderCounter) {
  net::FlowCache flat(10);
  oracle::LegacyFlowCache legacy(10);
  const auto packets = synth_packets(20000, 0xF10C);
  // Interleave adds with partial drains to exercise tombstones + compaction.
  const std::array<std::uint32_t, 4> barriers{2, 4, 5, 7};
  const std::size_t chunk = packets.size() / (barriers.size() + 1);
  std::size_t fed = 0;
  // Conservation: every sampled packet lands in exactly one drained
  // record, scaled by the 1-in-10 sampling rate.
  std::uint64_t drained_packets = 0;
  const auto count = [&](const std::vector<net::FlowRecord>& flows) {
    for (const auto& flow : flows) drained_packets += flow.packets;
  };
  for (const std::uint32_t barrier : barriers) {
    for (const std::size_t until = fed + chunk; fed < until; ++fed) {
      flat.add(packets[fed]);
      legacy.add(packets[fed]);
    }
    const auto drained = flat.drain_before(barrier);
    count(drained);
    EXPECT_EQ(drained, legacy.drain_before(barrier))
        << "barrier minute " << barrier;
  }
  for (; fed < packets.size(); ++fed) {
    flat.add(packets[fed]);
    legacy.add(packets[fed]);
  }
  const auto flat_rest =
      flat.drain_before(std::numeric_limits<std::uint32_t>::max());
  const auto legacy_rest = legacy.drain_before(
      std::numeric_limits<std::uint32_t>::max());
  EXPECT_FALSE(flat_rest.empty());
  EXPECT_EQ(flat_rest, legacy_rest);
  count(flat_rest);
  EXPECT_EQ(drained_packets, packets.size() * 10);
}

TEST(HotPathEquivalence, AggregateMatchesLegacyAtEveryThreadCount) {
  // A realistic slice: the self-attack trace (dense ground-truth attacks,
  // so balancing yields a substantial two-class set), balanced like
  // training does.
  flowgen::TrafficGenerator generator(flowgen::self_attack_profile(), 555);
  const auto trace = generator.generate(
      0, 240, flowgen::TrafficGenerator::Labeling::kGroundTruth);
  const auto balanced = core::balance_trace(trace.flows, 99);
  ASSERT_GT(balanced.size(), 100u);
  const arm::RuleSet rules = ntp_dns_rules();

  const auto want = oracle::legacy_aggregate(balanced, &rules);
  ASSERT_GT(want.size(), 10u);

  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    core::Aggregator aggregator;
    aggregator.set_threads(threads);
    const auto got = aggregator.aggregate(balanced, &rules);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(got, want);
  }

  // The raw (unbalanced) slice exercises much larger groups; no rules.
  const auto raw_want = oracle::legacy_aggregate(trace.flows, nullptr);
  for (const unsigned threads : {1u, 3u}) {
    core::Aggregator aggregator;
    aggregator.set_threads(threads);
    SCOPED_TRACE("raw threads=" + std::to_string(threads));
    expect_identical(aggregator.aggregate(trace.flows), raw_want);
  }
}

TEST(HotPathEquivalence, BalancerStatsUnchangedByFlatGrouping) {
  // The balancer's per-IP grouping moved to FlatHash chains; selection
  // counts and totals are driven by sorted rankings, so they must be
  // independent of the grouping container. (Checked against recorded
  // invariants rather than an embedded legacy copy: every blackholed flow
  // kept, benign selection flow-matched, stats consistent.)
  flowgen::TrafficGenerator generator(flowgen::self_attack_profile(), 0xBA1);
  const auto trace = generator.generate(
      0, 120, flowgen::TrafficGenerator::Labeling::kGroundTruth);
  core::BalanceTotals totals;
  const auto balanced = core::balance_trace(trace.flows, 4321, &totals);
  EXPECT_EQ(balanced.size(), totals.balanced_flows);
  EXPECT_GT(totals.balanced_blackhole_flows, 0u);
  EXPECT_GT(totals.blackhole_share(), 0.40);
  EXPECT_LT(totals.blackhole_share(), 0.60);
  // Every blackholed input flow survives balancing.
  std::size_t input_blackholed = 0;
  for (const auto& flow : trace.flows) input_blackholed += flow.blackholed;
  std::size_t output_blackholed = 0;
  for (const auto& flow : balanced) output_blackholed += flow.blackholed;
  EXPECT_EQ(output_blackholed, input_blackholed);
  EXPECT_EQ(output_blackholed, totals.balanced_blackhole_flows);
}

}  // namespace
}  // namespace scrubber
