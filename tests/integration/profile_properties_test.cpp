// Parameterized property sweep over all five IXP profiles: the invariants
// the pipeline relies on must hold at every vantage point, not just the
// ones the other tests happen to use.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>

#include "core/aggregator.hpp"
#include "core/balancer.hpp"
#include "flowgen/generator.hpp"

namespace scrubber {
namespace {

struct ProfileCase {
  flowgen::IxpProfile profile;
  std::uint32_t minutes;
};

class AllProfiles : public ::testing::TestWithParam<ProfileCase> {
 protected:
  static constexpr std::uint64_t kSeed = 2024;
};

/// Index of the column called `name`.
std::size_t column(const ml::Dataset& data, std::string_view name) {
  const auto& cols = data.columns();
  const auto it = std::find_if(cols.begin(), cols.end(),
                               [name](const auto& c) { return c.name == name; });
  if (it == cols.end()) throw std::out_of_range(std::string(name));
  return static_cast<std::size_t>(it - cols.begin());
}

TEST_P(AllProfiles, RawTraceInvariants) {
  flowgen::TrafficGenerator gen(GetParam().profile, kSeed);
  const auto trace = gen.generate(0, GetParam().minutes);
  ASSERT_FALSE(trace.flows.empty());
  for (const auto& flow : trace.flows) {
    EXPECT_GT(flow.packets, 0u);
    EXPECT_GT(flow.bytes, 0u);
    // Mean packet size within physical bounds.
    const double size = flow.mean_packet_size();
    EXPECT_GE(size, 20.0);
    EXPECT_LE(size, 1500.0 * 1.01);
    // Member ids within the profile's port count for member-space sources.
    EXPECT_LT(flow.src_member, GetParam().profile.member_count);
  }
}

TEST_P(AllProfiles, LabelsConsistentWithRegistry) {
  flowgen::TrafficGenerator gen(GetParam().profile, kSeed);
  const auto trace = gen.generate(0, GetParam().minutes);
  bgp::BlackholeRegistry registry;
  for (const auto& [minute, update] : trace.updates) {
    registry.apply(update, minute);
  }
  for (const auto& flow : trace.flows) {
    EXPECT_EQ(flow.blackholed, registry.is_blackholed(flow.dst_ip, flow.minute));
  }
}

TEST_P(AllProfiles, BalancerInvariants) {
  flowgen::TrafficGenerator gen(GetParam().profile, kSeed);
  core::Balancer balancer(7);
  gen.generate_stream(0, GetParam().minutes,
                      flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
                      [&](std::uint32_t m, std::span<const net::FlowRecord> f) {
                        balancer.add_minute(m, f);
                      });
  const auto& totals = balancer.totals();
  // Balanced output is a subset of the input.
  EXPECT_LE(totals.balanced_flows, totals.raw_flows);
  if (totals.balanced_flows == 0) {
    GTEST_SKIP() << "no blackholed traffic in this horizon";
  }
  // Class mix within the paper's tolerance band, heavy data reduction.
  EXPECT_GE(totals.blackhole_share(), 0.40);
  EXPECT_LE(totals.blackhole_share(), 0.80);
  EXPECT_LT(totals.reduction_ratio(), 0.25);
  // Every kept blackholed flow really was in the input as blackholed.
  std::size_t bh = 0;
  for (const auto& flow : balancer.balanced()) bh += flow.blackholed;
  EXPECT_EQ(bh, totals.balanced_blackhole_flows);
}

TEST_P(AllProfiles, AggregatorInvariants) {
  flowgen::TrafficGenerator gen(GetParam().profile, kSeed);
  core::Balancer balancer(7);
  gen.generate_stream(0, GetParam().minutes,
                      flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
                      [&](std::uint32_t m, std::span<const net::FlowRecord> f) {
                        balancer.add_minute(m, f);
                      });
  const auto flows = balancer.take_balanced();
  if (flows.empty()) GTEST_SKIP() << "no balanced flows";
  const core::Aggregator aggregator;
  const auto aggregated = aggregator.aggregate(flows);

  // Every (minute, target) of the input appears exactly once.
  std::unordered_set<std::uint64_t> keys;
  for (const auto& flow : flows) {
    keys.insert((std::uint64_t{flow.minute} << 32) | flow.dst_ip.value());
  }
  EXPECT_EQ(aggregated.size(), keys.size());

  // Ranking metric columns are non-increasing across ranks.
  const auto& data = aggregated.data;
  const std::size_t c0 = column(data, "port_src/bytes/0/val");
  const std::size_t c1 = column(data, "port_src/bytes/1/val");
  const std::size_t c2 = column(data, "port_src/bytes/2/val");
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    const double v0 = data.at(i, c0);
    const double v1 = data.at(i, c1);
    const double v2 = data.at(i, c2);
    if (!ml::is_missing(v1)) {
      EXPECT_GE(v0, v1);
    }
    if (!ml::is_missing(v2)) {
      EXPECT_GE(v1, v2);
    }
  }

  // Flow counts in metadata add up to the input size.
  std::uint64_t flow_total = 0;
  for (const auto& meta : aggregated.meta) flow_total += meta.flow_count;
  EXPECT_EQ(flow_total, flows.size());
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, AllProfiles,
    ::testing::Values(ProfileCase{flowgen::ixp_ce1(), 4 * 60},
                      ProfileCase{flowgen::ixp_us1(), 12 * 60},
                      ProfileCase{flowgen::ixp_se(), 12 * 60},
                      ProfileCase{flowgen::ixp_us2(), 48 * 60},
                      ProfileCase{flowgen::ixp_ce2(), 72 * 60},
                      ProfileCase{flowgen::self_attack_profile(), 6 * 60}),
    [](const auto& param_info) {
      std::string name = param_info.param.profile.name;  // "IXP-US1" -> "IXP_US1"
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace scrubber
