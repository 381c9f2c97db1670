#include "core/aggregator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

namespace scrubber::core {
namespace {

net::FlowRecord make_flow(std::uint32_t minute, std::uint32_t dst,
                          std::uint32_t src, std::uint16_t src_port,
                          std::uint64_t bytes, std::uint32_t packets,
                          bool blackholed = false) {
  net::FlowRecord f;
  f.minute = minute;
  f.dst_ip = net::Ipv4Address(dst);
  f.src_ip = net::Ipv4Address(src);
  f.src_port = src_port;
  f.dst_port = 44000;
  f.protocol = 17;
  f.bytes = bytes;
  f.packets = packets;
  f.blackholed = blackholed;
  f.src_member = src % 16;
  return f;
}

/// Index of the column called `name`.
std::size_t column(const ml::Dataset& data, std::string_view name) {
  const auto& cols = data.columns();
  const auto it = std::find_if(cols.begin(), cols.end(),
                               [name](const auto& c) { return c.name == name; });
  if (it == cols.end()) throw std::out_of_range(std::string(name));
  return static_cast<std::size_t>(it - cols.begin());
}

TEST(AggregatorSchema, Has150FeatureColumns) {
  const auto schema = Aggregator::schema();
  // |C|=5 categoricals x |M|=3 metrics x r=5 ranks x 2 columns = 150.
  EXPECT_EQ(schema.size(), 150u);
  std::size_t categorical = 0, numeric = 0;
  for (const auto& col : schema) {
    (col.kind == ml::ColumnKind::kCategorical ? categorical : numeric) += 1;
  }
  EXPECT_EQ(categorical, 75u);
  EXPECT_EQ(numeric, 75u);
}

TEST(AggregatorSchema, ColumnNamingConvention) {
  const auto schema = Aggregator::schema();
  EXPECT_EQ(schema[0].name, "src_ip/pktsize/0");
  EXPECT_EQ(schema[1].name, "src_ip/pktsize/0/val");
  // All names unique.
  std::set<std::string> names;
  for (const auto& col : schema) names.insert(col.name);
  EXPECT_EQ(names.size(), schema.size());
}

TEST(Aggregator, GroupsByMinuteAndTarget) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 500, 1),
      make_flow(0, 100, 2, 123, 500, 1),
      make_flow(0, 200, 1, 53, 500, 1),
      make_flow(1, 100, 1, 123, 500, 1),
  };
  const auto agg = aggregator.aggregate(flows);
  EXPECT_EQ(agg.size(), 3u);  // (0,100), (0,200), (1,100)
  EXPECT_EQ(agg.meta[0].minute, 0u);
  EXPECT_EQ(agg.meta[0].target.value(), 100u);
  EXPECT_EQ(agg.meta[0].flow_count, 2u);
}

TEST(Aggregator, RanksSourcePortsByBytes) {
  const Aggregator aggregator;
  // Port 123 sends 3000 bytes, port 53 sends 1000.
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 3000, 3),
      make_flow(0, 100, 2, 53, 1000, 1),
  };
  const auto agg = aggregator.aggregate(flows);
  const auto& data = agg.data;
  const std::size_t rank0 = column(data, "port_src/bytes/0");
  const std::size_t rank0_val = column(data, "port_src/bytes/0/val");
  const std::size_t rank1 = column(data, "port_src/bytes/1");
  EXPECT_DOUBLE_EQ(data.at(0, rank0), 123.0);
  EXPECT_DOUBLE_EQ(data.at(0, rank0_val), 3000.0);
  EXPECT_DOUBLE_EQ(data.at(0, rank1), 53.0);
}

TEST(Aggregator, MeanPacketSizeMetricIsWeighted) {
  const Aggregator aggregator;
  // Two flows from the same source: 1000B/2pkt + 500B/3pkt = 1500B/5pkt.
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 1000, 2),
      make_flow(0, 100, 1, 123, 500, 3),
  };
  const auto agg = aggregator.aggregate(flows);
  const std::size_t col = column(agg.data, "src_ip/pktsize/0/val");
  EXPECT_DOUBLE_EQ(agg.data.at(0, col), 300.0);
}

TEST(Aggregator, MissingRanksAreNaN) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{make_flow(0, 100, 1, 123, 500, 1)};
  const auto agg = aggregator.aggregate(flows);
  // Only one distinct source port: ranks 1..4 missing.
  const std::size_t rank1 = column(agg.data, "port_src/bytes/1");
  const std::size_t rank4 = column(agg.data, "port_src/bytes/4");
  EXPECT_TRUE(ml::is_missing(agg.data.at(0, rank1)));
  EXPECT_TRUE(ml::is_missing(agg.data.at(0, rank4)));
}

TEST(Aggregator, LabelIsAnyBlackholedFlow) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 500, 1, false),
      make_flow(0, 100, 2, 123, 500, 1, true),  // one blackholed flow
      make_flow(0, 200, 1, 53, 500, 1, false),
  };
  const auto agg = aggregator.aggregate(flows);
  EXPECT_EQ(agg.data.label(0), 1);
  EXPECT_EQ(agg.data.label(1), 0);
}

TEST(Aggregator, DominantVectorByBytes) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 9000, 9),  // NTP dominates bytes
      make_flow(0, 100, 2, 53, 1000, 1),   // DNS
      make_flow(0, 200, 3, 44555, 500, 1), // no known vector
  };
  const auto agg = aggregator.aggregate(flows);
  ASSERT_TRUE(agg.meta[0].dominant_vector.has_value());
  EXPECT_EQ(*agg.meta[0].dominant_vector, net::DdosVector::kNtp);
  EXPECT_FALSE(agg.meta[1].dominant_vector.has_value());
}

TEST(Aggregator, RuleTagsAnnotated) {
  // Build a rule set whose single accepted rule matches NTP flows.
  arm::MinedRule mined;
  mined.antecedent = {arm::Item(arm::Attribute::kProtocol, 17),
                      arm::Item(arm::Attribute::kSrcPort, 123)};
  std::sort(mined.antecedent.begin(), mined.antecedent.end());
  mined.consequent = arm::kBlackholeItem;
  mined.confidence = 0.95;
  mined.support = 0.1;
  arm::RuleSet rules = arm::RuleSet::from_mined({mined});
  rules.rules()[0].status = arm::RuleStatus::kAccepted;

  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 500, 1),   // NTP -> tagged
      make_flow(0, 200, 1, 50001, 500, 1), // ephemeral src -> no tag
  };
  const auto agg = aggregator.aggregate(flows, &rules);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg.meta[0].rule_tags.size(), 1u);
  EXPECT_TRUE(agg.meta[1].rule_tags.empty());
}

TEST(AggregatedDataset, SubsetKeepsMetaAligned) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(0, 100, 1, 123, 500, 1, true),
      make_flow(0, 200, 1, 53, 500, 1),
      make_flow(0, 300, 1, 80, 500, 1),
  };
  const auto agg = aggregator.aggregate(flows);
  const std::vector<std::size_t> idx{2, 0};
  const auto sub = agg.subset(idx);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.meta[0].target.value(), 300u);
  EXPECT_EQ(sub.meta[1].target.value(), 100u);
  EXPECT_EQ(sub.data.label(1), 1);
}

TEST(AggregatedDataset, AppendConcatenates) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> a{make_flow(0, 100, 1, 123, 500, 1)};
  std::vector<net::FlowRecord> b{make_flow(5, 200, 1, 53, 500, 1)};
  auto agg_a = aggregator.aggregate(a);
  const auto agg_b = aggregator.aggregate(b);
  agg_a.append(agg_b);
  EXPECT_EQ(agg_a.size(), 2u);
  EXPECT_EQ(agg_a.meta[1].minute, 5u);
}

TEST(Aggregator, DeterministicRecordOrder) {
  const Aggregator aggregator;
  std::vector<net::FlowRecord> flows{
      make_flow(1, 300, 1, 123, 500, 1),
      make_flow(0, 200, 1, 53, 500, 1),
      make_flow(0, 100, 1, 80, 500, 1),
  };
  const auto agg = aggregator.aggregate(flows);
  // Ordered by (minute, target).
  EXPECT_EQ(agg.meta[0].minute, 0u);
  EXPECT_EQ(agg.meta[0].target.value(), 100u);
  EXPECT_EQ(agg.meta[1].target.value(), 200u);
  EXPECT_EQ(agg.meta[2].minute, 1u);
}

}  // namespace
}  // namespace scrubber::core
