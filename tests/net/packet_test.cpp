#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace scrubber::net {
namespace {

PacketHeader make_packet(std::uint64_t ts_ms, std::uint32_t src,
                         std::uint16_t src_port, std::uint16_t length = 468) {
  PacketHeader p;
  p.timestamp_ms = ts_ms;
  p.src_ip = Ipv4Address(src);
  p.dst_ip = Ipv4Address(0x0A000001);
  p.src_port = src_port;
  p.dst_port = 44000;
  p.protocol = 17;
  p.length = length;
  p.ingress_member = 7;
  return p;
}

/// drain_before() bound that flushes every minute bin.
constexpr std::uint32_t kEveryMinute = std::numeric_limits<std::uint32_t>::max();

TEST(FlowCache, AggregatesSameKey) {
  FlowCache cache(1);
  cache.add(make_packet(60'000, 1, 123, 400));
  cache.add(make_packet(61'000, 1, 123, 500));  // same minute (1), same key
  const auto flows = cache.drain_before(kEveryMinute);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_EQ(flows[0].bytes, 900u);
  EXPECT_EQ(flows[0].minute, 1u);
  EXPECT_DOUBLE_EQ(flows[0].mean_packet_size(), 450.0);
}

TEST(FlowCache, SeparatesMinutes) {
  FlowCache cache(1);
  cache.add(make_packet(30'000, 1, 123));   // minute 0
  cache.add(make_packet(90'000, 1, 123));   // minute 1
  const auto old_flows = cache.drain_before(1);
  ASSERT_EQ(old_flows.size(), 1u);
  EXPECT_EQ(old_flows[0].minute, 0u);
  const auto rest = cache.drain_before(kEveryMinute);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].minute, 1u);
}

TEST(FlowCache, SeparatesDistinctKeys) {
  FlowCache cache(1);
  cache.add(make_packet(0, 1, 123));
  cache.add(make_packet(0, 2, 123));  // different src ip
  cache.add(make_packet(0, 1, 53));   // different src port
  EXPECT_EQ(cache.drain_before(kEveryMinute).size(), 3u);
}

TEST(FlowCache, ScalesBySamplingRate) {
  FlowCache cache(100);
  cache.add(make_packet(0, 1, 123, 468));
  const auto flows = cache.drain_before(kEveryMinute);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 100u);
  EXPECT_EQ(flows[0].bytes, 46800u);
  // Mean packet size survives scaling.
  EXPECT_DOUBLE_EQ(flows[0].mean_packet_size(), 468.0);
}

TEST(FlowCache, TcpFlagsAccumulateWithOr) {
  FlowCache cache(1);
  PacketHeader syn = make_packet(0, 1, 123);
  syn.protocol = 6;
  syn.tcp_flags = 0x02;
  PacketHeader ack = syn;
  ack.tcp_flags = 0x10;
  cache.add(syn);
  cache.add(ack);
  const auto flows = cache.drain_before(kEveryMinute);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].tcp_flags, 0x12);
}

TEST(FlowCache, DrainOrderDeterministic) {
  FlowCache a(1), b(1);
  for (std::uint32_t i = 0; i < 50; ++i) {
    a.add(make_packet(0, i, 123));
    b.add(make_packet(0, i, 123));
  }
  EXPECT_EQ(a.drain_before(kEveryMinute), b.drain_before(kEveryMinute));
}

TEST(FlowCache, FieldsCopiedThrough) {
  FlowCache cache(2);
  const PacketHeader p = make_packet(120'000, 99, 123);
  cache.add(p);
  const auto flows = cache.drain_before(kEveryMinute);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].src_ip.value(), 99u);
  EXPECT_EQ(flows[0].dst_ip, p.dst_ip);
  EXPECT_EQ(flows[0].src_port, 123);
  EXPECT_EQ(flows[0].dst_port, 44000);
  EXPECT_EQ(flows[0].protocol, 17);
  EXPECT_EQ(flows[0].src_member, 7u);
  EXPECT_EQ(flows[0].minute, 2u);
}

}  // namespace
}  // namespace scrubber::net
