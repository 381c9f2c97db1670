#include "net/sflow.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../oracles/sflow_decode.hpp"
#include "core/collector.hpp"

namespace scrubber::net {
namespace {

SflowFlowSample make_sample(std::uint32_t seq) {
  SflowFlowSample sample;
  sample.sequence = seq;
  sample.sampling_rate = 2048;
  sample.sample_pool = seq * 2048;
  sample.input_port = 42;
  sample.output_port = 7;
  sample.packet.src_ip = *Ipv4Address::parse("198.51.100.9");
  sample.packet.dst_ip = *Ipv4Address::parse("10.0.1.10");
  sample.packet.src_port = 123;
  sample.packet.dst_port = 44321;
  sample.packet.protocol = 17;
  sample.packet.length = 468;
  sample.packet.ingress_member = 42;
  return sample;
}

SflowDatagram make_datagram() {
  SflowDatagram d;
  d.agent = *Ipv4Address::parse("10.255.1.1");
  d.sub_agent_id = 3;
  d.sequence = 1001;
  d.uptime_ms = 123'456;
  d.samples = {make_sample(1), make_sample(2), make_sample(3)};
  return d;
}

TEST(Sflow, EncodeDecodeRoundTrip) {
  const SflowDatagram original = make_datagram();
  const auto wire = original.encode();
  const SflowDatagram decoded = oracle::decode_sflow(wire);
  EXPECT_EQ(decoded.agent, original.agent);
  EXPECT_EQ(decoded.sub_agent_id, original.sub_agent_id);
  EXPECT_EQ(decoded.sequence, original.sequence);
  EXPECT_EQ(decoded.uptime_ms, original.uptime_ms);
  ASSERT_EQ(decoded.samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.samples[i].sampling_rate, original.samples[i].sampling_rate);
    EXPECT_EQ(decoded.samples[i].input_port, original.samples[i].input_port);
    EXPECT_EQ(decoded.samples[i].packet.src_ip, original.samples[i].packet.src_ip);
    EXPECT_EQ(decoded.samples[i].packet.dst_ip, original.samples[i].packet.dst_ip);
    EXPECT_EQ(decoded.samples[i].packet.src_port, original.samples[i].packet.src_port);
    EXPECT_EQ(decoded.samples[i].packet.dst_port, original.samples[i].packet.dst_port);
    EXPECT_EQ(decoded.samples[i].packet.protocol, original.samples[i].packet.protocol);
    EXPECT_EQ(decoded.samples[i].packet.length, original.samples[i].packet.length);
  }
}

TEST(Sflow, WireStartsWithVersion5) {
  const auto wire = make_datagram().encode();
  ASSERT_GE(wire.size(), 4u);
  EXPECT_EQ(wire[0], 0);
  EXPECT_EQ(wire[1], 0);
  EXPECT_EQ(wire[2], 0);
  EXPECT_EQ(wire[3], 5);
}

TEST(Sflow, XdrAlignment) {
  // Every encoded datagram is a multiple of 4 bytes (XDR rule).
  EXPECT_EQ(make_datagram().encode().size() % 4, 0u);
}

TEST(Sflow, TcpFlagsSurviveRoundTrip) {
  SflowDatagram d = make_datagram();
  d.samples.resize(1);
  d.samples[0].packet.protocol = 6;
  d.samples[0].packet.tcp_flags = 0x12;  // SYN|ACK
  const SflowDatagram decoded = oracle::decode_sflow(d.encode());
  ASSERT_EQ(decoded.samples.size(), 1u);
  EXPECT_EQ(decoded.samples[0].packet.tcp_flags, 0x12);
}

TEST(Sflow, EmptyDatagram) {
  SflowDatagram d;
  d.agent = Ipv4Address(1);
  const SflowDatagram decoded = oracle::decode_sflow(d.encode());
  EXPECT_TRUE(decoded.samples.empty());
}

TEST(Sflow, DecodeRejectsWrongVersion) {
  auto wire = make_datagram().encode();
  wire[3] = 4;
  EXPECT_THROW(oracle::decode_sflow(wire), oracle::SflowDecodeError);
}

TEST(Sflow, DecodeRejectsTruncated) {
  auto wire = make_datagram().encode();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(oracle::decode_sflow(wire), oracle::SflowDecodeError);
}

TEST(Sflow, IngestIntoFlowCache) {
  core::Collector::Config config;
  config.sampling_rate = 2048;
  std::vector<FlowRecord> flows;
  core::Collector collector(
      config, [&](std::uint32_t, std::span<const FlowRecord> f) {
        flows.insert(flows.end(), f.begin(), f.end());
      });
  SflowDatagram d = make_datagram();
  d.uptime_ms = 5 * 60'000;  // minute 5
  collector.ingest(d);
  collector.flush();
  // Three samples with identical 5-tuples aggregate into one flow.
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].minute, 5u);
  EXPECT_EQ(flows[0].packets, 3u * 2048u);
  EXPECT_EQ(flows[0].bytes, 3u * 2048u * 468u);
  EXPECT_EQ(flows[0].src_member, 42u);
  // The reconstructed flow classifies as NTP reflection.
  EXPECT_EQ(flows[0].vector(), DdosVector::kNtp);
}

TEST(Sflow, MemberIdViaSrcMacRoundTrip) {
  SflowDatagram d = make_datagram();
  d.samples.resize(1);
  d.samples[0].packet.ingress_member = 0xABCDEF01;
  const SflowDatagram decoded = oracle::decode_sflow(d.encode());
  EXPECT_EQ(decoded.samples[0].packet.ingress_member, 0xABCDEF01u);
}

}  // namespace
}  // namespace scrubber::net
