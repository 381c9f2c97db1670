#include "net/flow.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace scrubber::net {
namespace {

FlowRecord sample_flow() {
  FlowRecord f;
  f.minute = 1234;
  f.src_ip = *Ipv4Address::parse("198.51.100.7");
  f.dst_ip = *Ipv4Address::parse("10.0.1.10");
  f.src_port = 123;
  f.dst_port = 44321;
  f.protocol = 17;
  f.tcp_flags = 0;
  f.src_member = 42;
  f.packets = 3;
  f.bytes = 1404;
  f.blackholed = true;
  return f;
}

TEST(FlowRecord, MeanPacketSize) {
  FlowRecord f = sample_flow();
  EXPECT_DOUBLE_EQ(f.mean_packet_size(), 468.0);
  f.packets = 0;
  EXPECT_DOUBLE_EQ(f.mean_packet_size(), 0.0);
}

TEST(FlowRecord, VectorClassification) {
  const FlowRecord f = sample_flow();
  EXPECT_EQ(f.vector(), DdosVector::kNtp);
}

TEST(FlowRecord, ToStringContainsEndpoints) {
  const std::string s = sample_flow().to_string();
  EXPECT_NE(s.find("198.51.100.7:123"), std::string::npos);
  EXPECT_NE(s.find("10.0.1.10:44321"), std::string::npos);
  EXPECT_NE(s.find("UDP"), std::string::npos);
  EXPECT_NE(s.find("BH"), std::string::npos);
}

TEST(FlowSerialization, BinaryRoundTrip) {
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 10; ++i) {
    FlowRecord f = sample_flow();
    f.minute = static_cast<std::uint32_t>(i);
    f.bytes = static_cast<std::uint64_t>(i) * 1000;
    f.blackholed = (i % 2) == 0;
    flows.push_back(f);
  }
  std::stringstream buffer;
  write_flows(buffer, flows);
  const auto restored = read_flows(buffer);
  EXPECT_EQ(restored, flows);
}

TEST(FlowSerialization, EmptyRoundTrip) {
  std::stringstream buffer;
  write_flows(buffer, {});
  EXPECT_TRUE(read_flows(buffer).empty());
}

TEST(FlowSerialization, BadMagicThrows) {
  std::stringstream buffer("XXXX\0\0\0\0");
  EXPECT_THROW(read_flows(buffer), std::runtime_error);
}

TEST(FlowSerialization, TruncatedThrows) {
  std::vector<FlowRecord> flows{sample_flow()};
  std::stringstream buffer;
  write_flows(buffer, flows);
  std::string data = buffer.str();
  data.resize(data.size() - 4);
  std::stringstream truncated(data);
  EXPECT_THROW(read_flows(truncated), std::runtime_error);
}

}  // namespace
}  // namespace scrubber::net
