#include "net/protocols.hpp"

#include <gtest/gtest.h>

#include <set>

namespace scrubber::net {
namespace {

TEST(Protocols, Names) {
  EXPECT_EQ(protocol_name(6), "TCP");
  EXPECT_EQ(protocol_name(17), "UDP");
  EXPECT_EQ(protocol_name(1), "ICMP");
  EXPECT_EQ(protocol_name(47), "GRE");
  EXPECT_EQ(protocol_name(99), "P?");
}

TEST(Vectors, SignatureTableCoversAllVectors) {
  const auto signatures = vector_signatures();
  EXPECT_EQ(signatures.size(), kDdosVectorCount);
  std::set<DdosVector> seen;
  for (const auto& sig : signatures) seen.insert(sig.vector);
  EXPECT_EQ(seen.size(), kDdosVectorCount);
}

TEST(Vectors, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto& sig : vector_signatures()) names.insert(vector_name(sig.vector));
  EXPECT_EQ(names.size(), kDdosVectorCount);
}

TEST(Vectors, ClassifyWellKnownReflectionPorts) {
  EXPECT_EQ(classify_vector(17, 123, 41000), DdosVector::kNtp);
  EXPECT_EQ(classify_vector(17, 53, 80), DdosVector::kDns);
  EXPECT_EQ(classify_vector(17, 161, 1234), DdosVector::kSnmp);
  EXPECT_EQ(classify_vector(17, 389, 1234), DdosVector::kLdap);
  EXPECT_EQ(classify_vector(17, 1900, 1234), DdosVector::kSsdp);
  EXPECT_EQ(classify_vector(17, 3283, 1234), DdosVector::kAppleRd);
  EXPECT_EQ(classify_vector(17, 11211, 1234), DdosVector::kMemcached);
  EXPECT_EQ(classify_vector(17, 19, 1234), DdosVector::kChargen);
  EXPECT_EQ(classify_vector(17, 3702, 1234), DdosVector::kWsDiscovery);
}

TEST(Vectors, ClassifyFragmentsAndGre) {
  EXPECT_EQ(classify_vector(17, 0, 0), DdosVector::kUdpFragment);
  EXPECT_EQ(classify_vector(47, 0, 0), DdosVector::kGre);
  EXPECT_EQ(classify_vector(47, 123, 456), DdosVector::kGre);  // any ports
}

TEST(Vectors, ClassifyKeysOnSourcePort) {
  // Reflection is identified by the reflector-side (source) port; a flow
  // *to* port 123 is a benign NTP request, not an attack signature.
  EXPECT_EQ(classify_vector(17, 41000, 123), std::nullopt);
  EXPECT_EQ(classify_vector(17, 41000, 53), std::nullopt);
}

TEST(Vectors, TcpVariantsDistinct) {
  EXPECT_EQ(classify_vector(6, 53, 1234), DdosVector::kDnsTcp);
  EXPECT_EQ(classify_vector(17, 53, 1234), DdosVector::kDns);
  // TCP with NTP's port number is not an NTP signature.
  EXPECT_EQ(classify_vector(6, 123, 1234), std::nullopt);
}

TEST(Vectors, BenignTrafficNotClassified) {
  EXPECT_EQ(classify_vector(6, 443, 50000), std::nullopt);
  EXPECT_EQ(classify_vector(17, 51820, 51820), std::nullopt);
}

TEST(Vectors, Top7MatchesTable3) {
  const auto top = top7_vectors();
  ASSERT_EQ(top.size(), 7u);
  EXPECT_EQ(top[0], DdosVector::kUdpFragment);
  EXPECT_EQ(top[1], DdosVector::kDns);
  EXPECT_EQ(top[2], DdosVector::kNtp);
  EXPECT_EQ(top[3], DdosVector::kSnmp);
  EXPECT_EQ(top[4], DdosVector::kLdap);
  EXPECT_EQ(top[5], DdosVector::kSsdp);
  EXPECT_EQ(top[6], DdosVector::kAppleRd);
}

}  // namespace
}  // namespace scrubber::net
