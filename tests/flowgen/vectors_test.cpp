#include "flowgen/vectors.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace scrubber::flowgen {
namespace {

TEST(VectorTraffic, EveryVectorHasAModel) {
  for (const auto& sig : net::vector_signatures()) {
    const VectorTraffic& model = vector_traffic(sig.vector);
    EXPECT_EQ(model.vector, sig.vector);
    EXPECT_GT(model.mean_packet_size, 0.0);
    EXPECT_GE(model.fragment_fraction, 0.0);
    EXPECT_LE(model.fragment_fraction, 1.0);
  }
}

TEST(VectorTraffic, NtpMonlistSignature) {
  // NTP monlist replies are ~468 bytes with little spread (§4.2 mentions
  // ~500-byte monlist replies).
  const VectorTraffic& ntp = vector_traffic(net::DdosVector::kNtp);
  EXPECT_NEAR(ntp.mean_packet_size, 468.0, 1.0);
  EXPECT_LT(ntp.stddev_packet_size, 50.0);
}

TEST(VectorTraffic, AmplifiersNearMtuCarryFragments) {
  for (const auto v : {net::DdosVector::kLdap, net::DdosVector::kMemcached,
                       net::DdosVector::kDns}) {
    const VectorTraffic& model = vector_traffic(v);
    EXPECT_GT(model.mean_packet_size, 1000.0) << net::vector_name(v);
    EXPECT_GT(model.fragment_fraction, 0.2) << net::vector_name(v);
  }
}

TEST(VectorTraffic, Top7CarryMostPrevalence) {
  double top7 = 0.0, rest = 0.0;
  for (const auto& sig : net::vector_signatures()) {
    const bool is_top7 =
        std::find(net::top7_vectors().begin(), net::top7_vectors().end(),
                  sig.vector) != net::top7_vectors().end();
    (is_top7 ? top7 : rest) += vector_traffic(sig.vector).prevalence;
  }
  EXPECT_GT(top7, rest * 3.0);
}

TEST(SamplePacketSize, WithinBoundsAndNearMean) {
  util::Rng rng(1);
  for (const auto v : {net::DdosVector::kNtp, net::DdosVector::kSsdp,
                       net::DdosVector::kMemcached}) {
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) {
      const double s = sample_packet_size(v, rng);
      EXPECT_GE(s, 60.0);
      EXPECT_LE(s, 1500.0);
      sum += s;
    }
    // Mean close to model (memcached clips at MTU, so allow slack).
    EXPECT_NEAR(sum / 5000.0, vector_traffic(v).mean_packet_size, 40.0)
        << net::vector_name(v);
  }
}

TEST(SampleFragmentSize, Bounds) {
  util::Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const double s = sample_fragment_size(rng);
    EXPECT_GE(s, 100.0);
    EXPECT_LE(s, 1480.0);
  }
}

}  // namespace
}  // namespace scrubber::flowgen
