// Parity fuzz suite: the in-place, non-throwing SflowView::decode must be
// bit-identical to the throwing reference decoder (oracle::decode_sflow)
// on EVERY input — hostile or well-formed. The oracle stays the
// specification; the fused wire hot path earns its keep only while this
// suite holds:
//
//   * oracle throws  ⇔  view returns a non-kOk status;
//   * when both accept, the header fields and the emitted sample sequence
//     equal the oracle's datagram field-for-field;
//   * at the engine level, the fused decode→route path produces the same
//     minute batches as a serial core::Collector fed by the oracle, with
//     identical accounting (datagrams + decode_errors == buffers pushed).
//
// Every case is generated from a fixed seed so failures reproduce exactly.

#include "net/sflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "../oracles/sflow_decode.hpp"
#include "core/collector.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace scrubber::net {
namespace {

constexpr std::uint64_t kSeed = 0x1EA51DE;

/// A structurally valid datagram of 1..max_samples samples with
/// randomized field values.
SflowDatagram random_datagram(util::Rng& rng, std::size_t max_samples = 8) {
  SflowDatagram datagram;
  datagram.agent = Ipv4Address(static_cast<std::uint32_t>(rng()));
  datagram.sub_agent_id = static_cast<std::uint32_t>(rng.below(16));
  datagram.sequence = static_cast<std::uint32_t>(rng.below(1u << 20));
  datagram.uptime_ms = static_cast<std::uint32_t>(rng.below(6'000'000));
  const std::size_t samples = 1 + rng.below(max_samples);
  for (std::size_t i = 0; i < samples; ++i) {
    SflowFlowSample sample;
    sample.sequence = static_cast<std::uint32_t>(rng.below(1u << 20));
    sample.sampling_rate = 1u << rng.below(12);
    sample.sample_pool = static_cast<std::uint32_t>(rng.below(1u << 24));
    sample.input_port = static_cast<std::uint32_t>(rng.below(1024));
    sample.output_port = static_cast<std::uint32_t>(rng.below(1024));
    sample.packet.src_ip = Ipv4Address(static_cast<std::uint32_t>(rng()));
    sample.packet.dst_ip = Ipv4Address(static_cast<std::uint32_t>(rng()));
    sample.packet.src_port = static_cast<std::uint16_t>(rng.below(65536));
    sample.packet.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    sample.packet.protocol = rng.chance(0.5) ? 6 : 17;
    sample.packet.tcp_flags = static_cast<std::uint8_t>(rng.below(256));
    sample.packet.length = static_cast<std::uint16_t>(60 + rng.below(1441));
    sample.packet.ingress_member = sample.input_port;
    datagram.samples.push_back(sample);
  }
  return datagram;
}

struct ViewResult {
  DecodeStatus status = DecodeStatus::kOk;
  SflowHeaderView header;
  std::vector<SflowFlowSample> samples;
};

ViewResult view_decode(const std::vector<std::uint8_t>& wire) {
  ViewResult result;
  result.status = SflowView::decode(
      std::span<const std::uint8_t>(wire.data(), wire.size()), result.header,
      [&](const SflowFlowSample& sample) { result.samples.push_back(sample); });
  return result;
}

/// The parity oracle: whatever the bytes, both decoders must agree on
/// accept/reject, and on accept the decoded content must be identical.
void expect_parity(const std::vector<std::uint8_t>& wire) {
  const ViewResult view = view_decode(wire);
  bool oracle_accepted = false;
  SflowDatagram oracle;
  try {
    oracle = oracle::decode_sflow(wire);
    oracle_accepted = true;
  } catch (const oracle::SflowDecodeError&) {
  }
  if (oracle_accepted) {
    ASSERT_EQ(view.status, DecodeStatus::kOk)
        << "oracle accepted but view rejected with "
        << decode_status_name(view.status);
    EXPECT_EQ(view.header.agent, oracle.agent);
    EXPECT_EQ(view.header.sub_agent_id, oracle.sub_agent_id);
    EXPECT_EQ(view.header.sequence, oracle.sequence);
    EXPECT_EQ(view.header.uptime_ms, oracle.uptime_ms);
    EXPECT_EQ(view.samples, oracle.samples);
  } else {
    EXPECT_NE(view.status, DecodeStatus::kOk)
        << "oracle rejected but view accepted " << view.samples.size()
        << " samples";
  }
}

TEST(SflowInplaceParity, WellFormedDatagramsMatchFieldForField) {
  util::Rng rng(kSeed);
  for (int i = 0; i < 300; ++i) {
    expect_parity(random_datagram(rng).encode());
  }
  // Larger datagrams, up to 64 samples (~6 KiB of wire).
  for (int i = 0; i < 30; ++i) {
    expect_parity(random_datagram(rng, 64).encode());
  }
}

TEST(SflowInplaceParity, EveryTruncationAgrees) {
  util::Rng rng(kSeed ^ 1);
  for (int i = 0; i < 20; ++i) {
    const auto wire = random_datagram(rng).encode();
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      expect_parity(std::vector<std::uint8_t>(
          wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut)));
    }
  }
}

TEST(SflowInplaceParity, BitFlipsAgree) {
  util::Rng rng(kSeed ^ 2);
  for (int i = 0; i < 400; ++i) {
    auto wire = random_datagram(rng).encode();
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    expect_parity(wire);
  }
}

TEST(SflowInplaceParity, AdversarialWordOverwritesAgree) {
  util::Rng rng(kSeed ^ 3);
  const std::uint32_t hostile[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u,
                                   0xFFFFFFFDu, 1u << 30};
  for (int i = 0; i < 8; ++i) {
    const auto wire = random_datagram(rng).encode();
    for (std::size_t word = 0; word + 4 <= wire.size(); word += 4) {
      for (const std::uint32_t value : hostile) {
        auto mutated = wire;
        mutated[word] = static_cast<std::uint8_t>(value >> 24);
        mutated[word + 1] = static_cast<std::uint8_t>(value >> 16);
        mutated[word + 2] = static_cast<std::uint8_t>(value >> 8);
        mutated[word + 3] = static_cast<std::uint8_t>(value);
        expect_parity(mutated);
      }
    }
  }
}

TEST(SflowInplaceParity, RandomGarbageAgrees) {
  util::Rng rng(kSeed ^ 4);
  for (int i = 0; i < 600; ++i) {
    std::vector<std::uint8_t> garbage(rng.below(512));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    expect_parity(garbage);
  }
}

/// Overwrites the datagram's declared sample count (wire bytes 24..27).
void set_sample_count(std::vector<std::uint8_t>& wire, std::uint32_t count) {
  ASSERT_GE(wire.size(), 28u);
  wire[24] = static_cast<std::uint8_t>(count >> 24);
  wire[25] = static_cast<std::uint8_t>(count >> 16);
  wire[26] = static_cast<std::uint8_t>(count >> 8);
  wire[27] = static_cast<std::uint8_t>(count);
}

TEST(SflowInplaceParity, OverdeclaredSampleCountRejectedByBoth) {
  // The sample count is the one field the walk loop trusts for iteration;
  // declaring more samples than the bytes hold must starve both decoders
  // into a truncation error, never an over-read or a partial accept.
  util::Rng rng(kSeed ^ 5);
  for (int i = 0; i < 50; ++i) {
    const SflowDatagram datagram = random_datagram(rng);
    const std::uint32_t actual =
        static_cast<std::uint32_t>(datagram.samples.size());
    for (const std::uint32_t declared :
         {actual + 1, actual + 7, 0xFFFFFFFFu}) {
      auto wire = datagram.encode();
      set_sample_count(wire, declared);
      const ViewResult view = view_decode(wire);
      EXPECT_EQ(view.status, DecodeStatus::kTruncated);
      EXPECT_THROW((void)oracle::decode_sflow(wire), oracle::SflowDecodeError);
    }
  }
}

TEST(SflowInplaceParity, UnderdeclaredSampleCountAcceptsPrefixInBoth) {
  // Fewer declared samples than encoded: both decoders stop after the
  // declared count and ignore the trailing bytes, with identical output.
  util::Rng rng(kSeed ^ 6);
  for (int i = 0; i < 50; ++i) {
    const SflowDatagram datagram = random_datagram(rng);
    const std::uint32_t actual =
        static_cast<std::uint32_t>(datagram.samples.size());
    if (actual < 2) continue;
    auto wire = datagram.encode();
    set_sample_count(wire, actual - 1);
    const ViewResult view = view_decode(wire);
    ASSERT_EQ(view.status, DecodeStatus::kOk);
    EXPECT_EQ(view.samples.size(), actual - 1);
    expect_parity(wire);
  }
}

TEST(SflowInplaceParity, EngineFusedPathMatchesOracleDecoderEndToEnd) {
  // One seeded wire stream — mostly valid, some truncated, some
  // bit-flipped — through the engine's fused decode→route path and through
  // a serial core::Collector fed by the oracle decoder. Merged minute
  // batches (canonically ordered) and accounting must be identical, and
  // every pushed buffer must be accounted for as a datagram or a decode
  // error.
  std::vector<std::vector<std::uint8_t>> stream;
  util::Rng rng(kSeed ^ 7);
  for (int i = 0; i < 400; ++i) {
    SflowDatagram datagram = random_datagram(rng);
    // Mostly monotonic export minutes so most samples land in open bins.
    datagram.uptime_ms = static_cast<std::uint32_t>(i / 4) * 60'000u;
    auto wire = datagram.encode();
    const double kind = rng.uniform();
    if (kind < 0.2 && !wire.empty()) {
      wire.resize(rng.below(wire.size()));  // truncate
    } else if (kind < 0.4) {
      const std::size_t bit = rng.below(wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }  // else: leave valid
    stream.push_back(std::move(wire));
  }

  using MinuteBatches = std::map<std::uint32_t, std::vector<FlowRecord>>;
  core::Collector::Config collector_config;
  collector_config.sampling_rate = 1;

  MinuteBatches expected;
  std::uint64_t oracle_errors = 0;
  core::Collector serial(
      collector_config,
      [&](std::uint32_t minute, std::span<const FlowRecord> flows) {
        auto& bucket = expected[minute];
        bucket.assign(flows.begin(), flows.end());
        std::sort(bucket.begin(), bucket.end(), runtime::canonical_flow_less);
      });
  for (const auto& wire : stream) {
    try {
      serial.ingest(oracle::decode_sflow(wire));
    } catch (const oracle::SflowDecodeError&) {
      ++oracle_errors;
    }
  }
  serial.flush();

  runtime::EngineConfig config;
  config.shards = 3;
  config.queue_capacity = 256;
  config.backpressure = runtime::Backpressure::kBlock;
  config.collector = collector_config;
  MinuteBatches actual;
  runtime::Engine engine(
      config, [&](std::uint32_t minute, std::span<const FlowRecord> flows) {
        actual[minute].assign(flows.begin(), flows.end());
      });
  for (const auto& wire : stream) EXPECT_TRUE(engine.push_wire(wire));
  engine.finish();

  const runtime::EngineSnapshot snapshot = engine.stats();
  EXPECT_EQ(snapshot.datagrams + snapshot.decode_errors, stream.size());
  EXPECT_EQ(snapshot.decode_errors, oracle_errors);
  EXPECT_EQ(snapshot.datagrams, serial.datagrams());
  EXPECT_EQ(snapshot.input_drops, 0u);  // kBlock never sheds
  EXPECT_EQ(snapshot.flows_out, serial.flows_emitted());
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(actual.empty());
}

}  // namespace
}  // namespace scrubber::net
