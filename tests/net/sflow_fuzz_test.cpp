// Fuzz-style robustness suite for the sFlow v5 decoder — the one parser
// in the repo that eats bytes straight off the wire from hardware we do
// not control. Every case here is generated from a fixed seed, so a
// failure reproduces exactly; the ASan+UBSan CI configuration turns any
// out-of-bounds read these inputs provoke into a hard failure.
//
// Contract under test:
//   * decode() either returns a datagram or throws SflowDecodeError —
//     no other exception, no crash, no OOB, for ANY input bytes;
//   * truncations, bit flips, and adversarial length fields are all
//     handled structurally (length-checked reads), never trusted;
//   * at the engine level, every pushed wire buffer is accounted for:
//     accepted datagrams + decode errors == buffers pushed.

#include "net/sflow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../oracles/sflow_decode.hpp"
#include "netio/listener.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace scrubber::net {
namespace {

constexpr std::uint64_t kSeed = 0xF0221;

/// A structurally valid datagram with randomized field values.
SflowDatagram random_datagram(util::Rng& rng) {
  SflowDatagram datagram;
  datagram.agent = Ipv4Address(static_cast<std::uint32_t>(rng()));
  datagram.sub_agent_id = static_cast<std::uint32_t>(rng.below(16));
  datagram.sequence = static_cast<std::uint32_t>(rng.below(1u << 20));
  datagram.uptime_ms = static_cast<std::uint32_t>(rng.below(6'000'000));
  const std::size_t samples = 1 + rng.below(8);
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
    sample.packet.length =
        static_cast<std::uint16_t>(60 + rng.below(1441));
    sample.packet.ingress_member = sample.input_port;
    datagram.samples.push_back(sample);
  }
  return datagram;
}

/// Decodes; returns true when a datagram came back, false on the *only*
/// acceptable failure mode (SflowDecodeError). Anything else escapes and
/// fails the test.
bool decode_survives(const std::vector<std::uint8_t>& wire) {
  try {
    const SflowDatagram datagram = oracle::decode_sflow(wire);
    (void)datagram;
    return true;
  } catch (const oracle::SflowDecodeError&) {
    return false;
  }
}

TEST(SflowFuzz, RoundTripOnRandomDatagrams) {
  util::Rng rng(kSeed);
  for (int i = 0; i < 200; ++i) {
    const SflowDatagram datagram = random_datagram(rng);
    const auto wire = datagram.encode();
    const SflowDatagram decoded = oracle::decode_sflow(wire);
    EXPECT_EQ(decoded.samples.size(), datagram.samples.size());
    EXPECT_EQ(decoded.uptime_ms, datagram.uptime_ms);
    EXPECT_EQ(decoded.agent, datagram.agent);
  }
}

TEST(SflowFuzz, EveryTruncationEitherParsesOrThrows) {
  util::Rng rng(kSeed ^ 1);
  for (int i = 0; i < 25; ++i) {
    const auto wire = random_datagram(rng).encode();
    // Every prefix of a valid datagram, including empty.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      std::vector<std::uint8_t> truncated(wire.begin(),
                                          wire.begin() +
                                              static_cast<std::ptrdiff_t>(cut));
      decode_survives(truncated);  // must not crash; either outcome is fine
    }
  }
}

TEST(SflowFuzz, BitFlipsNeverEscapeTheDecoder) {
  util::Rng rng(kSeed ^ 2);
  for (int i = 0; i < 300; ++i) {
    auto wire = random_datagram(rng).encode();
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    decode_survives(wire);
  }
}

TEST(SflowFuzz, AdversarialLengthFieldsAreBoundsChecked) {
  util::Rng rng(kSeed ^ 3);
  // Overwrite each 32-bit word of a valid datagram with hostile values —
  // this hits every length/count field the decoder trusts structurally.
  const std::uint32_t hostile[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u,
                                   0xFFFFFFFDu, 1u << 30};
  for (int i = 0; i < 10; ++i) {
    const auto wire = random_datagram(rng).encode();
    for (std::size_t word = 0; word + 4 <= wire.size(); word += 4) {
      for (const std::uint32_t value : hostile) {
        auto mutated = wire;
        mutated[word] = static_cast<std::uint8_t>(value >> 24);
        mutated[word + 1] = static_cast<std::uint8_t>(value >> 16);
        mutated[word + 2] = static_cast<std::uint8_t>(value >> 8);
        mutated[word + 3] = static_cast<std::uint8_t>(value);
        decode_survives(mutated);
      }
    }
  }
}

TEST(SflowFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(kSeed ^ 4);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> garbage(rng.below(512));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    decode_survives(garbage);
  }
}

TEST(SflowFuzz, EngineAccountsForEveryWireBuffer) {
  // Push a seeded mix of valid, truncated, and bit-flipped buffers through
  // the full engine; afterwards every single buffer must be accounted for
  // as either an accepted datagram or a decode error — the malformed-input
  // counters cannot leak.
  util::Rng rng(kSeed ^ 5);
  runtime::EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 256;
  config.backpressure = runtime::Backpressure::kBlock;
  runtime::Engine engine(config, nullptr);

  std::uint64_t pushed = 0;
  for (int i = 0; i < 300; ++i) {
    auto wire = random_datagram(rng).encode();
    const double kind = rng.uniform();
    if (kind < 0.25 && !wire.empty()) {
      wire.resize(rng.below(wire.size()));  // truncate
    } else if (kind < 0.5) {
      const std::size_t bit = rng.below(wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }  // else: leave valid
    engine.push_wire(std::move(wire));
    ++pushed;
  }
  engine.finish();

  const runtime::EngineSnapshot snapshot = engine.stats();
  EXPECT_EQ(snapshot.datagrams + snapshot.decode_errors, pushed);
  EXPECT_EQ(snapshot.input_drops, 0u);  // kBlock never sheds
}

TEST(SflowFuzz, ListenerSurvivesHostileWireTraffic) {
  // Same adversarial mix, but arriving the way production bytes do: over
  // a UDP socket into the netio listener's batched receive path. The
  // listener must neither crash nor stall on truncations, bit flips,
  // empty datagrams, or pure garbage — everything it receives must come
  // out the other side as a decoded datagram or a counted decode error,
  // and the FIN sentinel must still end the run cleanly afterwards.
  util::Rng rng(kSeed ^ 6);
  runtime::EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 256;
  config.backpressure = runtime::Backpressure::kBlock;
  runtime::Engine engine(config, nullptr);
  netio::ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  listener_config.idle_stop_ms = 30'000;  // stall here = loud test failure
  netio::UdpListener listener(listener_config, engine);
  listener.start();

  netio::UdpSocket sender;
  sender.connect("127.0.0.1", listener.port());
  std::uint64_t sent = 0;
  std::uint64_t valid = 0;
  for (int i = 0; i < 300; ++i) {
    const double kind = rng.uniform();
    std::vector<std::uint8_t> wire;
    if (kind < 0.55) {
      wire = random_datagram(rng).encode();
      if (kind < 0.20) {
        wire.resize(rng.below(wire.size()));  // truncate
      } else if (kind < 0.40) {
        const std::size_t bit = rng.below(wire.size() * 8);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      } else {
        ++valid;  // leave intact
      }
    } else if (kind < 0.8) {
      wire.resize(rng.below(128));  // garbage, possibly empty
      for (auto& byte : wire) {
        byte = static_cast<std::uint8_t>(rng.below(256));
      }
    } else {
      wire = random_datagram(rng).encode();
      ++valid;
    }
    sender.send(wire);
    ++sent;
  }
  sender.send(netio::encode_fin_sentinel(sent));
  listener.join();

  const netio::ListenerSnapshot snapshot = listener.stats();
  const runtime::EngineSnapshot engine_snapshot = engine.stats();
  EXPECT_TRUE(snapshot.fin_seen);
  EXPECT_EQ(snapshot.expected_datagrams, sent);
  EXPECT_EQ(snapshot.stage.items_in, sent);  // loopback, ample rcvbuf
  EXPECT_EQ(snapshot.stage.drops, 0u);       // kBlock never sheds
  // Accounting identity across the wire boundary: nothing leaks.
  EXPECT_EQ(engine_snapshot.datagrams + engine_snapshot.decode_errors, sent);
  // Intact datagrams decode; a truncated or bit-flipped one *may* (the
  // mutation can land in a don't-care byte), so valid is a lower bound.
  EXPECT_GE(engine_snapshot.datagrams, valid);
}

}  // namespace
}  // namespace scrubber::net
