// UDP listener unit tests: wire framing helpers, the receive loop's
// lifecycle (FIN sentinel, stop(), idle timeout), malformed-datagram
// accounting through the engine, oversize-datagram rejection, the minute
// feed's ordering contract, and the open-loop load generator's send
// bookkeeping. Everything runs over loopback on kernel-assigned ports so
// tests never collide.

#include "netio/listener.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/sflow.hpp"
#include "netio/loadgen.hpp"
#include "runtime/engine.hpp"

namespace scrubber::netio {
namespace {

/// A minimal valid single-sample datagram whose export minute is `minute`.
net::SflowDatagram minute_datagram(std::uint32_t minute,
                                   std::uint32_t sequence = 0) {
  net::SflowDatagram datagram;
  datagram.agent = net::Ipv4Address::from_octets(10, 0, 0, 1);
  datagram.sequence = sequence;
  datagram.uptime_ms = std::uint64_t{minute} * 60'000;
  net::SflowFlowSample sample;
  sample.sequence = sequence;
  sample.sampling_rate = 4;
  sample.sample_pool = 4 * (sequence + 1);
  sample.input_port = 3;
  sample.packet.src_ip = net::Ipv4Address::from_octets(192, 0, 2, 1);
  sample.packet.dst_ip = net::Ipv4Address::from_octets(198, 51, 100, 7);
  sample.packet.src_port = 123;
  sample.packet.dst_port = 4444;
  sample.packet.protocol = 17;
  sample.packet.length = 120;
  sample.packet.ingress_member = 3;
  datagram.samples.push_back(sample);
  return datagram;
}

/// Connected loopback sender for a listener under test.
UdpSocket sender_for(const UdpListener& listener) {
  UdpSocket socket;
  socket.connect("127.0.0.1", listener.port());
  return socket;
}

TEST(WireFraming, FinSentinelRoundTrips) {
  const auto sentinel = encode_fin_sentinel(123456789ULL);
  ASSERT_EQ(sentinel.size(), kFinSentinelBytes);
  EXPECT_TRUE(is_fin_sentinel(sentinel));
  EXPECT_EQ(fin_sentinel_total(sentinel), 123456789ULL);
}

TEST(WireFraming, SflowBytesAreNotASentinel) {
  // A real sFlow datagram starts with the big-endian word 5, never the
  // magic — and any length other than the sentinel's is rejected outright.
  const auto wire = minute_datagram(7).encode();
  EXPECT_FALSE(is_fin_sentinel(wire));
  std::vector<std::uint8_t> sixteen(wire.begin(), wire.begin() + 16);
  EXPECT_FALSE(is_fin_sentinel(sixteen));
}

TEST(WireFraming, PeekReadsTheExportMinuteWithoutDecoding) {
  for (const std::uint32_t minute : {0u, 1u, 59u, 1440u}) {
    const auto wire = minute_datagram(minute).encode();
    const auto peeked = peek_sflow_minute(wire);
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(*peeked, minute);
  }
  // Too short to carry the six-word header: no minute, no read past end.
  std::vector<std::uint8_t> runt(23, 0);
  EXPECT_FALSE(peek_sflow_minute(runt).has_value());
}

TEST(UdpListener, ReceivesDatagramsAndFinishesOnFin) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine);
  EXPECT_NE(listener.port(), 0);  // kernel-assigned port resolved
  listener.start();

  UdpSocket sender = sender_for(listener);
  for (std::uint32_t i = 0; i < 5; ++i) {
    sender.send(minute_datagram(i, i).encode());
  }
  sender.send(encode_fin_sentinel(5));
  listener.join();

  const ListenerSnapshot snapshot = listener.stats();
  EXPECT_EQ(snapshot.stage.items_in, 5u);
  EXPECT_EQ(snapshot.stage.items_out, 5u);
  EXPECT_EQ(snapshot.stage.drops, 0u);
  EXPECT_TRUE(snapshot.fin_seen);
  EXPECT_EQ(snapshot.expected_datagrams, 5u);
  EXPECT_GT(snapshot.bytes, 0u);
  EXPECT_FALSE(snapshot.summary().empty());

  // The FIN drained and finished the engine on the listener thread.
  const runtime::EngineSnapshot engine_snapshot = engine.stats();
  EXPECT_EQ(engine_snapshot.datagrams, 5u);
  EXPECT_EQ(engine_snapshot.decode_errors, 0u);
}

TEST(UdpListener, MalformedDatagramsAreCountedNeverFatal) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine);
  listener.start();

  UdpSocket sender = sender_for(listener);
  sender.send(minute_datagram(0).encode());          // valid
  std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  sender.send(garbage);                              // garbage
  auto truncated = minute_datagram(1).encode();
  truncated.resize(truncated.size() / 2);
  sender.send(truncated);                            // truncated
  std::vector<std::uint8_t> runt(8, 0x05);
  sender.send(runt);                                 // too short to peek
  sender.send(minute_datagram(2, 1).encode());       // valid again
  sender.send(encode_fin_sentinel(5));
  listener.join();

  const ListenerSnapshot snapshot = listener.stats();
  const runtime::EngineSnapshot engine_snapshot = engine.stats();
  EXPECT_EQ(snapshot.stage.items_in, 5u);
  // Accounting identity: everything received is a decoded datagram or a
  // counted decode error — malformed input can never leak silently.
  EXPECT_EQ(engine_snapshot.datagrams, 2u);
  EXPECT_EQ(engine_snapshot.decode_errors, 3u);
  EXPECT_EQ(engine_snapshot.datagrams + engine_snapshot.decode_errors,
            snapshot.stage.items_in);
}

TEST(UdpListener, DatagramLongerThanAWireSlotIsCountedNeverCut) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine);
  listener.start();

  UdpSocket sender = sender_for(listener);
  // A valid datagram padded one byte past the slot: cut to the slot size
  // it would reach the decoder as a malformed datagram.
  auto oversize = minute_datagram(0).encode();
  oversize.resize(config.wire_slot_bytes + 1, 0);
  sender.send(oversize);
  sender.send(minute_datagram(1, 1).encode());
  sender.send(encode_fin_sentinel(2));
  listener.join();

  const ListenerSnapshot snapshot = listener.stats();
  const runtime::EngineSnapshot engine_snapshot = engine.stats();
  EXPECT_EQ(snapshot.stage.items_in, 2u);
  EXPECT_EQ(snapshot.stage.drops, 1u);
  EXPECT_EQ(snapshot.stage.items_out, 1u);
  EXPECT_EQ(engine_snapshot.datagrams, 1u);
  EXPECT_EQ(engine_snapshot.decode_errors, 0u);
  EXPECT_EQ(engine_snapshot.samples, 1u);
}

TEST(UdpListener, MinuteFeedFiresOncePerAdvanceBeforeTheDatagram) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  std::vector<std::uint32_t> fed;
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine,
                       [&](std::uint32_t minute) { fed.push_back(minute); });
  listener.start();

  UdpSocket sender = sender_for(listener);
  // Two datagrams of minute 0, then 1, then a jump to 3: the feed must
  // see each distinct minute exactly once, in order.
  sender.send(minute_datagram(0, 0).encode());
  sender.send(minute_datagram(0, 1).encode());
  sender.send(minute_datagram(1, 2).encode());
  sender.send(minute_datagram(3, 3).encode());
  sender.send(encode_fin_sentinel(4));
  listener.join();

  EXPECT_EQ(fed, (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(UdpListener, IdleTimeoutEndsTheRunWithoutFin) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  listener_config.idle_stop_ms = 50;
  UdpListener listener(listener_config, engine);
  listener.run();  // no traffic: returns after the idle window

  const ListenerSnapshot snapshot = listener.stats();
  EXPECT_FALSE(snapshot.fin_seen);
  EXPECT_EQ(snapshot.stage.items_in, 0u);
  engine.finish();  // the caller finishes after a FIN-less exit
}

TEST(UdpListener, StopEndsTheRunFromAnotherThread) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine);
  listener.start();
  listener.stop();
  listener.join();  // must return promptly at the next poll tick
  EXPECT_FALSE(listener.stats().fin_seen);
  engine.finish();
}

TEST(UdpListener, RejectsAWirePoolNoLargerThanTheReceiveBatch) {
  // The receiver keeps a batch of slots armed; a dry-pool fallback must
  // be able to wait for a slot the engine returns, never one it holds.
  runtime::EngineConfig config;
  config.shards = 1;
  config.wire_pool_slots = 32;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.batch_msgs = 32;
  EXPECT_THROW(UdpListener(listener_config, engine, nullptr), NetioError);
  engine.finish();
}

TEST(LoadGenerator, SendsEverythingOnAPacedSchedule) {
  runtime::EngineConfig config;
  config.shards = 1;
  runtime::Engine engine(config, nullptr);
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  UdpListener listener(listener_config, engine);
  listener.start();

  std::vector<std::vector<std::uint8_t>> wire;
  for (std::uint32_t i = 0; i < 20; ++i) {
    wire.push_back(minute_datagram(i / 4, i).encode());
  }
  LoadGenConfig loadgen_config;
  loadgen_config.port = listener.port();
  loadgen_config.rate = 5000.0;  // paced: exercises the deadline schedule
  LoadGenerator loadgen(loadgen_config, wire);
  const LoadGenSummary summary = loadgen.run();
  listener.join();

  EXPECT_EQ(summary.sent, 20u);
  EXPECT_GT(summary.bytes, 0u);
  EXPECT_GT(summary.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(summary.target_rate, 5000.0);
  EXPECT_EQ(listener.stats().stage.items_in, 20u);
  EXPECT_TRUE(listener.stats().fin_seen);
  EXPECT_EQ(listener.stats().expected_datagrams, 20u);
}

}  // namespace
}  // namespace scrubber::netio
