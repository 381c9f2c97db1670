#include "core/collector.hpp"

#include <gtest/gtest.h>

#include <map>

#include "flowgen/generator.hpp"

namespace scrubber::core {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;


/// Config builder: GCC 12's -Wmissing-field-initializers fires on
/// designated initializers even when the omitted members have defaults.
Collector::Config make_config(std::uint32_t sampling_rate = 10,
                              std::uint32_t reorder_slack_min = 1) {
  Collector::Config config;
  config.sampling_rate = sampling_rate;
  config.reorder_slack_min = reorder_slack_min;
  return config;
}

net::SflowDatagram datagram_at(std::uint32_t minute, std::uint32_t dst,
                               std::uint16_t src_port = 123,
                               std::uint32_t samples = 3) {
  net::SflowDatagram d;
  d.agent = Ipv4Address(0x0AFF0001);
  d.uptime_ms = std::uint64_t{minute} * 60'000;
  for (std::uint32_t k = 0; k < samples; ++k) {
    net::SflowFlowSample sample;
    sample.sampling_rate = 10;
    sample.input_port = 5;
    sample.packet.src_ip = Ipv4Address(0x80000000 + k);
    sample.packet.dst_ip = Ipv4Address(dst);
    sample.packet.src_port = src_port;
    sample.packet.dst_port = 44000;
    sample.packet.protocol = 17;
    sample.packet.length = 468;
    d.samples.push_back(sample);
  }
  return d;
}

TEST(Collector, EmitsClosedMinutes) {
  std::map<std::uint32_t, std::size_t> batches;
  Collector collector(make_config(),
                      [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                        batches[minute] += f.size();
                      });
  collector.ingest(datagram_at(0, 100));
  EXPECT_TRUE(batches.empty());  // minute 0 still open (slack)
  collector.ingest(datagram_at(2, 100));
  // Watermark 2, slack 1 -> minute 0 closed.
  ASSERT_EQ(batches.count(0), 1u);
  EXPECT_EQ(batches[0], 3u);  // 3 distinct source IPs
  collector.flush();
  EXPECT_EQ(batches.count(2), 1u);
}

TEST(Collector, ScalesBySamplingRate) {
  std::vector<net::FlowRecord> flows;
  Collector collector(make_config(),
                      [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                        flows.insert(flows.end(), f.begin(), f.end());
                      });
  collector.ingest(datagram_at(0, 100, 123, 1));
  collector.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 10u);
  EXPECT_EQ(flows[0].bytes, 4680u);
}

TEST(Collector, LabelsFromBgpFeed) {
  std::vector<net::FlowRecord> flows;
  Collector collector(make_config(),
                      [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                        flows.insert(flows.end(), f.begin(), f.end());
                      });
  // Blackhole for dst 100 announced at minute 0; dst 200 never blackholed.
  collector.ingest_bgp(
      bgp::make_blackhole_announcement(Ipv4Prefix::host(Ipv4Address(100)), 64512,
                                       Ipv4Address(1)),
      0);
  collector.ingest(datagram_at(0, 100));
  collector.ingest(datagram_at(0, 200));
  collector.flush();
  ASSERT_EQ(flows.size(), 6u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.blackholed, flow.dst_ip.value() == 100u);
  }
  EXPECT_EQ(collector.blackholed_flows(), 3u);
  EXPECT_EQ(collector.flows_emitted(), 6u);
}

TEST(Collector, AnonymizesWhenConfigured) {
  std::vector<net::FlowRecord> flows;
  Collector::Config salted = make_config();
  salted.anonymization_salt = 999;
  Collector collector(salted,
                      [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                        flows.insert(flows.end(), f.begin(), f.end());
                      });
  collector.ingest_bgp(
      bgp::make_blackhole_announcement(Ipv4Prefix::host(Ipv4Address(100)), 64512,
                                       Ipv4Address(1)),
      0);
  collector.ingest(datagram_at(0, 100));
  collector.flush();
  ASSERT_FALSE(flows.empty());
  for (const auto& flow : flows) {
    EXPECT_NE(flow.dst_ip.value(), 100u);  // address hashed
    EXPECT_TRUE(flow.blackholed);          // ...but labeled before hashing
    EXPECT_EQ(flow.src_port, 123);         // ports untouched
  }
}

TEST(Collector, ReorderSlackToleratesLateDatagrams) {
  std::map<std::uint32_t, std::size_t> batches;
  Collector collector(make_config(10, 2),
                      [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                        batches[minute] += f.size();
                      });
  collector.ingest(datagram_at(5, 100));
  collector.ingest(datagram_at(4, 100));  // late, within slack
  collector.ingest(datagram_at(7, 100));  // closes minutes < 5
  EXPECT_EQ(batches.count(4), 1u);
  EXPECT_EQ(batches.count(5), 0u);
  collector.flush();
  EXPECT_EQ(batches.count(5), 1u);
  EXPECT_EQ(batches.count(7), 1u);
}

TEST(Collector, SinkMustNotReenterTheCollector) {
  // The MinuteBatchSink contract (relied on by runtime::ShardedCollector):
  // the sink runs mid-drain and must not call back into the collector.
  Collector* self = nullptr;
  std::size_t calls = 0;
  Collector collector(make_config(),
                      [&](std::uint32_t, std::span<const net::FlowRecord>) {
                        ++calls;
                        EXPECT_THROW(self->ingest(datagram_at(9, 100)),
                                     std::logic_error);
                        EXPECT_THROW(self->flush(), std::logic_error);
                        EXPECT_THROW(self->advance(99), std::logic_error);
                        EXPECT_THROW(
                            self->ingest_bgp(bgp::make_blackhole_announcement(
                                                 Ipv4Prefix::host(Ipv4Address(1)),
                                                 64512, Ipv4Address(1)),
                                             0),
                            std::logic_error);
                      });
  self = &collector;
  collector.ingest(datagram_at(0, 100));
  collector.flush();
  EXPECT_EQ(calls, 1u);  // the guard fired inside a real drain
}

TEST(Collector, AdvanceClosesQuietMinutes) {
  // A shard that stops seeing traffic still closes its bins when the
  // runtime broadcasts the global watermark.
  std::map<std::uint32_t, std::size_t> batches;
  Collector collector(make_config(),
                      [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                        batches[minute] += f.size();
                      });
  collector.ingest(datagram_at(3, 100));
  EXPECT_TRUE(batches.empty());  // minute 3 open (slack 1)
  collector.advance(5);          // watermark from elsewhere: closes < 4
  EXPECT_EQ(batches.count(3), 1u);
  EXPECT_EQ(collector.flush_horizon(), 4u);
  collector.advance(5);  // idempotent
  collector.advance(2);  // stale watermark tolerated: no-op, no underflow
  EXPECT_EQ(collector.flush_horizon(), 4u);
  EXPECT_EQ(batches.size(), 1u);
}

TEST(Collector, LateDatagramsAreDroppedAndCounted) {
  // Once a minute is flushed it never reopens: a datagram arriving behind
  // the flush horizon is shed with a counter, so every minute batch is
  // emitted exactly once (the sharded merge depends on this).
  std::map<std::uint32_t, std::size_t> batches;
  Collector collector(make_config(),
                      [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                        batches[minute] += f.size();
                      });
  collector.ingest(datagram_at(0, 100));
  collector.advance(10);  // closes minutes < 9, including 0
  ASSERT_EQ(batches.count(0), 1u);
  const std::size_t size_before = batches[0];

  collector.ingest(datagram_at(0, 200));  // behind the horizon: dropped
  EXPECT_EQ(collector.late_datagrams(), 1u);
  collector.ingest(datagram_at(9, 100));  // at the horizon: accepted
  EXPECT_EQ(collector.late_datagrams(), 1u);
  collector.flush();
  EXPECT_EQ(batches[0], size_before);  // minute 0 never re-emitted
  EXPECT_EQ(batches.count(9), 1u);
}

TEST(FlowsToDatagrams, RoundTripPreservesAggregates) {
  // Property: flows -> datagrams -> collector reproduces the original
  // per-flow aggregates (packets within rounding, key fields exactly).
  flowgen::TrafficGenerator gen(flowgen::ixp_us2(), 77);
  const auto trace = gen.generate(0, 30);
  const std::uint32_t rate = 4;
  const auto datagrams =
      flows_to_datagrams(trace.flows, rate, Ipv4Address(0x0AFF0001));
  ASSERT_FALSE(datagrams.empty());

  std::vector<net::FlowRecord> reconstructed;
  Collector collector(make_config(rate, 0),
                      [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                        reconstructed.insert(reconstructed.end(), f.begin(),
                                             f.end());
                      });
  // Replay the BGP feed so labels reproduce too.
  for (const auto& [minute, update] : gen.updates()) {
    collector.ingest_bgp(update, std::uint64_t{minute} * 60'000);
  }
  for (const auto& d : datagrams) collector.ingest(d);
  collector.flush();

  // Index original flows by key.
  const auto key = [](const net::FlowRecord& f) {
    return std::tuple(f.minute, f.src_ip.value(), f.dst_ip.value(), f.src_port,
                      f.dst_port, f.protocol, f.src_member);
  };
  std::map<decltype(key(net::FlowRecord{})), const net::FlowRecord*> originals;
  for (const auto& f : trace.flows) originals[key(f)] = &f;

  ASSERT_EQ(reconstructed.size(), originals.size());
  std::size_t label_matches = 0;
  for (const auto& f : reconstructed) {
    const auto it = originals.find(key(f));
    ASSERT_NE(it, originals.end());
    const net::FlowRecord& original = *it->second;
    // Sampling quantizes packets to multiples of the rate.
    EXPECT_LE(
        std::abs(static_cast<long>(f.packets) - static_cast<long>(original.packets)),
        static_cast<long>(rate));
    label_matches += (f.blackholed == original.blackholed);
  }
  EXPECT_EQ(label_matches, reconstructed.size());
}

}  // namespace
}  // namespace scrubber::core
