#include "runtime/sharded_collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/collector.hpp"
#include "flowgen/generator.hpp"

namespace scrubber::runtime {
namespace {

using MinuteBatches = std::map<std::uint32_t, std::vector<net::FlowRecord>>;

/// One replayable capture event: BGP updates interleaved with datagrams in
/// stream-time order, exactly as both pipelines receive them.
struct CaptureEvent {
  bool is_bgp = false;
  net::SflowDatagram datagram;
  bgp::UpdateMessage update;
  std::uint32_t minute = 0;
};

/// Builds a deterministic event stream from a seeded flowgen trace.
/// IXP-SE: mid-size with enough attacks/day that a few-hour trace carries
/// blackhole announcements (so labels are actually exercised).
std::vector<CaptureEvent> make_stream(std::uint32_t minutes,
                                      std::uint32_t sampling_rate,
                                      std::uint64_t seed) {
  flowgen::TrafficGenerator generator(flowgen::ixp_se(), seed);
  const auto trace = generator.generate(0, minutes);
  const auto datagrams = core::flows_to_datagrams(
      trace.flows, sampling_rate, net::Ipv4Address(0x0AFF0001));

  std::vector<CaptureEvent> events;
  std::size_t next_update = 0;
  for (const auto& datagram : datagrams) {
    const auto minute =
        static_cast<std::uint32_t>(datagram.uptime_ms / 60'000);
    while (next_update < trace.updates.size() &&
           trace.updates[next_update].first <= minute) {
      CaptureEvent event;
      event.is_bgp = true;
      event.update = trace.updates[next_update].second;
      event.minute = trace.updates[next_update].first;
      events.push_back(std::move(event));
      ++next_update;
    }
    CaptureEvent event;
    event.datagram = datagram;
    events.push_back(std::move(event));
  }
  return events;
}

/// Reference pipeline: the single-threaded core::Collector, with each
/// minute batch put into canonical order for comparison.
MinuteBatches run_single(const std::vector<CaptureEvent>& events,
                         core::Collector::Config config) {
  MinuteBatches batches;
  core::Collector collector(
      config, [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
        auto& bucket = batches[minute];
        EXPECT_TRUE(bucket.empty()) << "minute emitted twice: " << minute;
        bucket.assign(f.begin(), f.end());
        std::sort(bucket.begin(), bucket.end(), canonical_flow_less);
      });
  for (const auto& event : events) {
    if (event.is_bgp) {
      collector.ingest_bgp(event.update, std::uint64_t{event.minute} * 60'000);
    } else {
      collector.ingest(event.datagram);
    }
  }
  collector.flush();
  return batches;
}

/// The sharded multi-threaded pipeline over the same stream.
MinuteBatches run_sharded(const std::vector<CaptureEvent>& events,
                          core::Collector::Config config, std::size_t shards,
                          std::size_t queue_capacity = 64) {
  MinuteBatches batches;
  ShardedCollectorConfig sharded_config;
  sharded_config.shards = shards;
  sharded_config.collector = config;
  // Small by default, to exercise ring wraparound; it also sets the shard
  // batch (queue/4 samples).
  sharded_config.queue_capacity = queue_capacity;
  ShardedCollector collector(
      sharded_config,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
        auto& bucket = batches[minute];
        EXPECT_TRUE(bucket.empty()) << "minute emitted twice: " << minute;
        bucket.assign(f.begin(), f.end());
      });
  for (const auto& event : events) {
    if (event.is_bgp) {
      collector.ingest_bgp(event.update, std::uint64_t{event.minute} * 60'000);
    } else {
      EXPECT_EQ(collector.ingest_wire(event.datagram.encode()),
                net::DecodeStatus::kOk);
    }
  }
  collector.finish();
  EXPECT_EQ(collector.late_datagrams(), 0u);
  return batches;
}

void expect_identical(const MinuteBatches& expected,
                      const MinuteBatches& actual, std::size_t shards) {
  ASSERT_EQ(expected.size(), actual.size()) << "shards=" << shards;
  for (const auto& [minute, flows] : expected) {
    const auto it = actual.find(minute);
    ASSERT_NE(it, actual.end()) << "missing minute " << minute;
    ASSERT_EQ(flows.size(), it->second.size())
        << "minute " << minute << " shards=" << shards;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      // FlowRecord operator== covers every field, label included.
      ASSERT_EQ(flows[i], it->second[i])
          << "minute " << minute << " flow " << i << " shards=" << shards;
    }
  }
}

TEST(ShardedCollector, BitIdenticalToSingleCollectorAcrossShardCounts) {
  core::Collector::Config config;
  config.sampling_rate = 4;
  config.reorder_slack_min = 1;
  const auto events = make_stream(/*minutes=*/180, config.sampling_rate, 77);
  bool saw_blackholed = false;
  const MinuteBatches reference = run_single(events, config);
  ASSERT_FALSE(reference.empty());
  for (const auto& [minute, flows] : reference) {
    for (const auto& flow : flows) saw_blackholed |= flow.blackholed;
  }
  EXPECT_TRUE(saw_blackholed) << "trace has no labels; test is too weak";

  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    expect_identical(reference, run_sharded(events, config, shards), shards);
  }
}

TEST(ShardedCollector, BitIdenticalAcrossBatchSizes) {
  // The batching layer only changes ring-transfer granularity; the merge
  // must see the exact same per-shard sequences. The queue bound sets the
  // batch to queue/4 samples: queue 4 (batch 1) degenerates to the
  // pre-batching single-record path, 12 (batch 3) forces mid-datagram
  // batch cuts and ragged flushes, 64 gives batch 16.
  core::Collector::Config config;
  config.sampling_rate = 4;
  config.reorder_slack_min = 1;
  const auto events = make_stream(/*minutes=*/120, config.sampling_rate, 55);
  const MinuteBatches reference = run_single(events, config);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t queue : {4u, 12u, 64u}) {
    for (const std::size_t shards : {1u, 3u}) {
      expect_identical(reference, run_sharded(events, config, shards, queue),
                       shards);
    }
  }
}

TEST(ShardedCollector, EquivalenceHoldsWithAnonymization) {
  // Labels are computed before hashing and the anonymizer is stateless,
  // so the determinism argument survives the privacy layer.
  const core::Collector::Config config{.sampling_rate = 4,
                                       .reorder_slack_min = 1,
                                       .anonymization_salt = 999};
  const auto events = make_stream(/*minutes=*/90, config.sampling_rate, 31);
  const MinuteBatches reference = run_single(events, config);
  ASSERT_FALSE(reference.empty());
  expect_identical(reference, run_sharded(events, config, 3), 3);
}

TEST(ShardedCollector, QuietShardsAdvanceViaPunctuation) {
  // Every datagram targets ONE destination, so with 8 shards at least 7
  // never see a sample. Without watermark punctuation the merge barrier
  // would stall forever; with it, every minute still closes.
  std::vector<CaptureEvent> events;
  for (std::uint32_t minute = 0; minute < 30; ++minute) {
    net::SflowDatagram datagram;
    datagram.agent = net::Ipv4Address(0x0A000001);
    datagram.uptime_ms = std::uint64_t{minute} * 60'000;
    net::SflowFlowSample sample;
    sample.sampling_rate = 1;
    sample.input_port = 3;
    sample.packet.src_ip = net::Ipv4Address(0x80000000 + minute);
    sample.packet.dst_ip = net::Ipv4Address(0xC0A80001);  // single victim
    sample.packet.src_port = 123;
    sample.packet.dst_port = 44000;
    sample.packet.protocol = 17;
    sample.packet.length = 400;
    datagram.samples.push_back(sample);
    CaptureEvent event;
    event.datagram = datagram;
    events.push_back(std::move(event));
  }

  core::Collector::Config config;
  config.sampling_rate = 1;
  config.reorder_slack_min = 1;
  const MinuteBatches reference = run_single(events, config);
  ASSERT_EQ(reference.size(), 30u);
  expect_identical(reference, run_sharded(events, config, 8), 8);
}

TEST(ShardOf, IsStableAndInRange) {
  for (std::uint32_t ip = 0; ip < 10'000; ip += 37) {
    const std::size_t shard = shard_of(net::Ipv4Address(ip), 5);
    EXPECT_LT(shard, 5u);
    EXPECT_EQ(shard, shard_of(net::Ipv4Address(ip), 5));  // stable
  }
  EXPECT_EQ(shard_of(net::Ipv4Address(1234), 1), 0u);
}

TEST(CanonicalFlowLess, IsAStrictTotalOrderOverContent) {
  net::FlowRecord a;
  a.minute = 1;
  a.src_ip = net::Ipv4Address(10);
  net::FlowRecord b = a;
  EXPECT_FALSE(canonical_flow_less(a, b));  // irreflexive on equal content
  b.bytes = 7;
  EXPECT_TRUE(canonical_flow_less(a, b) != canonical_flow_less(b, a));
  b = a;
  b.minute = 2;
  EXPECT_TRUE(canonical_flow_less(a, b));
}

}  // namespace
}  // namespace scrubber::runtime
