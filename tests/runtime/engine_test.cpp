#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/collector.hpp"
#include "flowgen/generator.hpp"

namespace scrubber::runtime {
namespace {

net::SflowDatagram datagram_at(std::uint32_t minute, std::uint32_t dst,
                               std::uint32_t samples = 2) {
  net::SflowDatagram datagram;
  datagram.agent = net::Ipv4Address(0x0AFF0001);
  datagram.uptime_ms = std::uint64_t{minute} * 60'000;
  for (std::uint32_t k = 0; k < samples; ++k) {
    net::SflowFlowSample sample;
    sample.sampling_rate = 1;
    sample.input_port = 5;
    sample.packet.src_ip = net::Ipv4Address(0x80000000 + k);
    sample.packet.dst_ip = net::Ipv4Address(dst + k);
    sample.packet.src_port = 123;
    sample.packet.dst_port = 44000;
    sample.packet.protocol = 17;
    sample.packet.length = 468;
    datagram.samples.push_back(sample);
  }
  return datagram;
}

std::vector<std::uint8_t> wire_at(std::uint32_t minute, std::uint32_t dst,
                                  std::uint32_t samples = 2) {
  return datagram_at(minute, dst, samples).encode();
}

using MinuteBatches =
    std::vector<std::pair<std::uint32_t, std::vector<net::FlowRecord>>>;

/// Runs `minutes` x 4 datagrams through an engine built from `config` and
/// returns every merged minute batch in delivery order.
MinuteBatches run_engine(const EngineConfig& config, std::uint32_t minutes) {
  MinuteBatches out;
  Engine engine(config,
                [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                  out.emplace_back(
                      minute, std::vector<net::FlowRecord>(f.begin(), f.end()));
                });
  for (std::uint32_t minute = 0; minute < minutes; ++minute) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      EXPECT_TRUE(engine.push_wire(wire_at(minute, 0xC0A80000 + 16 * d)));
    }
  }
  engine.finish();
  EXPECT_EQ(engine.stats().input_drops, 0u);
  return out;
}

TEST(Engine, DeliversEveryMinuteInOrderUnderBlockPolicy) {
  EngineConfig config;
  config.shards = 4;
  config.queue_capacity = 32;  // small queues: force real backpressure
  config.backpressure = Backpressure::kBlock;
  config.collector.sampling_rate = 1;

  std::vector<std::uint32_t> minutes;
  std::uint64_t flows = 0;
  Engine engine(config,
                [&](std::uint32_t minute, std::span<const net::FlowRecord> f) {
                  minutes.push_back(minute);
                  flows += f.size();
                });

  constexpr std::uint32_t kMinutes = 120;
  for (std::uint32_t minute = 0; minute < kMinutes; ++minute) {
    for (std::uint32_t d = 0; d < 3; ++d) {
      EXPECT_TRUE(engine.push_wire(wire_at(minute, 0xC0A80000 + 16 * d)));
    }
  }
  engine.finish();

  const EngineSnapshot stats = engine.stats();
  EXPECT_EQ(stats.input_drops, 0u);   // block policy never sheds
  EXPECT_EQ(stats.late_drops, 0u);
  EXPECT_EQ(stats.datagrams, kMinutes * 3);
  // 3 datagrams/minute x 2 samples, all distinct flow keys.
  EXPECT_EQ(stats.flows_out, std::uint64_t{kMinutes} * 6);
  EXPECT_EQ(flows, stats.flows_out);
  ASSERT_EQ(minutes.size(), kMinutes);
  for (std::size_t i = 0; i < minutes.size(); ++i) {
    EXPECT_EQ(minutes[i], i);  // strictly minute-ordered delivery
  }
}

TEST(Engine, OutputInvariantUnderBatchSize) {
  // End-to-end over the whole stage graph: input-ring batching plus
  // shard-ring batching must not change a single emitted flow. batch=1 is
  // the single-record baseline; 5 forces ragged flushes around control
  // events; 512 exceeds capacity/4 and exercises the clamp.
  const auto run_with_batch = [](std::size_t batch_records) {
    EngineConfig config;
    config.shards = 3;
    config.queue_capacity = 32;
    config.batch_records = batch_records;
    config.backpressure = Backpressure::kBlock;
    config.collector.sampling_rate = 1;
    return run_engine(config, 90);
  };

  const auto reference = run_with_batch(1);
  ASSERT_EQ(reference.size(), 90u);
  EXPECT_EQ(reference, run_with_batch(5));
  EXPECT_EQ(reference, run_with_batch(512));
}

TEST(Engine, FlowgenTraceConservesEveryStageAcrossBatchAndShards) {
  // A seeded IXP-SE trace with its BGP blackhole updates interleaved by
  // export minute, through the whole stage graph at {batch 1, 256} x
  // {shards 1, 2}: no stage may lose or invent an item, and every
  // configuration must merge the same minutes.
  constexpr std::uint32_t kSampling = 4;
  flowgen::TrafficGenerator generator(flowgen::ixp_se(), 1337);
  const auto trace = generator.generate(0, 24);
  const auto datagrams = core::flows_to_datagrams(
      trace.flows, kSampling, net::Ipv4Address(0x0AFF0001));
  std::vector<std::vector<std::uint8_t>> wire;
  std::uint64_t total_samples = 0;
  for (const auto& datagram : datagrams) {
    wire.push_back(datagram.encode());
    total_samples += datagram.samples.size();
  }
  ASSERT_FALSE(trace.updates.empty());

  const auto stage = [](const EngineSnapshot& stats, std::string_view name) {
    const auto it =
        std::find_if(stats.stages.begin(), stats.stages.end(),
                     [&](const StageSnapshot& s) { return s.name == name; });
    return it == stats.stages.end() ? StageSnapshot{} : *it;
  };

  MinuteBatches reference;
  std::uint64_t reference_flows = 0;
  for (const std::size_t batch_records : {std::size_t{1}, std::size_t{256}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << "batch=" << batch_records
                                      << " shards=" << shards);
      EngineConfig config;
      config.shards = shards;
      config.queue_capacity = 4096;
      config.batch_records = batch_records;
      config.backpressure = Backpressure::kBlock;
      config.collector.sampling_rate = kSampling;
      MinuteBatches out;
      Engine engine(config, [&](std::uint32_t minute,
                                std::span<const net::FlowRecord> f) {
        out.emplace_back(minute,
                         std::vector<net::FlowRecord>(f.begin(), f.end()));
      });
      std::size_t next_update = 0;
      for (std::size_t i = 0; i < wire.size(); ++i) {
        const auto minute =
            static_cast<std::uint32_t>(datagrams[i].uptime_ms / 60'000);
        while (next_update < trace.updates.size() &&
               trace.updates[next_update].first <= minute) {
          engine.push_bgp(trace.updates[next_update].second,
                          std::uint64_t{trace.updates[next_update].first} *
                              60'000);
          ++next_update;
        }
        EXPECT_TRUE(engine.push_wire(wire[i]));
      }
      engine.finish();

      const EngineSnapshot stats = engine.stats();
      EXPECT_EQ(stats.input_drops, 0u);
      EXPECT_EQ(stats.late_drops, 0u);
      EXPECT_EQ(stats.datagrams, datagrams.size());
      EXPECT_EQ(stats.samples, total_samples);
      EXPECT_EQ(stats.bgp_updates, next_update);
      EXPECT_EQ(stage(stats, "decode").items_out,
                stats.datagrams + stats.bgp_updates);
      EXPECT_EQ(stage(stats, "score").items_in, stats.minutes_merged);
      EXPECT_EQ(stats.minutes_merged, out.size());
      if (reference.empty()) {
        ASSERT_FALSE(out.empty());
        reference = std::move(out);
        reference_flows = stats.flows_out;
      } else {
        EXPECT_EQ(stats.flows_out, reference_flows);
        EXPECT_EQ(out, reference);
      }
    }
  }
}

TEST(Engine, DropPolicyShedsLoadWithoutDeadlock) {
  EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 8;  // tiny bounded queues everywhere
  config.backpressure = Backpressure::kDrop;
  config.collector.sampling_rate = 1;

  Engine engine(config,
                [&](std::uint32_t, std::span<const net::FlowRecord>) {
                  // Slow model: scoring lags far behind ingest.
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                });

  constexpr std::uint32_t kMinutes = 400;
  std::uint64_t accepted = 0;
  for (std::uint32_t minute = 0; minute < kMinutes; ++minute) {
    if (engine.push_wire(wire_at(minute, 0xC0A80000))) ++accepted;
  }
  engine.finish();  // must return: bounded queues + drops, no deadlock

  const EngineSnapshot stats = engine.stats();
  EXPECT_GT(stats.input_drops, 0u);  // queue filled -> counter incremented
  EXPECT_EQ(stats.input_drops, kMinutes - accepted);
  EXPECT_EQ(stats.datagrams, accepted);
  EXPECT_GT(stats.flows_out, 0u);  // accepted portion still flowed through
}

TEST(Engine, WirePathDecodesAndCountsErrors) {
  EngineConfig config;
  config.shards = 2;
  config.collector.sampling_rate = 1;

  std::uint64_t flows = 0;
  Engine engine(config,
                [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                  flows += f.size();
                });
  for (std::uint32_t minute = 0; minute < 10; ++minute) {
    EXPECT_TRUE(engine.push_wire(wire_at(minute, 0xC0A80000)));
  }
  EXPECT_TRUE(engine.push_wire(  // malformed
      std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  engine.finish();

  const EngineSnapshot stats = engine.stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.datagrams, 10u);
  EXPECT_EQ(flows, 20u);
}

TEST(Engine, BgpUpdatesLabelFlowsThroughThePipeline) {
  EngineConfig config;
  config.shards = 3;
  config.collector.sampling_rate = 1;

  std::uint64_t blackholed = 0;
  std::uint64_t total = 0;
  Engine engine(config,
                [&](std::uint32_t, std::span<const net::FlowRecord> f) {
                  for (const auto& flow : f) {
                    blackholed += flow.blackholed;
                    ++total;
                  }
                });
  // Victim 0xC0A80000 blackholed from minute 0; 0xC0A80001 clean.
  engine.push_bgp(bgp::make_blackhole_announcement(
                      net::Ipv4Prefix::host(net::Ipv4Address(0xC0A80000)),
                      64512, net::Ipv4Address(1)),
                  0);
  for (std::uint32_t minute = 0; minute < 20; ++minute) {
    EXPECT_TRUE(engine.push_wire(wire_at(minute, 0xC0A80000)));
  }
  engine.finish();

  ASSERT_EQ(total, 40u);      // 2 samples/datagram, distinct dst per sample
  EXPECT_EQ(blackholed, 20u); // exactly the announced victim's flows
  EXPECT_EQ(engine.stats().bgp_updates, 1u);
}

TEST(Engine, StatsSnapshotIsCallableMidRun) {
  EngineConfig config;
  config.shards = 2;
  Engine engine(config, nullptr);
  for (std::uint32_t minute = 0; minute < 5; ++minute) {
    EXPECT_TRUE(engine.push_wire(wire_at(minute, 0xC0A80000)));
  }
  const EngineSnapshot mid = engine.stats();  // running workers
  EXPECT_GE(mid.wall_seconds, 0.0);
  EXPECT_EQ(mid.stages.size(), 5u);  // decode, route, collect, merge, score
  engine.finish();
  EXPECT_EQ(engine.stats().datagrams, 5u);
}

TEST(Engine, OneSlotPoolUnderBlockMatchesFullPool) {
  // Every push_wire(span) after the first finds the single slot still in
  // the pending batch: the engine must flush that batch before waiting,
  // or the producer would wait for a slot only it can release.
  EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 64;
  config.backpressure = Backpressure::kBlock;
  config.collector.sampling_rate = 1;
  const MinuteBatches reference = run_engine(config, 60);
  ASSERT_EQ(reference.size(), 60u);

  config.wire_pool_slots = 1;
  EXPECT_EQ(run_engine(config, 60), reference);
}

TEST(Engine, DryPoolUnderDropCountsEveryRejectedPush) {
  EngineConfig config;
  config.shards = 2;
  config.backpressure = Backpressure::kDrop;
  config.wire_pool_slots = 4;
  config.collector.sampling_rate = 1;
  Engine engine(config, nullptr);

  // Hold every slot: the producer thread is the pool's acquirer.
  std::vector<WireSlot> held;
  while (WireSlot slot = engine.wire_pool()->try_acquire()) {
    held.push_back(std::move(slot));
  }
  ASSERT_EQ(held.size(), 4u);
  for (std::uint32_t minute = 0; minute < 10; ++minute) {
    EXPECT_FALSE(engine.push_wire(wire_at(minute, 0xC0A80000)));
  }
  EXPECT_EQ(engine.stats().input_drops, 10u);

  held.clear();  // slots recycle; pushes are accepted again
  EXPECT_TRUE(engine.push_wire(wire_at(10, 0xC0A80000)));
  engine.finish();
  const EngineSnapshot stats = engine.stats();
  EXPECT_EQ(stats.input_drops, 10u);
  EXPECT_EQ(stats.datagrams, 1u);
  EXPECT_EQ(stats.pool_in_use, 0u);
}

TEST(Engine, OversizeDatagramIsRejectedNotTruncated) {
  EngineConfig config;
  config.shards = 1;
  config.wire_slot_bytes = 256;
  config.collector.sampling_rate = 1;
  std::uint64_t flows = 0;
  Engine engine(config, [&](std::uint32_t, std::span<const net::FlowRecord> f) {
    flows += f.size();
  });

  const std::vector<std::uint8_t> big = wire_at(0, 0xC0A80000, 4);
  ASSERT_GT(big.size(), 256u);  // a valid datagram that would decode
  EXPECT_FALSE(engine.push_wire(big));
  const std::vector<std::uint8_t> fits = wire_at(0, 0xC0A80000, 1);
  ASSERT_LE(fits.size(), 256u);
  EXPECT_TRUE(engine.push_wire(fits));
  engine.finish();

  const EngineSnapshot stats = engine.stats();
  EXPECT_EQ(stats.input_drops, 1u);
  EXPECT_EQ(stats.decode_errors, 0u);  // rejected whole, never cut short
  EXPECT_EQ(stats.datagrams, 1u);
  EXPECT_EQ(flows, 1u);
}

TEST(Engine, RejectsAnEmptyWirePool) {
  EngineConfig config;
  config.wire_pool_slots = 0;
  EXPECT_THROW(Engine(config, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace scrubber::runtime
