// Loopback equivalence: the wire path (encode → UDP loopback → batched
// listener → engine decode) must produce verdicts bit-identical to the
// in-process feed (push_wire of the same encoded bytes, no socket) for the
// same seeded trace —
// same detections, same flow/minute/sample counts, same BGP interleave.
// This is the end-to-end proof that src/netio adds a transport, not a
// semantic (DESIGN.md §11); bench_e2e's wire_paced workload measures the
// same path's latency.
//
// The trace is sized so the detector trains (short warmup) and actually
// fires at least one detection — equality of two empty verdict lists
// would prove nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/live_detector.hpp"
#include "flowgen/generator.hpp"
#include "netio/listener.hpp"
#include "netio/loadgen.hpp"
#include "runtime/engine.hpp"

namespace scrubber::netio {
namespace {

constexpr std::uint32_t kMinutes = 20;
constexpr std::uint32_t kSampling = 4;
constexpr std::uint64_t kSeed = 1337;  // schedules attacks + BGP in range

core::LiveDetectorConfig detector_config() {
  core::LiveDetectorConfig config;
  config.warmup_min = 10;
  config.retrain_interval_min = 60;
  config.min_flows_per_target = 8;
  config.seed = 0xD43;
  config.agg_threads = 1;
  return config;
}

runtime::EngineConfig engine_config() {
  runtime::EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 1024;
  config.backpressure = runtime::Backpressure::kBlock;
  config.collector.sampling_rate = kSampling;
  return config;
}

std::string format_detection(const core::Detection& detection) {
  char line[160];
  std::snprintf(line, sizeof(line), "minute=%u target=%s score=%.12f flows=%u",
                detection.minute, detection.target.to_string().c_str(),
                detection.score, detection.flow_count);
  return line;
}

/// Everything the two feed paths must agree on.
struct Verdicts {
  std::vector<std::string> detections;
  std::uint64_t flows_out = 0;
  std::uint64_t minutes_merged = 0;
  std::uint64_t samples = 0;
  std::uint64_t bgp_updates = 0;
};

struct Trace {
  std::vector<net::SflowDatagram> datagrams;
  std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>> updates;
};

Trace make_trace() {
  flowgen::TrafficGenerator generator(flowgen::ixp_se(), kSeed);
  const auto generated = generator.generate(0, kMinutes);
  Trace trace;
  trace.updates = generated.updates;
  trace.datagrams = core::flows_to_datagrams(
      generated.flows, kSampling, net::Ipv4Address::from_octets(10, 99, 0, 1));
  return trace;
}

Verdicts in_process_verdicts(const Trace& trace) {
  Verdicts verdicts;
  core::LiveDetector detector(detector_config(),
                              [&](const core::Detection& detection) {
                                verdicts.detections.push_back(
                                    format_detection(detection));
                              });
  runtime::Engine engine(
      engine_config(),
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        detector.ingest_minute(minute, flows);
      });
  std::size_t next_update = 0;
  for (const auto& datagram : trace.datagrams) {
    const auto minute = static_cast<std::uint32_t>(datagram.uptime_ms / 60'000);
    while (next_update < trace.updates.size() &&
           trace.updates[next_update].first <= minute) {
      engine.push_bgp(trace.updates[next_update].second,
                      std::uint64_t{trace.updates[next_update].first} *
                          60'000);
      ++next_update;
    }
    engine.push_wire(datagram.encode());
  }
  engine.finish();
  const runtime::EngineSnapshot snapshot = engine.stats();
  verdicts.flows_out = snapshot.flows_out;
  verdicts.minutes_merged = snapshot.minutes_merged;
  verdicts.samples = snapshot.samples;
  verdicts.bgp_updates = snapshot.bgp_updates;
  return verdicts;
}

Verdicts wire_verdicts(const Trace& trace) {
  Verdicts verdicts;
  core::LiveDetector detector(detector_config(),
                              [&](const core::Detection& detection) {
                                verdicts.detections.push_back(
                                    format_detection(detection));
                              });
  runtime::Engine engine(
      engine_config(),
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        detector.ingest_minute(minute, flows);
      });
  std::size_t next_update = 0;
  ListenerConfig listener_config;
  listener_config.poll_interval_ms = 10;
  listener_config.idle_stop_ms = 30'000;  // lost-FIN safety: fail, not hang
  UdpListener listener(
      listener_config, engine, [&](std::uint32_t minute) {
        while (next_update < trace.updates.size() &&
               trace.updates[next_update].first <= minute) {
          engine.push_bgp(trace.updates[next_update].second,
                          std::uint64_t{trace.updates[next_update].first} *
                              60'000);
          ++next_update;
        }
      });
  listener.start();

  std::vector<std::vector<std::uint8_t>> wire;
  for (const auto& datagram : trace.datagrams) {
    wire.push_back(datagram.encode());
  }
  LoadGenConfig loadgen_config;
  loadgen_config.port = listener.port();
  loadgen_config.rate = 0.0;  // as fast as loopback accepts
  LoadGenerator loadgen(loadgen_config, std::move(wire));
  const LoadGenSummary summary = loadgen.run();
  listener.join();

  // The equivalence claim requires a lossless wire; anything dropped here
  // is a test-environment failure worth seeing loudly.
  const ListenerSnapshot listen = listener.stats();
  EXPECT_TRUE(listen.fin_seen);
  EXPECT_EQ(listen.expected_datagrams, summary.sent);
  EXPECT_EQ(listen.stage.items_in, summary.sent);
  EXPECT_EQ(listen.stage.drops, 0u);
  EXPECT_EQ(listen.kernel_drops, 0u);

  const runtime::EngineSnapshot snapshot = engine.stats();
  EXPECT_EQ(snapshot.decode_errors, 0u);
  // Conservation: every datagram sent is decoded, a counted decode error,
  // or a counted listener drop.
  EXPECT_EQ(snapshot.datagrams + snapshot.decode_errors + listen.stage.drops,
            summary.sent);
  verdicts.flows_out = snapshot.flows_out;
  verdicts.minutes_merged = snapshot.minutes_merged;
  verdicts.samples = snapshot.samples;
  verdicts.bgp_updates = snapshot.bgp_updates;
  return verdicts;
}

TEST(LoopbackEquivalence, WireVerdictsAreBitIdenticalToInProcess) {
  const Trace trace = make_trace();
  ASSERT_FALSE(trace.datagrams.empty());
  ASSERT_FALSE(trace.updates.empty());  // the BGP interleave is exercised

  const Verdicts reference = in_process_verdicts(trace);
  // An empty-vs-empty verdict comparison would prove nothing; the seed is
  // chosen so the detector trains and fires inside the trace.
  ASSERT_FALSE(reference.detections.empty());

  const Verdicts wire = wire_verdicts(trace);
  EXPECT_EQ(wire.detections, reference.detections);
  EXPECT_EQ(wire.flows_out, reference.flows_out);
  EXPECT_EQ(wire.minutes_merged, reference.minutes_merged);
  EXPECT_EQ(wire.samples, reference.samples);
  EXPECT_EQ(wire.bgp_updates, reference.bgp_updates);
}

TEST(LoopbackEquivalence, WirePathIsDeterministicAcrossRuns) {
  // Two wire runs of the same trace must agree with each other too — the
  // transport introduces no run-to-run nondeterminism into verdicts.
  const Trace trace = make_trace();
  const Verdicts first = wire_verdicts(trace);
  const Verdicts second = wire_verdicts(trace);
  EXPECT_EQ(first.detections, second.detections);
  EXPECT_EQ(first.flows_out, second.flows_out);
  EXPECT_EQ(first.minutes_merged, second.minutes_merged);
}

}  // namespace
}  // namespace scrubber::netio
