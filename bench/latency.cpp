// Detection latency — end-to-end wire-path latency of the streaming
// scrubber: sFlow datagrams leave an open-loop load generator over UDP
// loopback, cross src/netio's batched listener into the engine, and the
// clock stops when the datagram's minute has been scored and ingested by
// the live detector. Swept over {target rate} x {engine batch} x {shards};
// per-row latency distributions (p50/p99/p99.9) plus achieved flows/sec
// land in BENCH_latency.json.
//
// Open loop matters here (DESIGN.md §11): the send schedule is drawn up
// front at the target rate and never waits for the receiver, so a slow
// configuration shows up as a latency tail, not as silently reduced load.
// Rate 0 rows send as fast as loopback accepts — a burst test where
// kernel socket-buffer drops are possible and *reported* (the row is
// marked lossy) rather than hidden.
//
// Every lossless row is also an equivalence probe: the verdict stream
// (every detection, formatted) and the flow/minute/sample counts must be
// bit-identical to an in-process feed of the same trace — push_wire of the
// same encoded bytes with no socket in between. Any mismatch or
// conservation failure exits non-zero. `--smoke` shrinks the sweep
// (CI-sized) while keeping the equivalence assertion; that is the mode the
// perf-smoke CI job runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "../bench/common.hpp"
#include "core/collector.hpp"
#include "core/live_detector.hpp"
#include "netio/listener.hpp"
#include "netio/loadgen.hpp"
#include "runtime/engine.hpp"
#include "util/json.hpp"

namespace {

using namespace scrubber;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

/// Detector setup shared by the wire runs and the in-process reference —
/// verdicts can only be bit-identical if both sides train and score the
/// same way. Short warmup so the detector actually scores the tail of the
/// bench-sized trace.
core::LiveDetectorConfig detector_config() {
  core::LiveDetectorConfig config;
  config.warmup_min = 10;
  config.retrain_interval_min = 60;
  config.min_flows_per_target = 8;
  config.seed = 0xD43;
  config.agg_threads = 1;
  return config;
}

std::string format_detection(const core::Detection& detection) {
  char line[160];
  std::snprintf(line, sizeof(line), "minute=%u target=%s score=%.9f flows=%u",
                detection.minute, detection.target.to_string().c_str(),
                detection.score, detection.flow_count);
  std::string out = line;
  if (detection.vector) {
    out += " vector=";
    out += net::vector_name(*detection.vector);
  }
  return out;
}

/// What both feed paths must agree on, bit for bit.
struct Verdicts {
  std::vector<std::string> detections;
  std::uint64_t flows_out = 0;
  std::uint64_t minutes_merged = 0;
  std::uint64_t samples = 0;

  bool operator==(const Verdicts&) const = default;
};

runtime::EngineConfig engine_config(std::size_t shards,
                                    std::size_t batch_records) {
  runtime::EngineConfig config;
  config.shards = shards;
  config.queue_capacity = 4096;
  config.batch_records = batch_records;
  config.backpressure = runtime::Backpressure::kBlock;
  config.collector.sampling_rate = 4;
  return config;
}

/// In-process reference: same wire bytes, same engine/detector shape, no
/// socket.
Verdicts reference_verdicts(
    const std::vector<std::vector<std::uint8_t>>& wire,
    const std::vector<std::uint32_t>& wire_minutes,
    const std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>>& updates,
    std::size_t shards, std::size_t batch_records) {
  Verdicts verdicts;
  core::LiveDetector detector(detector_config(),
                              [&](const core::Detection& detection) {
                                verdicts.detections.push_back(
                                    format_detection(detection));
                              });
  runtime::Engine engine(
      engine_config(shards, batch_records),
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        detector.ingest_minute(minute, flows);
      });
  std::size_t next_update = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    while (next_update < updates.size() &&
           updates[next_update].first <= wire_minutes[i]) {
      engine.push_bgp(updates[next_update].second,
                      std::uint64_t{updates[next_update].first} * 60'000);
      ++next_update;
    }
    engine.push_wire(wire[i]);
  }
  engine.finish();
  const runtime::EngineSnapshot snapshot = engine.stats();
  verdicts.flows_out = snapshot.flows_out;
  verdicts.minutes_merged = snapshot.minutes_merged;
  verdicts.samples = snapshot.samples;
  return verdicts;
}

struct WireRow {
  double target_rate = 0.0;
  std::size_t batch_records = 0;
  std::size_t shards = 0;
  bool advisory = false;

  // Wire-to-verdict latency: send() completing → the datagram's export
  // minute scored and ingested by the detector.
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0, max_ms = 0.0;
  double achieved_send_rate = 0.0;  ///< datagrams/s the generator delivered
  double flows_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t sent = 0, received = 0;
  std::uint64_t kernel_drops = 0, ring_drops = 0, behind = 0;
  std::uint64_t pool_fallbacks = 0, pool_highwater = 0, pool_exhausted = 0;
  bool lossless = false;
  bool verdicts_match = false;
  std::string backend;
};

/// One wire run: loopback listener + engine + detector on one side, the
/// open-loop generator on the other (this thread). Latency of a datagram
/// is the time from its send() completing to its export minute having been
/// scored and ingested by the detector.
WireRow run_wire(
    const std::vector<std::vector<std::uint8_t>>& wire,
    const std::vector<std::uint32_t>& wire_minutes,
    const std::vector<std::pair<std::uint32_t, bgp::UpdateMessage>>& updates,
    const Verdicts& reference, double target_rate, std::size_t batch_records,
    std::size_t shards, unsigned hardware) {
  WireRow row;
  row.target_rate = target_rate;
  row.batch_records = batch_records;
  row.shards = shards;
  row.advisory = shards > hardware;

  Verdicts verdicts;
  // minute -> steady-clock ns at which that minute finished scoring;
  // written only by the engine's score thread, read after join().
  std::vector<std::uint64_t> completion_ns;
  core::LiveDetector detector(detector_config(),
                              [&](const core::Detection& detection) {
                                verdicts.detections.push_back(
                                    format_detection(detection));
                              });
  runtime::Engine engine(
      engine_config(shards, batch_records),
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        detector.ingest_minute(minute, flows);
        if (completion_ns.size() <= minute) completion_ns.resize(minute + 1);
        completion_ns[minute] = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
      });

  std::size_t next_update = 0;
  netio::ListenerConfig listener_config;
  listener_config.port = 0;  // kernel-assigned; the generator reads port()
  listener_config.batch_msgs = 64;
  listener_config.rcvbuf_bytes = 1 << 23;
  listener_config.idle_stop_ms = 20'000;  // lost-FIN safety net
  netio::UdpListener listener(
      listener_config, engine, [&](std::uint32_t minute) {
        while (next_update < updates.size() &&
               updates[next_update].first <= minute) {
          engine.push_bgp(updates[next_update].second,
                          std::uint64_t{updates[next_update].first} * 60'000);
          ++next_update;
        }
      });
  listener.start();

  netio::LoadGenConfig loadgen_config;
  loadgen_config.port = listener.port();
  loadgen_config.rate = target_rate;
  loadgen_config.seed = 0xBEA7;
  netio::LoadGenerator loadgen(loadgen_config, wire, wire_minutes);
  const netio::LoadGenSummary send_summary = loadgen.run();
  listener.join();  // returns once the FIN sentinel finished the engine

  const runtime::EngineSnapshot snapshot = engine.stats();
  const netio::ListenerSnapshot listen = listener.stats();
  verdicts.flows_out = snapshot.flows_out;
  verdicts.minutes_merged = snapshot.minutes_merged;
  verdicts.samples = snapshot.samples;

  row.sent = send_summary.sent;
  row.received = listen.stage.items_in;
  row.kernel_drops = listen.kernel_drops;
  row.ring_drops = listen.stage.drops;
  row.behind = send_summary.behind;
  row.achieved_send_rate = send_summary.achieved_rate;
  row.flows_per_sec = snapshot.flows_per_sec();
  row.wall_seconds = snapshot.wall_seconds;
  row.backend = listen.backend;
  row.pool_fallbacks = listen.pool_fallbacks;
  row.pool_highwater = snapshot.pool_highwater;
  row.pool_exhausted = snapshot.pool_exhausted;
  row.lossless = row.received == row.sent && row.ring_drops == 0 &&
                 snapshot.decode_errors == 0;
  row.verdicts_match = verdicts == reference;

  // Per-datagram detection latency: minute completion - send stamp.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(loadgen.stamps().size());
  for (const auto& stamp : loadgen.stamps()) {
    if (stamp.minute >= completion_ns.size() ||
        completion_ns[stamp.minute] == 0 ||
        completion_ns[stamp.minute] < stamp.send_ns) {
      continue;  // minute lost on a lossy row (or clock ties)
    }
    latencies_ms.push_back(
        static_cast<double>(completion_ns[stamp.minute] - stamp.send_ns) /
        1e6);
  }
  if (!latencies_ms.empty()) {
    row.p50_ms = util::quantile(latencies_ms, 0.50);
    row.p99_ms = util::quantile(latencies_ms, 0.99);
    row.p999_ms = util::quantile(latencies_ms, 0.999);
    row.max_ms = *std::max_element(latencies_ms.begin(), latencies_ms.end());
  }

  expect(listen.fin_seen, "FIN sentinel reached the listener");
  expect(listen.expected_datagrams == row.sent,
         "sentinel total matches datagrams sent");
  // Accounting identity: everything received is either a decoded datagram,
  // a counted decode error, or a counted ring drop.
  expect(snapshot.datagrams + snapshot.decode_errors + row.ring_drops ==
             row.received,
         "received == decoded + decode_errors + ring_drops");
  if (row.lossless) {
    expect(row.verdicts_match,
           "lossless wire verdicts bit-identical to in-process feed");
  } else {
    std::fprintf(stderr,
                 "note: lossy row (rate=%.0f batch=%zu shards=%zu): "
                 "%llu/%llu received, kernel_drops=%llu — equivalence "
                 "not required\n",
                 target_rate, batch_records, shards,
                 static_cast<unsigned long long>(row.received),
                 static_cast<unsigned long long>(row.sent),
                 static_cast<unsigned long long>(row.kernel_drops));
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header("Latency",
                      "wire-path detection latency (rate x batch x shards)");
  bench::print_expectation(
      "p99 rises with offered rate; batching trades per-datagram latency "
      "for throughput; wire verdicts match in-process verdicts bit for bit");

  // One fixed trace for every row, pre-encoded so neither generation nor
  // encoding pollutes the send schedule.
  const std::uint32_t kMinutes = smoke ? 20 : 120;
  constexpr std::uint32_t kSampling = 4;
  constexpr std::uint64_t kSeed = 1337;
  flowgen::TrafficGenerator generator(flowgen::ixp_se(), kSeed);
  const auto trace = generator.generate(0, kMinutes);
  const auto datagrams = core::flows_to_datagrams(
      trace.flows, kSampling, net::Ipv4Address(0x0AFF0001));
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<std::uint32_t> wire_minutes;
  wire.reserve(datagrams.size());
  for (const auto& datagram : datagrams) {
    wire.push_back(datagram.encode());
    wire_minutes.push_back(
        static_cast<std::uint32_t>(datagram.uptime_ms / 60'000));
  }
  std::printf("trace: %zu flows, %zu datagrams, %zu BGP updates, %u min%s\n\n",
              trace.flows.size(), datagrams.size(), trace.updates.size(),
              kMinutes, smoke ? " [smoke]" : "");

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 4000.0}
            : std::vector<double>{0.0, 2000.0, 8000.0};
  const std::vector<std::size_t> batch_counts =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{1, 256};
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 2};

  // The reference verdict stream is configuration-independent (the
  // engine's determinism contract), so one in-process run anchors every
  // wire row.
  const Verdicts reference =
      reference_verdicts(wire, wire_minutes, trace.updates, 1, 256);
  std::printf("reference (in-process): %zu detections, %llu flows, "
              "%llu minutes\n\n",
              reference.detections.size(),
              static_cast<unsigned long long>(reference.flows_out),
              static_cast<unsigned long long>(reference.minutes_merged));

  util::TextTable table;
  table.set_header({"rate", "batch", "shards", "w2v_p50_ms", "w2v_p99_ms",
                    "w2v_p99.9_ms", "flows/s", "lossless", "match"});
  util::JsonArray results;
  for (const double rate : rates) {
    for (const std::size_t batch_records : batch_counts) {
      for (const std::size_t shards : shard_counts) {
        const WireRow row =
            run_wire(wire, wire_minutes, trace.updates, reference, rate,
                     batch_records, shards, hardware);
        char rate_text[32], p50[32], p99[32], p999[32], fps[32];
        std::snprintf(rate_text, sizeof(rate_text), "%.0f", row.target_rate);
        std::snprintf(p50, sizeof(p50), "%.2f", row.p50_ms);
        std::snprintf(p99, sizeof(p99), "%.2f", row.p99_ms);
        std::snprintf(p999, sizeof(p999), "%.2f", row.p999_ms);
        std::snprintf(fps, sizeof(fps), "%.0f", row.flows_per_sec);
        table.add_row({row.target_rate == 0.0 ? "max" : rate_text,
                       std::to_string(row.batch_records),
                       std::to_string(row.shards), p50, p99, p999, fps,
                       row.lossless ? "yes" : "NO",
                       row.verdicts_match ? "yes" : "NO"});

        util::Json item;
        item.set("target_rate", row.target_rate);
        item.set("achieved_send_rate", row.achieved_send_rate);
        item.set("batch_records", static_cast<double>(row.batch_records));
        item.set("shards", static_cast<double>(row.shards));
        item.set("advisory", row.advisory);
        item.set("backend", row.backend);
        // Wire-to-verdict latency quantiles (send → minute scored).
        item.set("p50_ms", row.p50_ms);
        item.set("p99_ms", row.p99_ms);
        item.set("p999_ms", row.p999_ms);
        item.set("max_ms", row.max_ms);
        item.set("flows_per_sec", row.flows_per_sec);
        item.set("wall_seconds", row.wall_seconds);
        item.set("sent", static_cast<double>(row.sent));
        item.set("received", static_cast<double>(row.received));
        item.set("kernel_drops", static_cast<double>(row.kernel_drops));
        item.set("ring_drops", static_cast<double>(row.ring_drops));
        item.set("behind_deadline", static_cast<double>(row.behind));
        item.set("pool_fallbacks", static_cast<double>(row.pool_fallbacks));
        item.set("pool_highwater", static_cast<double>(row.pool_highwater));
        item.set("pool_exhausted", static_cast<double>(row.pool_exhausted));
        item.set("lossless", row.lossless);
        item.set("verdicts_match", row.verdicts_match);
        results.push_back(std::move(item));
      }
    }
  }
  std::printf("%s", table.render().c_str());

  util::Json out;
  out.set("bench", "latency");
  bench::set_provenance(out);
  out.set("profile", "IXP-SE");
  out.set("smoke", smoke);
  out.set("trace_minutes", static_cast<double>(kMinutes));
  out.set("sampling_rate", static_cast<double>(kSampling));
  out.set("seed", static_cast<double>(kSeed));
  out.set("reference_detections",
          static_cast<double>(reference.detections.size()));
  out.set("results", std::move(results));
  // The smoke run is a correctness gate, not a perf record — don't
  // overwrite the trajectory file with tiny-trace numbers.
  if (!smoke) {
    std::ofstream file("BENCH_latency.json");
    file << out.dump(2) << "\n";
    std::printf("\nwrote BENCH_latency.json (hardware_concurrency=%u)\n",
                hardware);
  }
  if (failures != 0) {
    std::fprintf(stderr, "\n%d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all equivalence and accounting checks passed\n");
  return 0;
}
