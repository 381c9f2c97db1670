// ixpd — always-on ingest daemon: flowgen traffic through the sharded
// streaming engine into the live detector.
//
//   ixpd --profile us2 --minutes 2880 --shards 4 [--seed 7]
//        [--sampling 10] [--queue 4096] [--policy block|drop]
//        [--gen-threads N] [--train-threads N]
//        [--agg-threads N] [--simd auto|scalar|avx2]
//        [--stats-every 240] [--warmup 1440] [--retrain 1440]
//   ixpd --listen <port> [--bind 127.0.0.1] [--recv-batch 32]
//        [--idle-stop-ms 0]
//        --profile ... --minutes ...
//
// The daemon replays a seeded synthetic trace (the repo's stand-in for the
// IXP's sFlow + BGP feeds, DESIGN.md §1) as fast as the engine accepts it:
// every minute of flows is expanded back into sFlow datagrams, encoded to
// wire bytes, interleaved with the BGP blackhole announcements, and pushed
// through decode → shard → collect → merge → score — the same wire bytes
// and the same engine entry as --listen, minus the socket. The score stage
// feeds core::LiveDetector, which trains after the warmup day and then
// emits detections, printed as they happen.
// A stats heartbeat prints every --stats-every minutes of stream time and
// a final throughput report (flows/sec, per-stage utilization) at exit.
//
// --listen replaces the in-process feed with the wire: sFlow datagrams
// arrive over UDP (from tools/scrubber-loadgen or any sFlow v5 exporter)
// through src/netio's batched listener. The BGP schedule is pre-drawn from
// (--profile, --minutes, --seed) — which must match the load generator's —
// and interleaved by export minute exactly as the in-process feed would,
// so verdicts match the in-process run bit for bit (DESIGN.md §11). The
// run ends at the load generator's FIN sentinel (or --idle-stop-ms of
// silence, 0 = wait forever); the report then includes the listener line:
// datagrams/bytes received, drops (ring-full or longer than a wire slot),
// kernel socket-buffer drops.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "args.hpp"
#include "core/live_detector.hpp"
#include "flowgen/generator.hpp"
#include "netio/listener.hpp"
#include "runtime/engine.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scrubber;
using tools::Args;

int run(int argc, char** argv) {
  const Args args(argc, argv, 1,
                  {"profile", "minutes", "seed", "sampling", "gen-threads",  // trace
                   "shards", "queue", "policy",                              // engine
                   "warmup", "retrain", "min-flows", "train-threads",
                   "agg-threads", "simd",                                    // detector
                   "listen", "bind", "recv-batch", "idle-stop-ms",           // wire
                   "stats-every"});
  const auto profile = flowgen::profile_by_name(args.get("profile", "us2"));
  const std::uint32_t minutes = args.number<std::uint32_t>("minutes", 2880);
  const std::uint64_t seed = args.number<std::uint64_t>("seed", 7);
  const auto sampling = args.number<std::uint32_t>("sampling", 10);
  const std::uint32_t stats_every =
      args.number<std::uint32_t>("stats-every", 240);
  // Trace generation threads: the source is deterministic for any value
  // (per-minute RNG streams), so default to every available core.
  const auto gen_threads = args.number<unsigned>(
      "gen-threads", std::max(1U, std::thread::hardware_concurrency()));
  // Learning-plane threads (LiveDetector retraining): deterministic for
  // any value too (DESIGN.md §9), so also default to every core.
  const unsigned train_threads = util::set_training_threads(
      args.number<unsigned>("train-threads", 0));
  // Scoring kernel dispatch: scores are bit-identical at every level
  // (DESIGN.md §13), so this only trades wall time — scalar is the
  // apples-to-apples baseline for perf triage. A level the build or CPU
  // cannot execute is clamped down, never trusted.
  const std::string simd = args.get("simd", "auto");
  if (simd == "scalar") {
    util::set_simd_override(util::SimdLevel::kScalar);
  } else if (simd == "avx2") {
    util::set_simd_override(util::SimdLevel::kAvx2);
  } else if (simd != "auto") {
    throw std::runtime_error("--simd must be auto, scalar or avx2");
  }

  runtime::EngineConfig engine_config;
  engine_config.shards = args.number<std::size_t>("shards", 4);
  engine_config.queue_capacity = args.number<std::size_t>("queue", 4096);
  const std::string policy = args.get("policy", "block");
  if (policy == "drop") {
    engine_config.backpressure = runtime::Backpressure::kDrop;
  } else if (policy != "block") {
    throw std::runtime_error("--policy must be block or drop");
  }
  engine_config.collector.sampling_rate = sampling;

  core::LiveDetectorConfig detector_config;
  detector_config.warmup_min = args.number<std::uint32_t>("warmup", 1440);
  detector_config.retrain_interval_min =
      args.number<std::uint32_t>("retrain", 1440);
  detector_config.min_flows_per_target =
      args.number<std::uint32_t>("min-flows", 8);
  detector_config.seed = seed ^ 0xD43;
  // Feature-build threads for the per-minute aggregation (bit-identical
  // for any value, DESIGN.md §10); 0 = full training pool.
  detector_config.agg_threads = args.number<unsigned>("agg-threads", 0);

  std::uint64_t detections = 0;
  core::LiveDetector detector(
      detector_config, [&](const core::Detection& detection) {
        ++detections;
        const std::string vector =
            detection.vector
                ? " vector=" + std::string(net::vector_name(*detection.vector))
                : "";
        std::printf("DETECT minute=%u target=%s score=%.3f flows=%u%s\n",
                    detection.minute, detection.target.to_string().c_str(),
                    detection.score, detection.flow_count, vector.c_str());
      });

  runtime::Engine engine(
      engine_config,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        detector.ingest_minute(minute, flows);
      });

  flowgen::TrafficGenerator generator(profile, seed);
  std::size_t next_update = 0;
  const std::string listen = args.get("listen", "");
  std::string listener_summary;
  if (!listen.empty()) {
    // Wire mode: flows arrive over UDP; only the BGP control plane is
    // drawn locally (it depends on seed + range alone) and interleaved by
    // the export minute peeked off each datagram — the same ordering the
    // in-process feed below produces.
    generator.schedule_control_plane(0, minutes);
    const auto& updates = generator.updates();
    netio::ListenerConfig listener_config;
    listener_config.bind_address = args.get("bind", "127.0.0.1");
    listener_config.port = args.number<std::uint16_t>("listen", 0);
    listener_config.batch_msgs = args.number<std::size_t>("recv-batch", 32);
    listener_config.idle_stop_ms = args.number<int>("idle-stop-ms", 0);
    netio::UdpListener listener(
        listener_config, engine, [&](std::uint32_t minute) {
          while (next_update < updates.size() &&
                 updates[next_update].first <= minute) {
            engine.push_bgp(updates[next_update].second,
                            std::uint64_t{updates[next_update].first} *
                                60'000);
            ++next_update;
          }
        });
    std::printf("ixpd: profile=%s minutes=%u shards=%zu queue=%zu "
                "policy=%s listen=%s:%u simd=%s seed=%llu\n",
                profile.name.c_str(), minutes, engine_config.shards,
                engine_config.queue_capacity, policy.c_str(),
                listener_config.bind_address.c_str(), listener.port(),
                util::simd_level_name(util::simd_level()),
                static_cast<unsigned long long>(seed));
    std::fflush(stdout);
    // This (the main) thread becomes the engine's producer: it runs the
    // receive loop, pushes every datagram and BGP update, and finishes
    // the engine when the FIN sentinel arrives.
    listener.run();
    const netio::ListenerSnapshot snapshot = listener.stats();
    if (!snapshot.fin_seen) engine.finish();  // idle timeout: drain anyway
    listener_summary = snapshot.summary();
  } else {
    std::printf("ixpd: profile=%s minutes=%u shards=%zu queue=%zu "
                "policy=%s sampling=1/%u gen-threads=%u "
                "train-threads=%u agg-threads=%u simd=%s seed=%llu\n",
                profile.name.c_str(), minutes, engine_config.shards,
                engine_config.queue_capacity, policy.c_str(), sampling,
                gen_threads, train_threads, detector_config.agg_threads,
                util::simd_level_name(util::simd_level()),
                static_cast<unsigned long long>(seed));

    const net::Ipv4Address agent = net::Ipv4Address::from_octets(10, 99, 0, 1);
    generator.generate_stream(
        0, minutes, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
        [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
          // BGP first: announcements effective in minute M must be in the
          // registry before M's bin closes (same order the route server
          // feed would deliver them).
          const auto& updates = generator.updates();
          while (next_update < updates.size() &&
                 updates[next_update].first <= minute) {
            engine.push_bgp(updates[next_update].second,
                            std::uint64_t{updates[next_update].first} * 60'000);
            ++next_update;
          }
          for (const auto& datagram :
               core::flows_to_datagrams(flows, sampling, agent)) {
            engine.push_wire(datagram.encode());
          }
          if (stats_every != 0 && minute != 0 && minute % stats_every == 0) {
            std::printf("STATS minute=%u %s\n", minute,
                        engine.stats().stats_line().c_str());
            std::fflush(stdout);
          }
        },
        gen_threads);
    engine.finish();
  }

  const runtime::EngineSnapshot snapshot = engine.stats();
  std::printf("\n--- ixpd report ---\n%s", snapshot.report().c_str());
  if (!listener_summary.empty()) {
    std::printf("%s\n", listener_summary.c_str());
  }
  std::printf("detector: trained=%d retrains=%u window_flows=%zu "
              "detections=%llu\n",
              detector.ready(), detector.retrain_count(),
              detector.window_flows(),
              static_cast<unsigned long long>(detections));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ixpd: %s\n", error.what());
    return 1;
  }
}
