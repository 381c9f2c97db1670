// bench_e2e: wire → trained detector → verdict (see README.md).
//
//   bench_e2e --workload se_live|ce1_ingest|wire_paced --seed N
//             --seconds S --trace 0|1 [--smoke] [--spans-out FILE]
//
// Feeds a pre-generated, pre-encoded flowgen trace through
// runtime::Engine into a core::LiveDetector that trains and emits
// detections, repeating the whole run until S seconds of measurement have
// passed. Everything is measured from outside the program: the benchmark
// times its own calls into each layer's public functions and reads
// Engine::stats() / UdpListener::stats(). --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced repetitions and
// prints the per-layer metrics. The last line of stdout is one JSON
// object; every correctness gate that fails makes the exit code 1.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/collector.hpp"
#include "core/live_detector.hpp"
#include "net/sflow.hpp"
#include "netio/listener.hpp"
#include "runtime/engine.hpp"
#include "sender.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scrubber;
using bench_e2e::kNone;
using bench_e2e::now_ns;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace 0|1");
      options.trace = value == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

// -------------------------------------------------------------- workloads

// Fixed for every workload and recorded in the output, so the stage
// threads (feed, decode/route, 1 collect, merge, score) fit four cores
// and the numbers measure the program rather than the scheduler.
constexpr std::size_t kShards = 1;
constexpr unsigned kAggThreads = 1;
constexpr unsigned kTrainThreads = 1;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kPoolSlots = 4096;
constexpr std::size_t kSlotBytes = 8192;
constexpr unsigned kGenThreads = 4;
/// Sender lateness (p99) above which a wire_paced repetition is invalid:
/// a late sender offers a different load than the schedule says. 5 ms is
/// 20 mean inter-arrival gaps, a twentieth of the 128 ms a 512-event input
/// batch takes to fill at 4 k/s; the sender itself usually stays within
/// tens of microseconds, but loses a few ms when a busy stage thread
/// shares its core.
constexpr double kLateP99BoundMs = 5.0;
constexpr std::size_t kMaxInvalid = 3;
/// In-process feed's cap on datagrams in flight: below the input ring's
/// 4096 records minus one pending 512-record batch, so the ring never
/// fills (see feed_in_process).
constexpr std::uint64_t kFeedInFlight = 2048;
/// Set-up-only constructions per process on top of one per repetition.
constexpr int kExtraSetups = 16;

struct Workload {
  std::string name;
  flowgen::IxpProfile profile;
  std::uint32_t minutes = 0;
  std::uint32_t warmup_min = 0;
  std::uint32_t retrain_min = 0;
  std::uint32_t sampling = 10;  ///< sFlow 1-in-N packet sampling
  bool wire = false;  ///< loopback UDP + paced sender instead of in-process
  double rate = 0.0;  ///< datagrams per second (wire only)
};

Workload workload_by_name(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "se_live" || name == "wire_paced") {
    // IXP-SE, 4 days: day 1 warm-up, then 3 scored days, daily retrains.
    w.profile = flowgen::ixp_se();
    w.minutes = smoke ? 1440 : 4 * 1440;
    w.warmup_min = smoke ? 360 : 1440;
    w.retrain_min = smoke ? 360 : 1440;
    if (name == "wire_paced") {
      w.wire = true;
      w.rate = 4000.0;  // about half of se_live's saturation rate
    }
  } else if (name == "ce1_ingest") {
    // IXP-CE1, 1 day, ~62 samples per datagram; warm-up longer than the
    // trace, so the detector only balances and the ingest path dominates.
    w.profile = flowgen::ixp_ce1();
    w.minutes = smoke ? 1080 : 1440;
    w.warmup_min = w.minutes + 1;
    w.retrain_min = 1440;
  } else {
    throw std::invalid_argument("unknown workload " + name +
                                " (se_live, ce1_ingest, wire_paced)");
  }
  return w;
}

runtime::EngineConfig engine_config(const Workload& w) {
  runtime::EngineConfig config;
  config.shards = kShards;
  config.queue_capacity = kQueueCapacity;
  config.backpressure = runtime::Backpressure::kBlock;
  config.collector.sampling_rate = w.sampling;
  config.wire_pool_slots = kPoolSlots;
  config.wire_slot_bytes = kSlotBytes;
  return config;
}

core::LiveDetectorConfig detector_config(const Workload& w, std::uint64_t seed) {
  core::LiveDetectorConfig config;
  config.warmup_min = w.warmup_min;
  config.retrain_interval_min = w.retrain_min;
  config.min_flows_per_target = 8;
  config.seed = seed ^ 0xD43;
  config.agg_threads = kAggThreads;
  return config;
}

netio::ListenerConfig listener_config() {
  netio::ListenerConfig config;
  config.port = 0;  // kernel-assigned; the sender reads port()
  config.batch_msgs = 64;
  config.rcvbuf_bytes = 1 << 23;
  config.idle_stop_ms = 20'000;  // a lost FIN ends the run instead of hanging
  config.backend = netio::RecvBackend::kRecvmmsg;
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
  for (const auto& acl : detection.acl_entries) out += " acl=" + acl;
  return out;
}

/// FNV-1a over the formatted verdict stream (one line per detection).
std::uint64_t digest(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& line : lines) {
    for (const char c : line + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  return h;
}

// ------------------------------------------------------------ diagnostics

/// Fixed single-thread work, timed before each repetition and printed
/// next to it: drift of the shared machine shows here, not in a metric.
/// One loop is compute-bound (a register-resident xorshift chain), one
/// memory-bound (a dependent random walk over 32 MiB, past the L2 and
/// into the L3 and DRAM other tenants share).
struct ReferenceLoops {
  double cpu_ms = 0.0;
  double mem_ms = 0.0;
};

volatile std::uint64_t reference_loop_sink = 0;

ReferenceLoops reference_loops() {
  ReferenceLoops out;
  std::uint64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  out.cpu_ms = static_cast<double>(now_ns() - start) / 1e6;
  // A single-cycle permutation (Sattolo), built once, so the walk visits
  // every slot.
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> perm(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) perm[i] = static_cast<std::uint32_t>(i);
    std::uint64_t r = 0x2545F4914F6CDD1DULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      r ^= r << 13;
      r ^= r >> 7;
      r ^= r << 17;
      std::swap(perm[i], perm[r % i]);
    }
    return perm;
  }();
  start = now_ns();
  std::uint32_t at = 0;
  for (int i = 0; i < 200'000; ++i) at = next[at];
  out.mem_ms = static_cast<double>(now_ns() - start) / 1e6;
  reference_loop_sink = x + at;
  return out;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Returns freed heap to the kernel and restarts VmHWM at the current RSS;
/// the returned /proc status is the baseline the next peak is taken from.
std::string reset_rss_baseline() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
  return read_file("/proc/self/status");
}

// ------------------------------------------------------------------ spans

enum SpanName : std::uint8_t {
  kRun,           // feed thread: first push .. finish() returned
  kPush,          // feed thread: a minute's push_bgp calls, or one datagram
                  // from wanting a slot until push_wire returned
  kIngestMinute,  // score thread: LiveDetector::ingest_minute
  kReplay,        // score thread: the replays below (tracing overhead)
  kBalance,       // replay: Balancer::add_minute + take_balanced
  kAggregate,     // replay: IxpScrubber::aggregate (incl. rule tagging)
  kTransform,     // replay: Pipeline::transform_dataset (WoE, stages)
  kMargin,        // replay: Classifier::score_batch
};
constexpr const char* kSpanNames[] = {
    "run", "runtime.push", "core.ingest_minute", "trace.replay",
    "core.balance", "core.aggregate", "ml.transform", "ml.margin"};

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;  ///< index in the same log; -1 = the run span
  std::uint32_t minute = 0;
  SpanName name = kRun;
  bool retrain = false;  ///< ingest_minute during which a retrain ran
};

// ------------------------------------------------------------- repetition

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  ReferenceLoops reference;
  double late_p99_ms = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t received = 0;
  std::vector<double> lags_ms;
  std::vector<std::string> verdicts;
  runtime::EngineSnapshot engine;
  std::optional<netio::ListenerSnapshot> listen;
  std::uint32_t retrains = 0;
  std::uint64_t detections = 0;
  std::size_t window_flows = 0;
  std::size_t attacks_detected = 0;
  std::uint64_t ingest_minute_ns = 0;  ///< total time inside ingest_minute
  // Traced repetitions only.
  bool traced = false;
  std::vector<Span> feed_spans;   ///< [0] is the run span
  std::vector<Span> score_spans;
  std::uint64_t rows_scored = 0;
  std::uint64_t replay_mismatches = 0;  ///< replays that disagree with the call

  [[nodiscard]] bool valid() const { return late_p99_ms <= kLateP99BoundMs; }
  [[nodiscard]] std::uint64_t delivered() const { return engine.datagrams; }
};

/// The system under test. Members are built in declaration order by
/// construct(), and torn down in reverse: listener, engine, detector.
struct System {
  std::optional<core::LiveDetector> detector;
  std::optional<runtime::Engine> engine;
  std::unique_ptr<netio::UdpListener> listener;
  std::size_t next_update = 0;

  /// Builds everything the first datagram needs; returns seconds taken.
  double construct(const Workload& w, const bench_e2e::Trace& trace,
                   std::uint64_t seed, core::LiveDetector::DetectionSink on_detect,
                   core::MinuteBatchSink on_minute) {
    const std::uint64_t start = now_ns();
    detector.emplace(detector_config(w, seed), std::move(on_detect));
    engine.emplace(engine_config(w), std::move(on_minute));
    if (w.wire) {
      listener = std::make_unique<netio::UdpListener>(
          listener_config(), *engine,
          [this, &trace](std::uint32_t minute) { push_updates(trace, minute); });
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  }

  /// Pushes every BGP update effective at or before `minute` (the order
  /// a route-server feed delivers them: before the minute's flows).
  void push_updates(const bench_e2e::Trace& trace, std::uint32_t minute) {
    while (next_update < trace.updates.size() &&
           trace.updates[next_update].first <= minute) {
      engine->push_bgp(trace.updates[next_update].second,
                       std::uint64_t{trace.updates[next_update].first} * 60'000);
      ++next_update;
    }
  }
};

/// Replays, on the score thread, the phases of every kReplayEvery-th
/// ingest_minute call on the detector's scrubber. Its state is unchanged
/// since the call returned, so a replay redoes the call's own work;
/// sampling keeps the replays' cost (pure tracing overhead) near a tenth
/// of the score stage instead of doubling it. Every scored minute also
/// gets its targets counted (one aggregated row per destination address),
/// so rows_scored is exact.
constexpr std::uint32_t kReplayEvery = 8;

void replay_minute(const core::LiveDetector& detector, const Workload& w,
                   std::uint64_t seed, std::uint32_t minute,
                   std::span<const net::FlowRecord> flows,
                   std::uint64_t detections_added, Rep& rep) {
  const bool scored = detector.ready() && !flows.empty();
  const bool sampled = minute % kReplayEvery == 0;
  if (!scored && !sampled) return;
  auto& spans = rep.score_spans;
  const auto replay = static_cast<std::int32_t>(spans.size());
  spans.push_back({now_ns(), 0, -1, minute, kReplay, false});
  std::size_t targets = 0;
  if (scored) {
    std::vector<std::uint32_t> dst(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) dst[i] = flows[i].dst_ip.value();
    std::sort(dst.begin(), dst.end());
    targets = static_cast<std::size_t>(std::unique(dst.begin(), dst.end()) - dst.begin());
    rep.rows_scored += targets;
  }
  auto timed = [&](SpanName name, const auto& body) {
    const std::uint64_t start = now_ns();
    body();
    spans.push_back({start, now_ns(), replay, minute, name, false});
  };
  if (sampled) {
    const core::LiveDetectorConfig config = detector_config(w, seed);
    timed(kBalance, [&] {
      core::Balancer balancer(config.seed ^ minute);
      balancer.add_minute(minute, flows);
      const auto balanced = balancer.take_balanced();
    });
    if (scored) {
      const core::IxpScrubber& scrubber = detector.scrubber();
      core::AggregatedDataset aggregated;
      ml::Dataset transformed;
      std::vector<double> scores;
      timed(kAggregate, [&] { aggregated = scrubber.aggregate(flows); });
      timed(kTransform, [&] {
        transformed = scrubber.pipeline().transform_dataset(aggregated.data);
      });
      timed(kMargin, [&] {
        scores.assign(transformed.n_rows(), 0.0);
        scrubber.pipeline().classifier().score_batch(transformed, scores);
      });
      std::uint64_t detections = 0;
      for (std::size_t i = 0; i < aggregated.size(); ++i) {
        if (aggregated.meta[i].flow_count >= config.min_flows_per_target &&
            scores[i] >= 0.5) {
          ++detections;
        }
      }
      if (detections != detections_added || aggregated.size() != targets) {
        ++rep.replay_mismatches;
      }
    }
  }
  spans[static_cast<std::size_t>(replay)].end = now_ns();
}

/// Feeds the whole trace from this thread at max rate (closed loop,
/// lossless under kBlock): bytes go into pooled WireSlots and through
/// push_wire(WireSlot). The feed never lets more than kFeedInFlight
/// datagrams be in flight, so the input ring never fills and push_wire
/// never spins: backpressure puts the feed to sleep instead, and the
/// spinning stage threads keep the four cores to themselves. Returns the
/// run's [start, end] steady-clock ns.
std::pair<std::uint64_t, std::uint64_t> feed_in_process(
    System& system, const bench_e2e::Trace& trace,
    std::vector<std::uint64_t>& offer, bool traced, Rep& rep) {
  runtime::Engine& engine = *system.engine;
  runtime::WireBufferPool& pool = *engine.wire_pool();
  const std::uint64_t start = now_ns();
  std::uint32_t last_minute = ~0U;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t minute = trace.minutes[i];
    if (minute != last_minute) {
      offer[minute] = now_ns();
      last_minute = minute;
      const std::uint64_t push_start = traced ? now_ns() : 0;
      system.push_updates(trace, minute);
      if (traced) rep.feed_spans.push_back({push_start, now_ns(), 0, minute, kPush, false});
    }
    const std::span<const std::uint8_t> bytes = trace.datagram(i);
    const std::uint64_t push_start = traced ? now_ns() : 0;
    while (pool.in_use() >= kFeedInFlight) {
      // 1 ms is a few dozen datagrams of engine work at most, far below
      // the 2048 in flight, and keeps the feed's wake-ups off the cores.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    runtime::WireSlot slot = pool.try_acquire();
    if (!slot) throw std::logic_error("wire pool dry below the in-flight cap");
    std::memcpy(slot.data(), bytes.data(), bytes.size());
    slot.set_size(bytes.size());
    engine.push_wire(std::move(slot));
    if (traced) rep.feed_spans.push_back({push_start, now_ns(), 0, minute, kPush, false});
  }
  engine.finish();
  return {start, now_ns()};
}

/// Offers the trace over loopback UDP on the paced schedule; the listener
/// thread is the engine's producer and finishes it on the FIN sentinel.
std::pair<std::uint64_t, std::uint64_t> feed_wire(
    System& system, const bench_e2e::Trace& trace,
    const std::vector<std::uint64_t>& offsets, std::vector<std::uint64_t>& offer,
    Rep& rep) {
  netio::UdpListener& listener = *system.listener;
  listener.start();
  // A short lead so the listener is polling before the first due time.
  const std::uint64_t start = now_ns() + 2'000'000;
  for (std::size_t i = trace.size(); i-- > 0;) {
    offer[trace.minutes[i]] = start + offsets[i];
  }
  bench_e2e::SendLog log;
  try {
    log = bench_e2e::send_paced(trace, offsets, start, listener.port());
  } catch (...) {
    listener.stop();
    listener.join();
    throw;
  }
  listener.join();
  const std::uint64_t end = now_ns();
  rep.listen = listener.stats();
  if (!rep.listen->fin_seen) system.engine->finish();  // idle stop: drain anyway
  rep.late_p99_ms = bench_e2e::late_p99_ms(log);
  rep.offered = log.sent;
  rep.received = rep.listen->stage.items_in;
  return {start, end};
}

Rep run_rep(const Workload& w, const bench_e2e::Trace& trace, std::uint64_t seed,
            const std::vector<std::uint64_t>& offsets, bool traced) {
  Rep rep;
  rep.traced = traced;
  rep.reference = reference_loops();
  const std::size_t slots = trace.trace_minutes + 2;
  std::vector<std::uint64_t> offer(slots, kNone);
  std::vector<std::uint64_t> ready(slots, kNone);
  std::vector<std::uint8_t> scored(slots, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hits;  // minute, target
  if (traced) {
    rep.feed_spans.reserve(trace.size() + trace.trace_minutes + 1);
    rep.score_spans.reserve(std::size_t{trace.trace_minutes} * 6);
  }
  const std::string baseline = reset_rss_baseline();

  System system;
  auto on_detect = [&](const core::Detection& detection) {
    rep.verdicts.push_back(format_detection(detection));
    hits.emplace_back(detection.minute, detection.target.value());
  };
  auto on_minute = [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
    core::LiveDetector& detector = *system.detector;
    const std::uint64_t start = now_ns();
    const std::uint32_t retrains = detector.retrain_count();
    const std::uint64_t detections = detector.detections();
    detector.ingest_minute(minute, flows);
    const std::uint64_t end = now_ns();
    rep.ingest_minute_ns += end - start;
    if (minute < slots) {
      ready[minute] = end;
      scored[minute] = detector.ready() && !flows.empty();
    }
    if (!traced) return;
    rep.score_spans.push_back({start, end, -1, minute, kIngestMinute,
                               detector.retrain_count() != retrains});
    replay_minute(detector, w, seed, minute, flows,
                  detector.detections() - detections, rep);
  };
  rep.setup_s = system.construct(w, trace, seed, on_detect, on_minute);

  const auto [start, end] =
      w.wire ? feed_wire(system, trace, offsets, offer, rep)
             : feed_in_process(system, trace, offer, traced, rep);
  rep.wall_s = static_cast<double>(end - start) / 1e9;
  rep.peak_rss_mib = bench_e2e::peak_above_baseline_mib(
      baseline, read_file("/proc/self/status"));
  if (traced) rep.feed_spans.insert(rep.feed_spans.begin(), {start, end, -1, 0, kRun, false});

  rep.engine = system.engine->stats();
  if (!w.wire) rep.offered = rep.received = trace.size();
  rep.retrains = system.detector->retrain_count();
  rep.detections = system.detector->detections();
  rep.window_flows = system.detector->window_flows();

  // Verdict lag over the scored minutes; a detector that never trains
  // only balances, and then every ingested minute is its verdict.
  const bool any_scored = std::find(scored.begin(), scored.end(), 1) != scored.end();
  for (std::size_t m = 0; m < slots; ++m) {
    if (any_scored && !scored[m]) ready[m] = kNone;
  }
  rep.lags_ms = bench_e2e::verdict_lags_ms(offer, ready);

  for (const auto& attack : trace.attacks) {
    const bool hit = std::any_of(hits.begin(), hits.end(), [&](const auto& h) {
      return h.second == attack.victim.value() && h.first >= attack.start_minute &&
             h.first < attack.end_minute;
    });
    rep.attacks_detected += hit ? 1 : 0;
  }
  return rep;
}

/// One set-up of the system with nothing fed, for the set-up sample.
double setup_only(const Workload& w, const bench_e2e::Trace& trace,
                  std::uint64_t seed) {
  System system;
  const double seconds = system.construct(
      w, trace, seed, nullptr, [](std::uint32_t, std::span<const net::FlowRecord>) {});
  system.listener.reset();
  system.engine->finish();
  return seconds;
}

// ---------------------------------------------------------- serial replay

/// The ingest path replayed serially on this thread: SflowView::decode
/// per datagram, then core::Collector::ingest_samples (binning, minute
/// close, labelling), each timed on its own.
struct SerialReplay {
  double decode_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t datagrams = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t samples = 0;
  std::uint64_t flows = 0;
  std::uint64_t minutes = 0;
};

SerialReplay serial_replay(const Workload& w, const bench_e2e::Trace& trace) {
  SerialReplay out;
  core::Collector::Config config;
  config.sampling_rate = w.sampling;
  core::Collector collector(config, [&](std::uint32_t, std::span<const net::FlowRecord> flows) {
    ++out.minutes;
    out.flows += flows.size();
  });
  std::vector<net::SflowFlowSample> samples;
  samples.reserve(256);
  std::size_t next_update = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t collect_ns = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t t0 = now_ns();
    while (next_update < trace.updates.size() &&
           trace.updates[next_update].first <= trace.minutes[i]) {
      collector.ingest_bgp(trace.updates[next_update].second,
                           std::uint64_t{trace.updates[next_update].first} * 60'000);
      ++next_update;
    }
    const std::uint64_t t1 = now_ns();
    samples.clear();
    net::SflowHeaderView header;
    const net::DecodeStatus status = net::SflowView::decode(
        trace.datagram(i), header,
        [&](const net::SflowFlowSample& sample) { samples.push_back(sample); });
    const std::uint64_t t2 = now_ns();
    decode_ns += t2 - t1;
    if (status != net::DecodeStatus::kOk) {
      ++out.decode_errors;
      collect_ns += t1 - t0;
      continue;
    }
    ++out.datagrams;
    out.samples += samples.size();
    collector.ingest_samples(header.uptime_ms, samples);
    collect_ns += (t1 - t0) + (now_ns() - t2);
  }
  const std::uint64_t t = now_ns();
  collector.flush();
  collect_ns += now_ns() - t;
  out.decode_s = static_cast<double>(decode_ns) / 1e9;
  out.collect_s = static_cast<double>(collect_ns) / 1e9;
  return out;
}

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Gates {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  [[nodiscard]] bool passed() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

double sum_span(const std::vector<Span>& spans, SpanName name) {
  std::uint64_t total = 0;
  for (const auto& span : spans) {
    if (span.name == name) total += span.end - span.start;
  }
  return static_cast<double>(total) / 1e9;
}

/// Per-layer self-time table of one traced repetition, in seconds. Rows
/// follow the score thread, where every verdict is produced: each second
/// of the run is spent either waiting for the ingest path (the run span's
/// self time), inside ingest_minute, or in the replays (tracing
/// overhead). ingest_minute time is split by phase: whole calls during
/// which a retrain ran count as retrain; the other calls are split in the
/// proportions the sampled replays measured (ratio estimate: replayed
/// phase time scaled by all calls' time over the replayed calls' time),
/// and the emit row is what the phases leave.
struct SelfTimes {
  double wall = 0.0;
  double score_wait = 0.0;
  double ingest_minute = 0.0;
  double balance = 0.0;
  double aggregate = 0.0;
  double transform = 0.0;
  double margin = 0.0;
  double retrain = 0.0;
  double emit = 0.0;
  double replay = 0.0;

  [[nodiscard]] double rows_sum() const {
    return score_wait + balance + aggregate + transform + margin + retrain + emit +
           replay;
  }
};

SelfTimes self_times(const Rep& rep) {
  SelfTimes t;
  const Span& run = rep.feed_spans.front();
  t.wall = static_cast<double>(run.end - run.start) / 1e9;
  std::uint64_t covered_ns = 0;
  std::map<std::uint32_t, std::uint64_t> call_ns;  // non-retrain calls
  std::uint64_t all_calls_ns = 0;
  std::uint64_t sampled_calls_ns = 0;
  std::map<SpanName, std::uint64_t> phase_ns;
  for (const auto& span : rep.score_spans) {
    const std::uint64_t ns = span.end - span.start;
    if (span.parent == -1) {
      const std::uint64_t begin = std::max(span.start, run.start);
      const std::uint64_t end = std::min(span.end, run.end);
      if (end > begin) covered_ns += end - begin;
    }
    if (span.name == kIngestMinute) {
      t.ingest_minute += static_cast<double>(ns) / 1e9;
      if (span.retrain) {
        t.retrain += static_cast<double>(ns) / 1e9;
      } else {
        call_ns[span.minute] = ns;
        all_calls_ns += ns;
      }
    } else if (span.name == kReplay) {
      t.replay += static_cast<double>(ns) / 1e9;
    }
  }
  for (const auto& span : rep.score_spans) {
    const auto call = call_ns.find(span.minute);
    if (span.parent == -1 || call == call_ns.end()) continue;
    if (span.name == kBalance) sampled_calls_ns += call->second;
    phase_ns[span.name] += span.end - span.start;
  }
  const double scale = sampled_calls_ns == 0 ? 0.0
                                             : static_cast<double>(all_calls_ns) /
                                                   static_cast<double>(sampled_calls_ns);
  auto phase = [&](SpanName name) {
    return static_cast<double>(phase_ns[name]) / 1e9 * scale;
  };
  t.score_wait = t.wall - static_cast<double>(covered_ns) / 1e9;
  t.balance = phase(kBalance);
  t.aggregate = phase(kAggregate);
  t.transform = phase(kTransform);
  t.margin = phase(kMargin);
  t.emit = t.ingest_minute - t.retrain - t.balance - t.aggregate - t.transform - t.margin;
  return t;
}

/// Writes one traced repetition's spans as TSV: feed spans first (id 0 is
/// the run span, every other feed span its child), then score spans.
void write_spans(const std::string& path, const Rep& rep) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::uint64_t origin = rep.feed_spans.front().start;
  const auto score_base = static_cast<std::int64_t>(rep.feed_spans.size());
  out << "id\tparent\tthread\tname\tminute\tstart_ns\tend_ns\tretrain\n";
  auto write = [&](const Span& s, std::int64_t id, std::int64_t parent, const char* thread) {
    out << id << '\t' << parent << '\t' << thread << '\t' << kSpanNames[s.name] << '\t'
        << s.minute << '\t' << s.start - origin << '\t' << s.end - origin << '\t'
        << s.retrain << '\n';
  };
  for (std::size_t i = 0; i < rep.feed_spans.size(); ++i) {
    write(rep.feed_spans[i], static_cast<std::int64_t>(i), i == 0 ? -1 : 0, "feed");
  }
  for (std::size_t i = 0; i < rep.score_spans.size(); ++i) {
    const Span& s = rep.score_spans[i];
    write(s, score_base + static_cast<std::int64_t>(i),
          s.parent == -1 ? 0 : score_base + s.parent, "score");
  }
}

double median_of(const std::vector<const Rep*>& reps,
                 const std::function<double(const Rep&)>& get) {
  std::vector<double> values;
  for (const Rep* rep : reps) values.push_back(get(*rep));
  return bench_e2e::median(std::move(values));
}

const runtime::StageSnapshot& stage(const runtime::EngineSnapshot& snap,
                                    const std::string& name) {
  for (const auto& s : snap.stages) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("engine reports no stage " + name);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(const Options& options) {
  const Workload w = workload_by_name(options.workload, options.smoke);
  util::set_training_threads(kTrainThreads);

  // The input comes first, before any timer starts: the trace is
  // generated on kGenThreads threads, which build_trace joins, and
  // encoded once.
  const bench_e2e::Trace trace =
      bench_e2e::build_trace(w.profile, w.minutes, w.sampling, options.seed, kGenThreads);
  const std::vector<std::uint64_t> offsets =
      w.wire ? bench_e2e::poisson_offsets_ns(trace.size(), w.rate, options.seed ^ 0x5E4D)
             : std::vector<std::uint64_t>{};
  std::printf("bench_e2e workload=%s seed=%llu seconds=%.0f trace=%d smoke=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace, options.smoke);
  std::printf("settings: shards=%zu agg_threads=%u train_threads=%u queue=%zu "
              "pool_slots=%zu slot_bytes=%zu backpressure=block sampling=1/%u "
              "warmup=%u retrain=%u rate=%.0f\n",
              kShards, kAggThreads, kTrainThreads, kQueueCapacity, kPoolSlots,
              kSlotBytes, w.sampling, w.warmup_min, w.retrain_min, w.rate);
  std::printf("trace: profile=%s minutes=%u flows=%llu samples=%llu datagrams=%zu "
              "bgp_updates=%zu attacks=%zu max_datagram=%zuB\n",
              w.profile.name.c_str(), trace.trace_minutes,
              static_cast<unsigned long long>(trace.flows),
              static_cast<unsigned long long>(trace.samples), trace.size(),
              trace.updates.size(), trace.attacks.size(), trace.max_datagram_bytes);
  std::fflush(stdout);
  Gates gates;
  gates.check(trace.max_datagram_bytes <= kSlotBytes, "every datagram fits a pool slot");

  // Repetitions until the measuring time is spent; --trace 1 alternates
  // untraced and traced ones so the tracing overhead is measured too.
  std::vector<Rep> reps;
  std::size_t invalid = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (reps.empty() || now_ns() < deadline ||
         (options.trace && reps.size() < 4)) {
    const bool traced = options.trace && reps.size() % 2 == 1;
    Rep rep = run_rep(w, trace, options.seed, offsets, traced);
    std::printf("rep %zu%s: wall=%.4fs setup=%.4fs flows/s=%.0f peak_rss=%.1fMiB "
                "ingest_minute=%.1f%% lag_p50=%.2fms lag_p99=%.2fms lag_samples=%zu "
                "detections=%llu retrains=%u ref_cpu_ms=%.2f ref_mem_ms=%.2f "
                "late_p99_ms=%.3f%s\n",
                reps.size(), traced ? " (traced)" : "", rep.wall_s, rep.setup_s,
                static_cast<double>(rep.engine.flows_out) / rep.wall_s, rep.peak_rss_mib,
                100.0 * static_cast<double>(rep.ingest_minute_ns) / 1e9 / rep.wall_s,
                bench_e2e::quantile(rep.lags_ms, 0.50), bench_e2e::quantile(rep.lags_ms, 0.99),
                rep.lags_ms.size(), static_cast<unsigned long long>(rep.detections),
                rep.retrains, rep.reference.cpu_ms, rep.reference.mem_ms, rep.late_p99_ms,
                rep.valid() ? "" : " INVALID");
    std::fflush(stdout);
    if (!rep.valid()) {
      // A late sender offered another load than the schedule: not counted.
      if (++invalid > kMaxInvalid) {
        gates.check(false, "at most 3 repetitions invalidated by sender lateness");
        break;
      }
      continue;
    }
    reps.push_back(std::move(rep));
  }

  if (reps.empty()) throw std::runtime_error("no valid repetition");
  // Set-up-only builds come after the repetitions so that repetition 0
  // is the process's first build of the system (see peak_rss_mib).
  std::vector<double> setups;
  for (const Rep& rep : reps) setups.push_back(rep.setup_s);
  for (int i = 0; i < kExtraSetups; ++i) setups.push_back(setup_only(w, trace, options.seed));

  // ---- correctness gates (every repetition) ----
  const SerialReplay serial = serial_replay(w, trace);
  std::uint64_t reference_digest = 0;
  if (w.wire) {
    // se_live's in-process feed of the same trace and seed: the wire
    // verdict stream must match it byte for byte.
    Workload in_process = w;
    in_process.wire = false;
    reference_digest = digest(run_rep(in_process, trace, options.seed, {}, false).verdicts);
  } else {
    reference_digest = digest(reps.front().verdicts);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& rep : reps) {
    const std::uint64_t lost = rep.offered - std::min(rep.offered, rep.delivered());
    attempted += rep.offered;
    failed += lost;
    const auto& snap = rep.engine;
    const std::uint64_t ring_drops =
        rep.listen ? rep.listen->stage.drops : snap.input_drops;
    gates.check(rep.offered == rep.received,
                "sent == received (kernel drops: " +
                    std::to_string(rep.listen ? rep.listen->kernel_drops : 0) + ")");
    gates.check(rep.received == snap.datagrams + snap.decode_errors + ring_drops,
                "received == decoded + decode_errors + ring_drops");
    gates.check(lost == 0, "lossless: every offered datagram delivered");
    gates.check(digest(rep.verdicts) == reference_digest,
                w.wire ? "wire verdicts byte-identical to the in-process feed"
                       : "verdicts identical across repetitions");
    gates.check(snap.flows_out == serial.flows && snap.minutes_merged == serial.minutes &&
                    snap.samples == serial.samples && snap.decode_errors == serial.decode_errors,
                "engine flow/minute/sample/decode-error counts equal the serial replay");
    if (w.warmup_min < w.minutes) {
      gates.check(rep.detections > 0, "detections > 0");
      gates.check(rep.retrains >= 1, "retrains >= 1");
      gates.check(rep.attacks_detected > 0, "attacks_detected > 0");
    }
    if (rep.traced) {
      gates.check(rep.replay_mismatches == 0,
                  "score-plane replays reproduce their calls' rows and detections");
      const SelfTimes t = self_times(rep);
      gates.check(std::abs(t.rows_sum() - t.wall) <= 0.1 * t.wall,
                  "self-time rows sum to within 10% of the traced wall");
    }
  }

  // ---- metrics ----
  std::vector<const Rep*> untraced;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) (rep.traced ? traced : untraced).push_back(&rep);
  if (untraced.empty() || (options.trace && traced.empty())) {
    throw std::runtime_error("too few valid repetitions to report");
  }
  std::vector<Metric> metrics;
  if (!options.trace) {
    // Lag percentiles per repetition, then their median over repetitions:
    // a pooled tail would belong to whichever repetition met a stall of
    // the shared machine.
    std::size_t lag_samples = 0;
    for (const Rep* rep : untraced) lag_samples += rep->lags_ms.size();
    metrics.push_back({"flows_per_s",
                       median_of(untraced, [](const Rep& r) {
                         return static_cast<double>(r.engine.flows_out) / r.wall_s;
                       }),
                       "1/s", untraced.size()});
    metrics.push_back({"verdict_lag_p50_ms",
                       median_of(untraced, [](const Rep& r) {
                         return bench_e2e::supported_quantile(r.lags_ms, 0.50);
                       }),
                       "ms", lag_samples});
    metrics.push_back({"verdict_lag_p99_ms",
                       median_of(untraced, [](const Rep& r) {
                         return bench_e2e::supported_quantile(r.lags_ms, 0.99);
                       }),
                       "ms", lag_samples});
    metrics.push_back({"delivered_frac",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(attempted - failed) /
                                            static_cast<double>(attempted),
                       "frac", untraced.size()});
    metrics.push_back({"setup_s", bench_e2e::median(setups), "s", setups.size()});
    // The first build of the system in a fresh process: later builds
    // reuse heap pages earlier ones left resident, so their peaks above
    // the baseline shrink by however much the allocator kept.
    metrics.push_back({"peak_rss_mib", reps.front().peak_rss_mib, "MiB", 1});
  } else {
    const Rep& last = *traced.back();
    const auto& snap = last.engine;
    const netio::ListenerSnapshot listen = last.listen.value_or(netio::ListenerSnapshot{});
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::size_t n = traced.size();
    auto med = [&](const std::function<double(const Rep&)>& get) {
      return median_of(traced, get);
    };
    auto self = [&](double SelfTimes::*field) {
      return med([field](const Rep& r) { return self_times(r).*field; });
    };
    auto share = [&](double SelfTimes::*field) {
      return med([field](const Rep& r) {
        const SelfTimes t = self_times(r);
        return t.*field / t.wall;
      });
    };
    std::vector<double> minute_ms;
    for (const Rep* rep : traced) {
      for (const auto& s : rep->score_spans) {
        if (s.name == kIngestMinute) minute_ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
      }
    }
    const double untraced_wall = median_of(untraced, [](const Rep& r) { return r.wall_s; });
    const double traced_wall = self(&SelfTimes::wall);
    metrics = {
        {"netio.received", count(listen.stage.items_in), "count", 1},
        {"netio.kernel_drops", count(listen.kernel_drops), "count", 1},
        {"netio.ring_drops", count(listen.stage.drops), "count", 1},
        {"netio.pool_fallbacks", count(listen.pool_fallbacks), "count", 1},
        {"netio.dgrams_per_recv",
         listen.recv_batches == 0 ? 0.0 : count(listen.stage.items_in) / count(listen.recv_batches),
         "count", 1},
        {"gen.late_p99_ms", last.late_p99_ms, "ms", last.offered},
        {"runtime.push_blocked_s", med([](const Rep& r) { return sum_span(r.feed_spans, kPush); }),
         "s", n},
        {"runtime.input_q_hiwat", count(stage(snap, "decode").queue_highwater), "count", 1},
        {"runtime.merge_q_hiwat", count(stage(snap, "merge").queue_highwater), "count", 1},
        {"runtime.score_q_hiwat", count(stage(snap, "score").queue_highwater), "count", 1},
        {"runtime.merge_busy_s", med([](const Rep& r) { return stage(r.engine, "merge").busy_seconds; }),
         "s", n},
        {"runtime.pool_highwater", count(snap.pool_highwater), "count", 1},
        {"runtime.pool_exhausted", count(snap.pool_exhausted), "count", 1},
        {"net.decode_s", serial.decode_s, "s", 1},
        {"net.decode_ns_per_dgram", serial.decode_s * 1e9 / count(serial.datagrams), "ns",
         serial.datagrams},
        {"core.collect_s", serial.collect_s, "s", 1},
        {"core.collect_ns_per_sample", serial.collect_s * 1e9 / count(serial.samples), "ns",
         serial.samples},
        {"core.ingest_minute_s", self(&SelfTimes::ingest_minute), "s", n},
        {"core.ingest_minute_p50_ms", bench_e2e::supported_quantile(minute_ms, 0.50), "ms",
         minute_ms.size()},
        {"core.ingest_minute_p99_ms", bench_e2e::supported_quantile(minute_ms, 0.99), "ms",
         minute_ms.size()},
        {"core.balance_s", self(&SelfTimes::balance), "s", n},
        {"core.aggregate_s", self(&SelfTimes::aggregate), "s", n},
        {"ml.transform_s", self(&SelfTimes::transform), "s", n},
        {"ml.margin_s", self(&SelfTimes::margin), "s", n},
        {"core.retrain_s", self(&SelfTimes::retrain), "s", n},
        {"core.retrains", count(last.retrains), "count", 1},
        {"core.emit_s", self(&SelfTimes::emit), "s", n},
        {"core.window_flows", count(last.window_flows), "count", 1},
        {"detections", count(last.detections), "count", 1},
        {"rows_scored", count(last.rows_scored), "count", 1},
        {"attacks_detected", count(last.attacks_detected), "count", 1},
        {"attacks_scheduled", count(trace.attacks.size()), "count", 1},
        {"share.score_wait", share(&SelfTimes::score_wait), "frac", n},
        {"share.ingest_minute", share(&SelfTimes::ingest_minute), "frac", n},
        {"share.balance", share(&SelfTimes::balance), "frac", n},
        {"share.aggregate", share(&SelfTimes::aggregate), "frac", n},
        {"share.transform", share(&SelfTimes::transform), "frac", n},
        {"share.margin", share(&SelfTimes::margin), "frac", n},
        {"share.retrain", share(&SelfTimes::retrain), "frac", n},
        {"share.emit", share(&SelfTimes::emit), "frac", n},
        {"trace.wall_s", traced_wall, "s", n},
        {"trace.untraced_wall_s", untraced_wall, "s", untraced.size()},
        {"trace.overhead_s", traced_wall - untraced_wall, "s", n},
        {"trace.replay_s", self(&SelfTimes::replay), "s", n},
        {"trace.table_sum_frac",
         med([](const Rep& r) {
           const SelfTimes t = self_times(r);
           return t.rows_sum() / t.wall;
         }),
         "frac", n},
    };

    const SelfTimes t = self_times(last);
    std::printf("\nself-time table (last traced repetition, score thread; "
                "wall %.4f s, replays %.4f s)\n", t.wall, t.replay);
    std::printf("  %-34s %10s %8s\n", "layer", "self_s", "of_wall");
    auto row = [&](const char* name, double seconds) {
      std::printf("  %-34s %10.4f %7.1f%%\n", name, seconds, 100.0 * seconds / t.wall);
    };
    row("runtime.score_wait (ingest path)", t.score_wait);
    row("core.balance", t.balance);
    row("core.aggregate (+rule tagging)", t.aggregate);
    row("ml.transform (WoE, stages)", t.transform);
    row("ml.margin", t.margin);
    row("core.retrain (whole calls)", t.retrain);
    row("core.emit (residual)", t.emit);
    row("trace.replay (overhead)", t.replay);
    std::printf("  %-34s %10.4f %7.1f%%   (rows sum / traced wall)\n", "sum",
                t.rows_sum(), 100.0 * t.rows_sum() / t.wall);
    std::printf("parallel stages, busy s (engine counters): decode=%.4f route=%.4f "
                "collect=%.4f merge=%.4f score=%.4f\n",
                stage(snap, "decode").busy_seconds, stage(snap, "route").busy_seconds,
                stage(snap, "collect").busy_seconds, stage(snap, "merge").busy_seconds,
                stage(snap, "score").busy_seconds);
    std::printf("tracing overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s\n",
                traced_wall, untraced_wall, traced_wall - untraced_wall);
    if (!options.spans_out.empty()) {
      write_spans(options.spans_out, last);
      std::printf("spans: %zu written to %s\n",
                  last.feed_spans.size() + last.score_spans.size(),
                  options.spans_out.c_str());
    }
  }

  std::printf("\nverdict_digest=%016llx detections=%llu invalid_reps=%zu\n",
              static_cast<unsigned long long>(reference_digest),
              static_cast<unsigned long long>(reps.front().detections), invalid);
  std::printf("--- metrics ---\n%-28s %16s %-6s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& m : metrics) {
    std::printf("%-28s %16.6g %-6s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              gates.passed() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return gates.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 2;
  }
}
