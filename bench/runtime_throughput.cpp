// Runtime throughput — end-to-end flows/sec of the sharded streaming
// engine (decode → shard → collect → merge → score) swept over
// {batch size} x {shard count} on one seeded flowgen trace. This is the
// scaling baseline for every future ingest-path PR; results land in
// BENCH_runtime.json so the perf trajectory is machine-readable.
//
// Expectation (multi-core hosts): >= 2x flows/sec at 4 shards with
// batching vs the single-record 1-shard baseline. On a single-core host
// the shard workers serialize and the ratio degenerates to ~1x; rows
// whose shard count exceeds hardware_concurrency carry "advisory": true
// (and a loud stderr warning) so trajectory tooling can tell those runs
// apart.
//
// Every run is also a correctness probe: flow counts must be conserved
// across stages (no drops under the block policy, decode out == inputs
// in, every merged minute scored) and every configuration must emit the
// same flows/minutes — the determinism contract. Any violation exits
// non-zero. `--smoke` shrinks the trace (CI-sized) while keeping all the
// assertions; that is the mode the perf-smoke CI job runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/common.hpp"
#include "core/collector.hpp"
#include "runtime/engine.hpp"
#include "util/json.hpp"

namespace {

using namespace scrubber;

/// One swept configuration's best-of-N snapshot.
struct RunResult {
  std::size_t shards = 0;
  std::size_t batch_records = 0;
  bool advisory = false;  ///< shards exceed hardware_concurrency
  runtime::EngineSnapshot snapshot;
};

int failures = 0;

/// Conservation check: prints and counts a failure unless `ok`.
void expect(bool ok, const char* what, std::uint64_t got,
            std::uint64_t want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr,
               "FAIL conservation: %s (got %llu, want %llu)\n", what,
               static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
}

const runtime::StageSnapshot* stage_named(
    const runtime::EngineSnapshot& snapshot, const char* name) {
  for (const auto& stage : snapshot.stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header("Runtime",
                      "sharded streaming-engine throughput (batch x shards)");
  bench::print_expectation(
      ">= 2x flows/sec at 4 shards + batching vs single-record 1 shard on a "
      "multi-core host");

  // One fixed trace for every configuration: hours of the mid-size IXP-SE
  // feed (minutes of it in --smoke), pre-encoded to sFlow wire bytes so
  // neither generation nor encoding pollutes the measurement.
  const std::uint32_t kMinutes = smoke ? 24 : 360;
  constexpr std::uint32_t kSampling = 4;
  constexpr std::uint64_t kSeed = 1337;
  const int kReps = smoke ? 1 : 3;
  flowgen::TrafficGenerator generator(flowgen::ixp_se(), kSeed);
  const auto trace = generator.generate(0, kMinutes);
  const auto datagrams = core::flows_to_datagrams(
      trace.flows, kSampling, net::Ipv4Address(0x0AFF0001));
  std::uint64_t total_samples = 0;
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<std::uint32_t> wire_minutes;
  wire.reserve(datagrams.size());
  for (const auto& datagram : datagrams) {
    total_samples += datagram.samples.size();
    wire.push_back(datagram.encode());
    wire_minutes.push_back(
        static_cast<std::uint32_t>(datagram.uptime_ms / 60'000));
  }
  std::printf("trace: %zu flows, %zu datagrams, %zu BGP updates, %u min%s\n\n",
              trace.flows.size(), datagrams.size(), trace.updates.size(),
              kMinutes, smoke ? " [smoke]" : "");

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> shard_counts{1, 2};
  if (!smoke) {
    shard_counts.push_back(4);
    if (std::find(shard_counts.begin(), shard_counts.end(),
                  static_cast<std::size_t>(hardware)) == shard_counts.end()) {
      shard_counts.push_back(hardware);
    }
  }
  // Batch 1 is the single-record transfer baseline this PR's batching is
  // measured against.
  const std::vector<std::size_t> batch_counts{1,
                                              smoke ? std::size_t{256}
                                                    : std::size_t{512}};

  util::TextTable table;
  table.set_header(
      {"batch", "shards", "wall_s", "flows/s", "speedup", "advisory"});
  util::JsonArray results;
  double baseline_flows_per_sec = 0.0;  // batch=1, shards=1
  std::uint64_t reference_flows = 0, reference_minutes = 0;
  bool have_reference = false;
  std::vector<RunResult> runs;

  for (const std::size_t batch_records : batch_counts) {
    for (const std::size_t shards : shard_counts) {
      // Best of kReps repetitions: the engine is construct-push-finish
      // per run, so scheduler noise shows up as slow outliers, not fast
      // ones.
      RunResult result;
      result.shards = shards;
      result.batch_records = batch_records;
      result.advisory = shards > hardware;
      if (result.advisory) {
        std::fprintf(stderr,
                     "WARNING: %zu shards on %u hardware threads — workers "
                     "serialize, row marked advisory\n",
                     shards, hardware);
      }
      for (int rep = 0; rep < kReps; ++rep) {
        runtime::EngineConfig config;
        config.shards = shards;
        config.queue_capacity = 4096;
        config.batch_records = batch_records;
        config.backpressure = runtime::Backpressure::kBlock;
        config.collector.sampling_rate = kSampling;
        runtime::Engine engine(config, nullptr);
        std::size_t next_update = 0;
        for (std::size_t i = 0; i < wire.size(); ++i) {
          while (next_update < trace.updates.size() &&
                 trace.updates[next_update].first <= wire_minutes[i]) {
            engine.push_bgp(trace.updates[next_update].second,
                            std::uint64_t{trace.updates[next_update].first} *
                                60'000);
            ++next_update;
          }
          engine.push_wire(wire[i]);
        }
        engine.finish();
        const runtime::EngineSnapshot snapshot = engine.stats();

        // Flow-count conservation across stages, checked on every run.
        expect(snapshot.input_drops == 0, "no drops under block policy",
               snapshot.input_drops, 0);
        expect(snapshot.late_drops == 0, "no late datagrams",
               snapshot.late_drops, 0);
        expect(snapshot.datagrams == datagrams.size(),
               "every datagram ingested", snapshot.datagrams,
               datagrams.size());
        expect(snapshot.samples == total_samples, "every sample collected",
               snapshot.samples, total_samples);
        if (const auto* decode = stage_named(snapshot, "decode")) {
          expect(decode->items_out ==
                     snapshot.datagrams + snapshot.bgp_updates,
                 "decode out == datagrams + bgp", decode->items_out,
                 snapshot.datagrams + snapshot.bgp_updates);
        }
        if (const auto* score = stage_named(snapshot, "score")) {
          expect(score->items_in == snapshot.minutes_merged,
                 "every merged minute scored", score->items_in,
                 snapshot.minutes_merged);
        }
        if (!have_reference) {
          have_reference = true;
          reference_flows = snapshot.flows_out;
          reference_minutes = snapshot.minutes_merged;
        } else {
          // Determinism: every configuration sees the same stream.
          expect(snapshot.flows_out == reference_flows,
                 "flows_out identical across configs", snapshot.flows_out,
                 reference_flows);
          expect(snapshot.minutes_merged == reference_minutes,
                 "minutes identical across configs", snapshot.minutes_merged,
                 reference_minutes);
        }

        if (rep == 0 ||
            snapshot.flows_per_sec() > result.snapshot.flows_per_sec()) {
          result.snapshot = snapshot;
        }
      }
      runs.push_back(std::move(result));
    }
  }

  for (const RunResult& run : runs) {
    const runtime::EngineSnapshot& best = run.snapshot;
    if (run.batch_records == 1 && run.shards == 1) {
      baseline_flows_per_sec = best.flows_per_sec();
    }
    const double speedup = baseline_flows_per_sec > 0.0
                               ? best.flows_per_sec() / baseline_flows_per_sec
                               : 0.0;
    char wall[32], rate[32], ratio[32];
    std::snprintf(wall, sizeof(wall), "%.3f", best.wall_seconds);
    std::snprintf(rate, sizeof(rate), "%.0f", best.flows_per_sec());
    std::snprintf(ratio, sizeof(ratio), "%.2f", speedup);
    table.add_row({std::to_string(run.batch_records),
                   std::to_string(run.shards), wall, rate, ratio,
                   run.advisory ? "yes" : ""});

    util::Json row;
    row.set("shards", static_cast<double>(run.shards));
    row.set("batch_records", static_cast<double>(run.batch_records));
    row.set("advisory", run.advisory);
    row.set("wall_seconds", best.wall_seconds);
    row.set("flows_per_sec", best.flows_per_sec());
    row.set("flows", static_cast<double>(best.flows_out));
    row.set("minutes", static_cast<double>(best.minutes_merged));
    row.set("speedup_vs_baseline", speedup);
    util::JsonArray stages;
    for (const auto& stage : best.stages) {
      util::Json item;
      item.set("name", stage.name);
      item.set("items_in", static_cast<double>(stage.items_in));
      item.set("items_out", static_cast<double>(stage.items_out));
      item.set("drops", static_cast<double>(stage.drops));
      item.set("queue_highwater", static_cast<double>(stage.queue_highwater));
      item.set("busy_seconds", stage.busy_seconds);
      stages.push_back(std::move(item));
    }
    row.set("stages", std::move(stages));
    results.push_back(std::move(row));
  }
  std::printf("%s", table.render().c_str());

  util::Json out;
  out.set("bench", "runtime_throughput");
  bench::set_provenance(out);
  out.set("profile", "IXP-SE");
  out.set("smoke", smoke);
  out.set("trace_minutes", static_cast<double>(kMinutes));
  out.set("sampling_rate", static_cast<double>(kSampling));
  out.set("seed", static_cast<double>(kSeed));
  out.set("hardware_concurrency", static_cast<double>(hardware));
  out.set("results", std::move(results));
  // The smoke run is a correctness gate, not a perf record — don't
  // overwrite the trajectory file with tiny-trace numbers.
  if (!smoke) {
    std::ofstream file("BENCH_runtime.json");
    file << out.dump(2) << "\n";
    std::printf("\nwrote BENCH_runtime.json (hardware_concurrency=%u)\n",
                hardware);
  }
  if (failures != 0) {
    std::fprintf(stderr, "\n%d conservation check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all conservation checks passed\n");
  return 0;
}
