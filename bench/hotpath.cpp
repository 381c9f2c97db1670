// Flow hot-path throughput — wall time of the two per-minute serving-path
// kernels after the flat-container rewrite, against the pre-rewrite
// implementations kept in tests/oracles/legacy_flow.hpp as baselines:
//
//   flowcache   sampled-packet ingestion + minute drain. Baseline: the
//               node-based std::unordered_map cache with an explicit
//               insertion-order counter and a sort-on-drain. Rewrite:
//               util::FlatHash (dense insertion-ordered entries, drains
//               are one forward pass, zero per-flow allocation).
//   aggregate   per-(minute, target) feature build. Baseline: std::map
//               group-by + fresh unordered_map tallies + a full sort per
//               (categorical, metric) ranking. Rewrite: one index sort,
//               reused flat tallies, bounded top-k selection, and a
//               parallel per-group feature build (bit-identical at any
//               thread count, DESIGN.md §10).
//
// Sweep: {flow count} x {threads}. Results land in BENCH_hotpath.json.
// Expectation: >= 2x single-thread aggregate speedup over the embedded
// baseline, near-linear feature-build scaling to 4 threads on a
// multi-core host.
//
// Every run is also a correctness probe: the baseline outputs are the
// oracle. Flat drains must equal baseline drains record-for-record, the
// rewritten aggregate must be byte-equal (memcmp over the matrix) with
// the baseline at 1 thread and with itself at every other thread count,
// and drained flows must conserve the sampled packet count. `--smoke`
// shrinks the workload while keeping all the assertions — the mode the
// perf-smoke CI job runs (no JSON write: tiny-trace numbers must not
// overwrite the trajectory).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "../bench/common.hpp"
#include "../tests/oracles/legacy_flow.hpp"
#include "core/aggregator.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace {

using namespace scrubber;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

std::vector<net::PacketHeader> synth_packets(std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::PacketHeader> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::PacketHeader p;
    // ~8 minutes, heavy-tailed flow sizes: popular flows see many packets
    // (the FlowCache steady state), the tail churns new keys.
    p.timestamp_ms = (i * 8 * 60000) / count + rng.below(2000);
    p.src_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(0x0A000000 + rng.zipf(40000, 1.1)));
    p.dst_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(0xC0A80000 + rng.zipf(2000, 1.2)));
    p.src_port = static_cast<std::uint16_t>(rng.below(50000));
    p.dst_port = static_cast<std::uint16_t>(
        rng.chance(0.5) ? 80 : rng.below(1024));
    p.protocol = rng.chance(0.7) ? 17 : 6;
    p.tcp_flags = static_cast<std::uint8_t>(rng.below(64));
    p.length = static_cast<std::uint16_t>(64 + rng.below(1400));
    p.ingress_member = static_cast<net::MemberId>(rng.below(64));
    packets.push_back(p);
  }
  return packets;
}

double checksum(std::span<const net::FlowRecord> flows) {
  std::uint64_t sum = 0;
  for (const auto& flow : flows) sum += flow.bytes + flow.packets;
  return static_cast<double>(sum);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) return true;
    }
    return false;
  }();
  bench::print_header("Hotpath",
                      "flow hot-path throughput (flat containers vs "
                      "node-based baselines)");
  bench::print_expectation(
      ">= 2x single-thread aggregate speedup over the node-container "
      "baseline; near-linear feature-build scaling to 4 threads");

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const int repeats = smoke ? 1 : 5;
  const auto best_of = [&](auto&& fn) {
    return bench::min_seconds_of(repeats, fn);
  };

  util::JsonArray flowcache_rows;
  util::TextTable cache_table;
  cache_table.set_header({"packets", "baseline_s", "flat_s", "speedup",
                          "flows", "identical"});

  // ---- FlowCache: ingest + minute drains -------------------------------
  for (const std::size_t packet_count :
       smoke ? std::vector<std::size_t>{60'000}
             : std::vector<std::size_t>{200'000, 800'000}) {
    const auto packets = synth_packets(packet_count, 0xF10C);

    std::vector<net::FlowRecord> baseline_flows;
    const double baseline_seconds = best_of([&] {
      oracle::LegacyFlowCache cache(10);
      for (const auto& packet : packets) cache.add(packet);
      baseline_flows = cache.drain_before(
          std::numeric_limits<std::uint32_t>::max());
    });

    std::vector<net::FlowRecord> flat_flows;
    const double flat_seconds = best_of([&] {
      net::FlowCache cache(10);
      for (const auto& packet : packets) cache.add(packet);
      flat_flows = cache.drain_all();
    });

    const bool identical = flat_flows == baseline_flows;
    expect(identical, "FlowCache drain differs from baseline");
    // Flow conservation: every sampled packet lands in exactly one
    // drained record (scaled by the 1-in-10 sampling rate).
    std::uint64_t drained_packets = 0;
    for (const auto& flow : flat_flows) drained_packets += flow.packets;
    expect(drained_packets == packets.size() * 10,
           "FlowCache drained packet count != sampled packets x rate");

    const double speedup =
        flat_seconds > 0.0 ? baseline_seconds / flat_seconds : 0.0;
    char b_s[32], f_s[32], x_s[32];
    std::snprintf(b_s, sizeof(b_s), "%.3f", baseline_seconds);
    std::snprintf(f_s, sizeof(f_s), "%.3f", flat_seconds);
    std::snprintf(x_s, sizeof(x_s), "%.2f", speedup);
    cache_table.add_row({std::to_string(packet_count), b_s, f_s, x_s,
                         std::to_string(flat_flows.size()),
                         identical ? "yes" : "NO"});

    util::Json row;
    row.set("packets", static_cast<double>(packet_count));
    row.set("flows", static_cast<double>(flat_flows.size()));
    row.set("baseline_seconds", baseline_seconds);
    row.set("flat_seconds", flat_seconds);
    row.set("speedup", speedup);
    row.set("identical", identical);
    flowcache_rows.push_back(std::move(row));
  }
  std::printf("flowcache (ingest + drain, sampling 1/10, best of %d):\n%s\n",
              repeats, cache_table.render().c_str());

  // ---- Aggregate: {flow count} x {threads} sweep -----------------------
  // Balanced ground-truth attack traces: the shape Aggregator::aggregate
  // actually runs on (Scrubber::train feeds it balancer output), with
  // realistic per-target group sizes (tens of flows per (minute, target)
  // record) instead of the 1-2 flow groups of raw unfiltered traffic.
  std::vector<unsigned> sweep{1, 2};
  if (!smoke) {
    sweep.push_back(4);
    if (std::find(sweep.begin(), sweep.end(), hardware) == sweep.end()) {
      sweep.push_back(hardware);
    }
  }
  std::sort(sweep.begin(), sweep.end());

  util::JsonArray aggregate_rows;
  util::TextTable agg_table;
  agg_table.set_header({"flows", "records", "baseline_s", "threads", "flat_s",
                        "speedup", "scaling", "identical", "advisory"});

  for (const std::uint32_t minutes :
       smoke ? std::vector<std::uint32_t>{120}
             : std::vector<std::uint32_t>{240, 960}) {
    const std::vector<net::FlowRecord> balanced = [&] {
      flowgen::TrafficGenerator gen(flowgen::self_attack_profile(), 555);
      const auto trace = gen.generate(
          0, minutes, flowgen::TrafficGenerator::Labeling::kGroundTruth);
      return core::balance_trace(trace.flows, 99);
    }();
    const std::span<const net::FlowRecord> flows(balanced);
    const std::size_t take = flows.size();

    // Rep-major interleaving: every repeat times the baseline and every
    // thread count back to back, so machine drift (frequency, neighbors)
    // lands on all configurations instead of biasing one of them.
    core::AggregatedDataset baseline;
    std::vector<core::AggregatedDataset> results(sweep.size());
    double baseline_seconds = 0.0;
    std::vector<double> flat_seconds(sweep.size(), 0.0);
    for (int rep = 0; rep < repeats; ++rep) {
      {
        util::Stopwatch sw;
        baseline = oracle::legacy_aggregate(flows);
        const double seconds = sw.seconds();
        if (rep == 0 || seconds < baseline_seconds) {
          baseline_seconds = seconds;
        }
      }
      for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
        core::Aggregator aggregator;
        aggregator.set_threads(sweep[ti]);
        util::Stopwatch sw;
        results[ti] = aggregator.aggregate(flows);
        const double seconds = sw.seconds();
        if (rep == 0 || seconds < flat_seconds[ti]) {
          flat_seconds[ti] = seconds;
        }
      }
    }

    core::AggregatedDataset reference;  // flat path at 1 thread
    double flat_1t_seconds = 0.0;
    for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
      const unsigned threads = sweep[ti];
      const bool advisory = threads > hardware;
      const core::AggregatedDataset& result = results[ti];
      const double seconds = flat_seconds[ti];
      if (threads == 1) {
        flat_1t_seconds = seconds;
        reference = result;
        // Bit-identity vs the baseline: byte-equal matrix (NaN patterns
        // included), equal labels, equal grouping.
        const auto& got = result.data.raw();
        const auto& want = baseline.data.raw();
        expect(result.size() == baseline.size() && got.size() == want.size() &&
                   std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(double)) == 0,
               "aggregate matrix differs from baseline");
        expect(result.data.labels() == baseline.data.labels(),
               "aggregate labels differ from baseline");
      }
      const auto& got = result.data.raw();
      const auto& want = reference.data.raw();
      const bool identical =
          result.size() == reference.size() && got.size() == want.size() &&
          std::memcmp(got.data(), want.data(),
                      want.size() * sizeof(double)) == 0 &&
          result.data.labels() == reference.data.labels();
      expect(identical, "aggregate output varies with thread count");

      const double speedup =
          seconds > 0.0 ? baseline_seconds / seconds : 0.0;
      const double scaling = seconds > 0.0 ? flat_1t_seconds / seconds : 0.0;
      char b_s[32], f_s[32], x_s[32], s_s[32];
      std::snprintf(b_s, sizeof(b_s), "%.3f", baseline_seconds);
      std::snprintf(f_s, sizeof(f_s), "%.3f", seconds);
      std::snprintf(x_s, sizeof(x_s), "%.2f", speedup);
      std::snprintf(s_s, sizeof(s_s), "%.2f", scaling);
      agg_table.add_row({std::to_string(take),
                         std::to_string(result.size()), b_s,
                         std::to_string(threads), f_s, x_s, s_s,
                         identical ? "yes" : "NO", advisory ? "yes" : ""});

      util::Json row;
      row.set("trace_minutes", static_cast<double>(minutes));
      row.set("flows", static_cast<double>(take));
      row.set("records", static_cast<double>(result.size()));
      row.set("threads", static_cast<double>(threads));
      row.set("advisory", advisory);
      row.set("baseline_seconds", baseline_seconds);
      row.set("flat_seconds", seconds);
      row.set("speedup_vs_baseline", speedup);
      row.set("scaling_vs_1t", scaling);
      row.set("identical", identical);
      aggregate_rows.push_back(std::move(row));
    }
    bench::keep_alive(static_cast<long long>(checksum(flows)));
  }
  std::printf("aggregate (feature build, best of %d):\n%s\n", repeats,
              agg_table.render().c_str());

  util::Json out;
  out.set("bench", "hotpath");
  bench::set_provenance(out);
  out.set("smoke", smoke);
  out.set("hardware_concurrency", static_cast<double>(hardware));
  out.set("flowcache", std::move(flowcache_rows));
  out.set("aggregate", std::move(aggregate_rows));
  // The smoke run is a correctness gate, not a perf record — don't
  // overwrite the trajectory file with tiny-trace numbers.
  if (!smoke) {
    std::ofstream file("BENCH_hotpath.json");
    file << out.dump(2) << "\n";
    std::printf("wrote BENCH_hotpath.json (hardware_concurrency=%u)\n",
                hardware);
  }
  if (failures != 0) {
    std::fprintf(stderr, "\n%d hot-path check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all hot-path identity checks passed\n");
  return 0;
}
