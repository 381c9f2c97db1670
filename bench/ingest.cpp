// Ingest decode throughput — the zero-allocation, in-place, non-throwing
// SflowView walk against the materializing, throwing oracle decoder, over
// a {samples/datagram (= datagram size) x hostile fraction} sweep writing
// BENCH_ingest.json.
//
// The oracle (tests/oracles/sflow_decode.hpp) is the specification: it heap-
// allocates a datagram + sample vector per wire buffer and reports
// malformed input with a C++ throw — exactly the per-packet costs a
// hostile flood weaponizes. The in-place walk must decode the same bytes
// with zero allocation and a status return. Every row first proves
// bit-identity (per-wire accepted samples, statuses, and error counts
// equal between the two decoders) and only then times both; the speedup
// bars (>=2x on well-formed input, >=5x on a 50%-hostile stream) are hard
// gates — any miss, like any identity mismatch, exits non-zero. `--smoke`
// shrinks the sweep but keeps every gate; that is the mode CI runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "../bench/common.hpp"
#include "../tests/oracles/sflow_decode.hpp"
#include "net/sflow.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace scrubber;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

/// A structurally valid datagram with randomized field values.
net::SflowDatagram random_datagram(util::Rng& rng, std::size_t samples) {
  net::SflowDatagram datagram;
  datagram.agent = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  datagram.sub_agent_id = static_cast<std::uint32_t>(rng.below(16));
  datagram.sequence = static_cast<std::uint32_t>(rng.below(1u << 20));
  datagram.uptime_ms = static_cast<std::uint32_t>(rng.below(6'000'000));
  for (std::size_t i = 0; i < samples; ++i) {
    net::SflowFlowSample sample;
    sample.sequence = static_cast<std::uint32_t>(rng.below(1u << 20));
    sample.sampling_rate = 4;
    sample.sample_pool = static_cast<std::uint32_t>(rng.below(1u << 24));
    sample.input_port = static_cast<std::uint32_t>(rng.below(1024));
    sample.output_port = static_cast<std::uint32_t>(rng.below(1024));
    sample.packet.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    sample.packet.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    sample.packet.src_port = static_cast<std::uint16_t>(rng.below(65536));
    sample.packet.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    sample.packet.protocol = rng.chance(0.5) ? 6 : 17;
    sample.packet.tcp_flags = static_cast<std::uint8_t>(rng.below(256));
    sample.packet.length = static_cast<std::uint16_t>(60 + rng.below(1441));
    sample.packet.ingress_member = sample.input_port;
    datagram.samples.push_back(sample);
  }
  return datagram;
}

/// Pre-encoded corpus: `hostile_fraction` of the buffers are corrupted so
/// both decoders reject them (half truncations — the decoder does real
/// work before starving — and half bad-version headers, the cheapest
/// possible reject). This is the shape of a spoofed-source flood hitting
/// a collector port.
std::vector<std::vector<std::uint8_t>> make_corpus(std::size_t datagrams,
                                                   std::size_t samples,
                                                   double hostile_fraction,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.reserve(datagrams);
  for (std::size_t i = 0; i < datagrams; ++i) {
    auto wire = random_datagram(rng, samples).encode();
    if (rng.uniform() < hostile_fraction) {
      if (rng.chance(0.5)) {
        // Any strict prefix starves the declared sample count: reject.
        wire.resize(1 + rng.below(wire.size() - 1));
      } else {
        wire[0] = 0xFF;  // bad version word: immediate reject
      }
    }
    corpus.push_back(std::move(wire));
  }
  return corpus;
}

/// Decode outcome of one buffer, for the per-row identity check.
struct Decoded {
  bool accepted = false;
  std::vector<net::SflowFlowSample> samples;
};

/// Work accumulated by a timed pass — enough data dependency that the
/// compiler cannot skip the field loads the route stage would perform.
struct PassTotals {
  std::uint64_t accepted = 0;
  std::uint64_t errors = 0;
  std::uint64_t samples = 0;
  std::uint64_t checksum = 0;
};

PassTotals oracle_pass(const std::vector<std::vector<std::uint8_t>>& corpus) {
  PassTotals totals;
  for (const auto& wire : corpus) {
    try {
      const net::SflowDatagram datagram = oracle::decode_sflow(wire);
      ++totals.accepted;
      totals.samples += datagram.samples.size();
      for (const auto& sample : datagram.samples) {
        totals.checksum += sample.packet.dst_ip.value() + sample.packet.length;
      }
    } catch (const oracle::SflowDecodeError&) {
      ++totals.errors;
    }
  }
  return totals;
}

PassTotals view_pass(const std::vector<std::vector<std::uint8_t>>& corpus) {
  PassTotals totals;
  for (const auto& wire : corpus) {
    net::SflowHeaderView header;
    // Per-wire accumulation committed only on kOk: a rejected datagram
    // contributes nothing, mirroring the engine's fused-route rollback
    // (the oracle's whole-datagram throw gives the same all-or-nothing).
    std::uint64_t wire_samples = 0;
    std::uint64_t wire_checksum = 0;
    const net::DecodeStatus status = net::SflowView::decode(
        std::span<const std::uint8_t>(wire.data(), wire.size()), header,
        [&](const net::SflowFlowSample& sample) {
          ++wire_samples;
          wire_checksum +=
              sample.packet.dst_ip.value() + sample.packet.length;
        });
    if (status == net::DecodeStatus::kOk) {
      ++totals.accepted;
      totals.samples += wire_samples;
      totals.checksum += wire_checksum;
    } else {
      ++totals.errors;
    }
  }
  return totals;
}

/// Bit-identity of the two decoders on every buffer of the corpus: equal
/// accept/reject verdicts and equal accepted-sample sequences. A rejected
/// buffer contributes nothing either way (the engine rolls the fused
/// route back), so statuses + samples are the full observable output.
bool identical_on(const std::vector<std::vector<std::uint8_t>>& corpus) {
  for (const auto& wire : corpus) {
    Decoded oracle;
    try {
      oracle.samples = oracle::decode_sflow(wire).samples;
      oracle.accepted = true;
    } catch (const oracle::SflowDecodeError&) {
    }
    Decoded view;
    net::SflowHeaderView header;
    const net::DecodeStatus status = net::SflowView::decode(
        std::span<const std::uint8_t>(wire.data(), wire.size()), header,
        [&](const net::SflowFlowSample& sample) {
          view.samples.push_back(sample);
        });
    view.accepted = status == net::DecodeStatus::kOk;
    if (view.accepted != oracle.accepted) return false;
    if (view.accepted && view.samples != oracle.samples) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) return true;
    }
    return false;
  }();
  bench::print_header("Ingest",
                      "in-place fused sFlow decode vs the throwing oracle "
                      "(samples/datagram x hostile fraction)");
  bench::print_expectation(
      ">= 2x single-thread decode throughput on well-formed input, >= 5x "
      "on a 50%-hostile stream (the oracle pays one unwind per bad "
      "datagram); bit-identical accepted samples on every buffer");

  const std::size_t kDatagrams = smoke ? 2'000 : 20'000;
  const int repeats = smoke ? 2 : 5;
  const std::vector<std::size_t> sample_counts =
      smoke ? std::vector<std::size_t>{8}
            : std::vector<std::size_t>{1, 8, 64};
  const std::vector<double> hostile_fractions = {0.0, 0.5};

  util::TextTable table;
  table.set_header({"samples", "bytes/dgram", "hostile", "oracle_Mdgram/s",
                    "inplace_Mdgram/s", "speedup", "identical", "bar"});
  util::JsonArray results;

  for (const std::size_t samples : sample_counts) {
    for (const double hostile : hostile_fractions) {
      // Hold the per-pass byte volume roughly constant across rows: fewer
      // datagrams when each carries more samples. Otherwise large-sample
      // rows blow the cache-resident footprint and both decoders converge
      // on DRAM streaming — the row would measure memory bandwidth, not
      // the decode walk (the quantity the speedup bars gate).
      const std::size_t row_datagrams =
          kDatagrams * 8 / std::max<std::size_t>(samples, 8);
      const auto corpus = make_corpus(
          row_datagrams, samples, hostile,
          0x1276E57 ^ (samples << 8) ^ static_cast<std::uint64_t>(hostile * 2));
      std::uint64_t corpus_bytes = 0;
      for (const auto& wire : corpus) corpus_bytes += wire.size();

      // Identity first: timing a decoder that disagrees with the oracle
      // would be timing a bug.
      const bool identical = identical_on(corpus);
      expect(identical, "in-place decode bit-identical to the oracle");

      const PassTotals oracle_totals = oracle_pass(corpus);
      const PassTotals view_totals = view_pass(corpus);
      expect(oracle_totals.accepted == view_totals.accepted &&
                 oracle_totals.errors == view_totals.errors &&
                 oracle_totals.samples == view_totals.samples &&
                 oracle_totals.checksum == view_totals.checksum,
             "pass totals (accepted/errors/samples/checksum) agree");

      const double oracle_seconds = bench::min_seconds_of(repeats, [&] {
        bench::keep_alive(static_cast<long long>(oracle_pass(corpus).checksum));
      });
      const double view_seconds = bench::min_seconds_of(repeats, [&] {
        bench::keep_alive(static_cast<long long>(view_pass(corpus).checksum));
      });
      const double speedup =
          view_seconds > 0.0 ? oracle_seconds / view_seconds : 0.0;
      const double bar = hostile >= 0.5 ? 5.0 : 2.0;
      const bool bar_met = speedup >= bar;
      char bar_text[48];
      std::snprintf(bar_text, sizeof(bar_text), ">=%.0fx decode speedup met",
                    bar);
      expect(bar_met, bar_text);

      const double oracle_rate =
          static_cast<double>(corpus.size()) / oracle_seconds / 1e6;
      const double view_rate =
          static_cast<double>(corpus.size()) / view_seconds / 1e6;

      char hostile_text[16], oracle_text[32], view_text[32], speedup_text[16];
      std::snprintf(hostile_text, sizeof(hostile_text), "%.0f%%",
                    hostile * 100.0);
      std::snprintf(oracle_text, sizeof(oracle_text), "%.2f", oracle_rate);
      std::snprintf(view_text, sizeof(view_text), "%.2f", view_rate);
      std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
      table.add_row({std::to_string(samples),
                     std::to_string(corpus_bytes / corpus.size()),
                     hostile_text, oracle_text, view_text, speedup_text,
                     identical ? "yes" : "NO", bar_met ? "pass" : "FAIL"});

      util::Json item;
      item.set("samples_per_datagram", static_cast<double>(samples));
      item.set("bytes_per_datagram",
               static_cast<double>(corpus_bytes / corpus.size()));
      item.set("hostile_fraction", hostile);
      item.set("datagrams", static_cast<double>(corpus.size()));
      item.set("accepted", static_cast<double>(view_totals.accepted));
      item.set("decode_errors", static_cast<double>(view_totals.errors));
      item.set("oracle_seconds", oracle_seconds);
      item.set("inplace_seconds", view_seconds);
      item.set("oracle_mdatagrams_per_sec", oracle_rate);
      item.set("inplace_mdatagrams_per_sec", view_rate);
      item.set("inplace_gbytes_per_sec",
               static_cast<double>(corpus_bytes) / view_seconds / 1e9);
      item.set("speedup", speedup);
      item.set("speedup_bar", bar);
      item.set("bar_met", bar_met);
      item.set("identical", identical);
      results.push_back(std::move(item));
    }
  }
  std::printf("%s", table.render().c_str());

  util::Json out;
  out.set("bench", "ingest");
  bench::set_provenance(out);
  out.set("smoke", smoke);
  out.set("repeats", static_cast<double>(repeats));
  out.set("results", std::move(results));
  // The smoke run is a correctness gate, not a perf record — don't
  // overwrite the trajectory file with tiny-corpus numbers.
  if (!smoke) {
    std::ofstream file("BENCH_ingest.json");
    file << out.dump(2) << "\n";
    std::printf("\nwrote BENCH_ingest.json\n");
  }
  if (failures != 0) {
    std::fprintf(stderr, "\n%d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all identity checks and speedup bars passed\n");
  return 0;
}
