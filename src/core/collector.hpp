#pragma once
// Capture front-end: turns the IXP's raw telemetry — sFlow v5 datagrams
// from the switches and the BGP feed from the route server — into the
// labeled, anonymized per-minute flow batches the rest of the pipeline
// consumes. This is the deployment glue between the substrates:
//
//   sFlow datagrams ──► FlowCache (aggregation, sampling-rate scaling)
//   BGP UPDATEs     ──► BlackholeRegistry (time-indexed labels)
//                         │
//   minute closes ──► label flows ──► (optional) anonymize ──► sink
//
// Labeling happens when a minute bin closes, so announcements that arrive
// during the minute are honored. Flows are optionally anonymized before
// they leave the collector, as §4.3 requires.

#include <functional>
#include <optional>
#include <span>

#include "bgp/blackhole_registry.hpp"
#include "net/anonymize.hpp"
#include "net/sflow.hpp"

namespace scrubber::core {

/// Receives each closed minute's labeled flows.
///
/// Re-entrancy contract: the sink is invoked while the collector drains a
/// minute bin and MUST NOT call back into `ingest` / `ingest_bgp` /
/// `advance` / `flush` on the same collector — the collector is mid-drain
/// and its cache would be mutated under the iteration. The contract is
/// enforced: re-entering throws std::logic_error. (The sharded runtime in
/// src/runtime/ relies on this: shard sinks forward batches to the merge
/// queue and must never loop back into their own shard.)
using MinuteBatchSink =
    std::function<void(std::uint32_t minute, std::span<const net::FlowRecord>)>;

/// sFlow + BGP collector producing labeled minute batches.
class Collector {
 public:
  struct Config {
    std::uint32_t sampling_rate = 1;  ///< sFlow 1-in-N (for scaling)
    /// Minutes a bin stays open after time passes it (late datagrams).
    std::uint32_t reorder_slack_min = 1;
    /// When set, flows are anonymized before reaching the sink.
    std::optional<std::uint64_t> anonymization_salt;
  };

  Collector(Config config, MinuteBatchSink sink);

  /// Ingests one sFlow datagram (already decoded). Advances collector time
  /// to the datagram's uptime and flushes bins older than the slack.
  /// Datagrams for minutes that were already flushed (a shard fell behind
  /// an externally advanced watermark) are dropped and counted instead of
  /// re-opening the closed bin.
  void ingest(const net::SflowDatagram& datagram);

  /// Ingests one sub-datagram's worth of samples without materializing an
  /// SflowDatagram: `uptime_ms` plays the datagram header's role (minute
  /// binning, late-drop accounting, timestamp stamping) and counts as one
  /// datagram. Semantically identical to ingest() of a datagram carrying
  /// exactly these samples — the fused wire path feeds shards through
  /// this overload.
  void ingest_samples(std::uint32_t uptime_ms,
                      std::span<const net::SflowFlowSample> samples);

  /// Ingests one BGP update observed at `now_ms` (the route server feed).
  void ingest_bgp(const bgp::UpdateMessage& update, std::uint64_t now_ms);

  /// Advances collector time to `minute` as if a datagram with that
  /// timestamp had arrived (without ingesting any flows), closing bins
  /// that fall out of the slack window. Used by the sharded runtime to
  /// propagate the global watermark to shards that saw no traffic for a
  /// stretch of minutes. Tolerant of stale calls: a `minute` at or below
  /// the current watermark is a no-op.
  void advance(std::uint32_t minute);

  /// Flushes every open bin (end of capture).
  void flush();

  // --- statistics ---
  [[nodiscard]] std::uint64_t datagrams() const noexcept { return datagrams_; }
  [[nodiscard]] std::uint64_t flows_emitted() const noexcept {
    return flows_emitted_;
  }
  /// Datagrams dropped because their minute was already flushed.
  [[nodiscard]] std::uint64_t late_datagrams() const noexcept {
    return late_datagrams_;
  }
  /// First minute that has NOT been flushed yet (flush horizon).
  [[nodiscard]] std::uint32_t flush_horizon() const noexcept {
    return flushed_before_;
  }

 private:
  void flush_before(std::uint32_t minute);
  void check_not_in_flush(const char* what) const;

  Config config_;
  MinuteBatchSink sink_;
  net::FlowCache cache_;
  bgp::BlackholeRegistry registry_;
  std::optional<net::Anonymizer> anonymizer_;
  std::uint32_t watermark_min_ = 0;   ///< highest minute observed
  std::uint32_t flushed_before_ = 0;  ///< minutes < this are closed forever
  bool in_flush_ = false;             ///< re-entrancy guard (sink contract)
  std::uint64_t datagrams_ = 0;
  std::uint64_t flows_emitted_ = 0;
  std::uint64_t late_datagrams_ = 0;
};

/// Test/replay helper: expands flow records back into sFlow datagrams (one
/// sampled packet per `packets / sampling_rate`, minimum 1) — the inverse
/// of the collector path, used to exercise it end to end.
[[nodiscard]] std::vector<net::SflowDatagram> flows_to_datagrams(
    std::span<const net::FlowRecord> flows, std::uint32_t sampling_rate,
    net::Ipv4Address agent);

}  // namespace scrubber::core
