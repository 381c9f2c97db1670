#pragma once
// Sharded, multi-threaded capture front-end.
//
// N core::Collector shards — keyed by hash(dst IP), so every flow key and
// every potential victim lives wholly inside one shard — each run on their
// own worker thread behind a bounded SPSC ring. A single merge thread
// re-assembles the shards' closed minute batches behind a deterministic
// minute barrier and emits them in minute order.
//
// Determinism argument (see DESIGN.md "Runtime"):
//   1. Sharding by destination IP partitions FlowKeys, so per-flow
//      aggregation (sum of packets/bytes, OR of TCP flags) is identical
//      to the single-collector path regardless of shard count.
//   2. BGP updates are broadcast to every shard in stream order and the
//      BlackholeRegistry is time-indexed, so labels computed at
//      minute-close match the single-collector path.
//   3. The router re-broadcasts its watermark as punctuation whenever it
//      advances, so a shard closes minute M at the same logical stream
//      position the single collector would — never earlier, and the merge
//      barrier (all shards past M) means never later than the sink sees.
//   4. The merge stage sorts each re-assembled minute canonically
//      (canonical_flow_less, a total order over every FlowRecord field),
//      erasing shard interleaving and thread timing from the output.
// Hence: for the same input stream, the emitted labeled minute batches
// are identical for any shard count — equal to the 1-shard path, which
// is itself the canonically-ordered single-threaded core::Collector
// output. tests/runtime/sharded_collector_test.cpp proves this.
//
// Threading contract: ingest_wire / ingest_bgp / finish must be called from
// ONE producer thread (they feed SPSC rings). The minute sink runs on the
// merge thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/collector.hpp"
#include "runtime/counters.hpp"
#include "runtime/ring.hpp"

namespace scrubber::runtime {

/// Total order over every FlowRecord field; the merge stage's canonical
/// emission order (and the order tests use to compare pipelines).
[[nodiscard]] bool canonical_flow_less(const net::FlowRecord& a,
                                       const net::FlowRecord& b) noexcept;

/// Shard index of a destination IP (splitmix64 of the address, modulo
/// `shards`) — stable across runs, uniform across shards.
[[nodiscard]] std::size_t shard_of(net::Ipv4Address dst,
                                   std::size_t shards) noexcept;

struct ShardedCollectorConfig {
  std::size_t shards = 1;              ///< number of collector shards
  core::Collector::Config collector{}; ///< per-shard collector config
  /// Per-shard ring + merge queue bound (records). It also sets the
  /// shard-ring batch size (shard_batch_samples in batch.hpp): the router
  /// accumulates each shard's sub-datagrams until the batch carries that
  /// many samples, and flushes every pending batch before broadcasting
  /// any control message — so each shard observes the exact datagram /
  /// BGP / punctuation sequence of the unbatched router.
  std::size_t queue_capacity = 1024;
};

/// One source datagram's contribution to one shard: the header fields the
/// collector needs (uptime_ms drives minute binning and late-drop
/// accounting, so samples are never merged across source datagrams) plus
/// a span into ShardMessage::samples. POD — recycled batches keep their
/// capacity across clear().
struct ShardSubDatagram {
  net::Ipv4Address agent;
  std::uint32_t sub_agent_id = 0;
  std::uint32_t sequence = 0;
  std::uint32_t uptime_ms = 0;
  std::uint32_t first_sample = 0;  ///< index into ShardMessage::samples
  std::uint32_t sample_count = 0;
};

/// Work item delivered to one shard worker.
struct ShardMessage {
  enum class Kind : std::uint8_t { kData, kBgp, kAdvance, kFinish };
  Kind kind = Kind::kData;
  /// kData: this shard's sub-datagrams in stream order; sub-datagram i
  /// owns samples [first_sample, first_sample + sample_count). Flat
  /// layout (two vectors, no per-datagram vector) so the fused
  /// decode→route path appends samples with zero per-datagram
  /// allocation and recycled messages keep both capacities.
  std::vector<ShardSubDatagram> subs;
  std::vector<net::SflowFlowSample> samples;
  bgp::UpdateMessage update;    ///< kBgp
  std::uint64_t now_ms = 0;     ///< kBgp: observation time
  std::uint32_t minute = 0;     ///< kAdvance: router watermark
};

/// Message from a shard worker to the merge thread.
struct MergeMessage {
  enum class Kind : std::uint8_t { kBatch, kHorizon };
  Kind kind = Kind::kBatch;
  std::size_t shard = 0;
  std::uint32_t minute = 0;  ///< kBatch: batch minute; kHorizon: flush horizon
  std::vector<net::FlowRecord> flows;  ///< kBatch payload
};

/// N collector shards + deterministic minute-barrier merge.
class ShardedCollector {
 public:
  ShardedCollector(ShardedCollectorConfig config, core::MinuteBatchSink sink);
  ~ShardedCollector();

  ShardedCollector(const ShardedCollector&) = delete;
  ShardedCollector& operator=(const ShardedCollector&) = delete;

  /// Fused decode→route: walks one sFlow datagram's wire bytes in place,
  /// appends each sample straight into its shard's open batch (no
  /// SflowDatagram materialization, no route-stage copy) and broadcasts
  /// the watermark when it advances. Blocks while shard rings are full.
  /// On a decode error the partial route is rolled back — shard batches
  /// are exactly as if the datagram never arrived — and the status is
  /// returned.
  [[nodiscard]] net::DecodeStatus ingest_wire(
      std::span<const std::uint8_t> wire);

  /// Broadcasts one BGP update to every shard (each keeps a full registry).
  void ingest_bgp(const bgp::UpdateMessage& update, std::uint64_t now_ms);

  /// Flushes every shard, drains the merge, joins all threads. After this
  /// returns the sink has received every minute batch. Idempotent.
  void finish();

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::uint64_t flows_emitted() const noexcept {
    return flows_emitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t minutes_merged() const noexcept {
    return minutes_merged_.load(std::memory_order_relaxed);
  }
  /// Sum of per-shard late-datagram drops (refreshed at punctuation).
  [[nodiscard]] std::uint64_t late_datagrams() const noexcept;

  [[nodiscard]] StageSnapshot collect_snapshot() const {
    return collect_.snapshot("collect");
  }
  [[nodiscard]] StageSnapshot merge_snapshot() const;

 private:
  struct Shard {
    Shard(std::size_t capacity, std::size_t batch_samples);
    SpscRing<ShardMessage> ring;
    /// The shard's fleet of kData messages not in the ring, the worker or
    /// the router's open batch, flowing back to the router so batch
    /// capacity is reused, never reallocated (worker pushes, router pops —
    /// SPSC in the reverse direction). The whole fleet is created at
    /// construction (see the constructor), so steady state creates none.
    SpscRing<ShardMessage> recycle;
    std::atomic<std::uint64_t> late{0};
    std::thread thread;
  };

  void shard_worker(std::size_t index);
  void merge_worker();
  /// Flushes every pending data batch, then delivers `message` to every
  /// shard — control never overtakes (or is overtaken by) buffered data.
  void broadcast(ShardMessage message);
  /// Pushes shard `s`'s pending batch into its ring (blocking) and opens
  /// the next one from the recycled fleet. No-op when empty.
  void flush_shard(std::size_t s);

  // --- route cursor (producer thread only) ---
  // ingest_wire() drives three steps: sample appends one sample to its
  // shard (opening a sub-datagram stamped with the datagram header on
  // first touch), commit does the post-datagram flush / watermark work,
  // rollback unwinds a partially routed datagram.
  void route_sample(const net::SflowHeaderView& header,
                    const net::SflowFlowSample& sample);
  void route_commit(std::uint32_t uptime_ms, std::size_t sample_total);
  void route_rollback();

  ShardedCollectorConfig config_;
  core::MinuteBatchSink sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MpscQueue<MergeMessage> merge_queue_;
  std::thread merge_thread_;
  std::size_t batch_samples_ = 1;  ///< samples per shard-ring batch
  // Router accumulators (producer thread only): one open data batch per
  // shard plus its sample count, and a per-ingest stamp marking whether
  // the current source datagram already opened a sub-datagram there.
  std::vector<ShardMessage> pending_;
  std::vector<std::size_t> pending_samples_;
  std::vector<std::uint64_t> sub_mark_;
  std::uint64_t ingest_seq_ = 0;
  std::uint32_t watermark_min_ = 0;  ///< router watermark (producer thread)
  bool finished_ = false;            ///< producer thread only
  std::atomic<bool> abort_{false};
  std::atomic<std::uint64_t> flows_emitted_{0};
  std::atomic<std::uint64_t> minutes_merged_{0};
  StageCounters collect_;
  StageCounters merge_;
};

}  // namespace scrubber::runtime
