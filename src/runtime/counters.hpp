#pragma once
// Relaxed-atomic telemetry for the streaming runtime.
//
// Every stage of the engine (decode, shard-route, collect, merge, score)
// owns one StageCounters block. Workers bump the counters with relaxed
// atomics on the hot path — ordering between counters does not matter,
// only eventual visibility — and snapshot() materializes a plain struct
// for the daemon's periodic stats line and the final report. Counters are
// monotonically increasing, so a snapshot is a consistent lower bound
// even while workers keep running.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace scrubber::runtime {

/// Point-in-time copy of one stage's counters.
struct StageSnapshot {
  std::string name;
  std::uint64_t items_in = 0;    ///< work items entering the stage
  std::uint64_t items_out = 0;   ///< work items leaving the stage
  std::uint64_t drops = 0;       ///< items discarded under backpressure
  std::uint64_t queue_highwater = 0;  ///< deepest input-queue occupancy seen
  double busy_seconds = 0.0;     ///< time spent processing (vs. waiting)

  /// Fraction of `wall_seconds` this stage spent doing work.
  [[nodiscard]] double utilization(double wall_seconds) const noexcept {
    return wall_seconds <= 0.0 ? 0.0 : busy_seconds / wall_seconds;
  }
};

/// One stage's live counters (shared between a worker and snapshotters).
class StageCounters {
 public:
  void add_in(std::uint64_t n = 1) noexcept {
    in_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_out(std::uint64_t n = 1) noexcept {
    out_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_drop(std::uint64_t n = 1) noexcept {
    drops_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_busy_ns(std::uint64_t ns) noexcept {
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// Records an observed input-queue depth, keeping the maximum.
  void note_queue_depth(std::uint64_t depth) noexcept {
    std::uint64_t seen = highwater_.load(std::memory_order_relaxed);
    while (depth > seen && !highwater_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t drops() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t items_in() const noexcept {
    return in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t items_out() const noexcept {
    return out_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] StageSnapshot snapshot(std::string name) const;

 private:
  std::atomic<std::uint64_t> in_{0};
  std::atomic<std::uint64_t> out_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> highwater_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Engine-wide snapshot: totals plus one entry per stage.
struct EngineSnapshot {
  double wall_seconds = 0.0;
  std::uint64_t datagrams = 0;      ///< sFlow datagrams accepted
  std::uint64_t samples = 0;        ///< packet samples routed to shards
  std::uint64_t bgp_updates = 0;    ///< BGP updates broadcast
  std::uint64_t decode_errors = 0;  ///< malformed wire datagrams
  std::uint64_t input_drops = 0;    ///< rejected pushes (kDrop, oversize)
  std::uint64_t late_drops = 0;     ///< shard-side late-datagram drops
  std::uint64_t flows_out = 0;      ///< labeled flows delivered to the sink
  std::uint64_t minutes_merged = 0; ///< minute batches emitted in order
  // Wire buffer pool occupancy.
  std::uint64_t pool_slots = 0;     ///< configured pool capacity
  std::uint64_t pool_in_use = 0;    ///< slots currently in flight
  std::uint64_t pool_highwater = 0; ///< deepest in-flight occupancy seen
  std::uint64_t pool_exhausted = 0; ///< acquires that found the pool empty
  std::vector<StageSnapshot> stages;

  [[nodiscard]] double flows_per_sec() const noexcept {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(flows_out) / wall_seconds;
  }

  /// One-line periodic stats string (the `ixpd` heartbeat).
  [[nodiscard]] std::string stats_line() const;

  /// Multi-line final report with per-stage utilization.
  [[nodiscard]] std::string report() const;
};

}  // namespace scrubber::runtime
