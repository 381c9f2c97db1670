#pragma once
// Streaming ingest engine: the stage graph
//
//   producer ─► [input ring] ─► decode ─► route ─► shard rings ─► collect×N
//                                                                    │
//   sink ◄── score ◄── [score ring] ◄── merge ◄── [merge queue] ◄────┘
//
// wired from the runtime building blocks. Every datagram enters as sFlow
// wire bytes in a slot of the engine's WireBufferPool (DESIGN.md §15).
// One decode/route worker drains the bounded input ring, walks each slot
// in place, and feeds the ShardedCollector (N collect workers + merge
// worker). Merged minute batches cross a bounded ring to the score
// worker, which invokes the user's minute sink (typically
// core::LiveDetector::ingest_minute) — so a slow model never blocks packet
// decode directly; backpressure propagates queue by queue until the
// producer either blocks or drops, per policy.
//
// The input ring carries one datagram slot per entry, or one rare control
// event (a BGP update or the finish marker), in submission order: every
// accepted datagram is visible to the decode worker as soon as push_wire
// returns, and control keeps its exact stream position. Under kDrop a full
// ring or a dry pool drops only the incoming datagram, so `input_drops`
// equals rejected push_wire() calls. The shard rings downstream still move
// sample batches (see batch.hpp).
//
// Producer API (push_wire / push_bgp / finish) must be called from one
// thread, which is also the pool's single acquirer. The minute sink runs
// on the score thread, and only there, so non-thread-safe sinks are fine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "runtime/counters.hpp"
#include "runtime/ring.hpp"
#include "runtime/sharded_collector.hpp"
#include "runtime/wire_pool.hpp"

namespace scrubber::runtime {

/// What the producer-facing input ring does when full.
enum class Backpressure {
  kBlock,  ///< push spins until space (lossless, producer-paced)
  kDrop,   ///< push fails fast, drop counted (loss-tolerant telemetry)
};

struct EngineConfig {
  std::size_t shards = 1;               ///< collector shards (collect workers)
  std::size_t queue_capacity = 1024;    ///< bound for every stage queue (records)
  Backpressure backpressure = Backpressure::kBlock;
  core::Collector::Config collector{};  ///< per-shard collector config
  /// Slots in the engine's WireBufferPool (see wire_pool.hpp): every
  /// datagram in flight between producer and decode worker holds one.
  /// Must be > 0.
  std::size_t wire_pool_slots = 4096;
  /// Capacity of each pooled slot; longer datagrams are rejected.
  std::size_t wire_slot_bytes = 8192;
};

/// Multi-threaded decode → shard → collect → merge → score pipeline.
class Engine {
 public:
  /// `minute_sink` receives every labeled minute batch, in minute order,
  /// on the score thread.
  Engine(EngineConfig config, core::MinuteBatchSink minute_sink);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues raw sFlow wire bytes living in a slot of wire_pool() — no
  /// copy, no allocation; the slot recycles after the decode worker walks
  /// it (or at once when dropped). Returns false iff dropped (kDrop).
  bool push_wire(WireSlot slot);

  /// Copies raw sFlow wire bytes into a slot of the engine's pool and
  /// enqueues it. A dry pool waits for the decode worker to recycle a slot
  /// (kBlock) or drops (kDrop). Bytes longer than `wire_slot_bytes` are
  /// rejected, never truncated. Returns false iff dropped or rejected;
  /// both count as one input drop.
  bool push_wire(std::span<const std::uint8_t> wire);

  /// The engine's wire buffer pool (never null). Receivers acquire slots
  /// here; slots they hand to push_wire flow through the ring and recycle
  /// automatically.
  [[nodiscard]] WireBufferPool* wire_pool() noexcept { return &wire_pool_; }

  /// Enqueues a BGP update. Updates are control-plane state the labels
  /// depend on, so they always block — never dropped, either policy.
  void push_bgp(bgp::UpdateMessage update, std::uint64_t now_ms);

  /// Drains every stage and joins every worker. After this returns the
  /// minute sink has seen all input. Idempotent.
  void finish();

  /// Coherent point-in-time stats (callable while running).
  [[nodiscard]] EngineSnapshot stats() const;

 private:
  struct ScoreItem {
    bool finish = false;
    std::uint32_t minute = 0;
    std::vector<net::FlowRecord> flows;
  };
  /// A BGP update, or the finish marker.
  struct Control {
    bool finish = false;
    bgp::UpdateMessage update;  ///< !finish
    std::uint64_t now_ms = 0;   ///< !finish
  };
  /// One input-ring entry: a datagram slot, or else a control event. The
  /// control lives on the heap so the entry stays 24 bytes; BGP updates
  /// and the finish marker are rare.
  struct InputItem {
    WireSlot slot;
    std::unique_ptr<Control> control;
  };

  void decode_worker();
  void score_worker();
  /// Pushes one control event, blocking under either policy.
  void push_control(Control control);
  /// Counts one rejected push_wire() call.
  bool reject();

  EngineConfig config_;
  core::MinuteBatchSink minute_sink_;
  /// Declared before every ring: rings may hold WireSlots at teardown,
  /// and slot destructors recycle into the pool — reverse destruction
  /// order keeps the pool alive until they ran.
  WireBufferPool wire_pool_;
  SpscRing<InputItem> input_ring_;
  SpscRing<ScoreItem> score_ring_;
  std::unique_ptr<ShardedCollector> sharded_;
  std::thread decode_thread_;
  std::thread score_thread_;
  std::atomic<bool> abort_{false};
  bool finished_ = false;  ///< producer thread only

  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> wall_ns_final_{0};  ///< frozen at finish()
  std::atomic<std::uint64_t> datagrams_{0};
  std::atomic<std::uint64_t> bgp_updates_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> input_drops_{0};
  std::atomic<std::uint64_t> flows_scored_{0};
  StageCounters decode_;
  StageCounters route_;
  StageCounters score_;
};

}  // namespace scrubber::runtime
