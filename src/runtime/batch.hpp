#pragma once
// Batch sizing for the shard rings of the streaming runtime.
//
// The router moves fixed-capacity sample batches to each shard, not single
// samples: one SPSC push/pop (an acquire/release pair plus a shared cache
// line) is amortized over a whole batch. It flushes a shard's pending
// batch when full — or earlier, whenever ordering demands it (control
// events, watermark punctuation, finish).
//
// The batch size follows from the stage-queue bound `queue_capacity`,
// still expressed in RECORDS: 512 samples, clamped to queue_capacity/4 so
// a ring always holds at least four batches in flight. With tiny test
// queues (capacity 4) the batch degenerates to single-sample transfer and
// backpressure stays observable; with production queues (4096) the full
// 512 is used.

#include <algorithm>
#include <cstddef>

namespace scrubber::runtime {

/// Samples per shard-ring batch for a queue bound of `queue_capacity`
/// records: min(512, queue_capacity/4), and at least 1.
[[nodiscard]] constexpr std::size_t shard_batch_samples(
    std::size_t queue_capacity) noexcept {
  return std::clamp<std::size_t>(queue_capacity / 4, 1, 512);
}

/// Ring slot count holding batches such that total buffered records stay
/// in the order of `queue_capacity` (minimum 4 slots to pipeline).
[[nodiscard]] constexpr std::size_t batch_ring_slots(
    std::size_t queue_capacity, std::size_t batch_samples) noexcept {
  const std::size_t per = std::max<std::size_t>(1, batch_samples);
  return std::max<std::size_t>(4, queue_capacity / per);
}

}  // namespace scrubber::runtime
