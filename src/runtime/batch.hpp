#pragma once
// Batch sizing policy for the streaming runtime.
//
// Every ring in the stage graph moves fixed-capacity batches, not single
// records: one SPSC push/pop (an acquire/release pair plus a shared cache
// line) is amortized over `batch_records` records instead of being paid
// per record. The producer side of each edge accumulates records into a
// pending batch and flushes it when full — or earlier, whenever ordering
// demands it (control events, watermark punctuation, finish).
//
// Two knobs interact:
//   queue_capacity  — the stage-queue bound, still expressed in RECORDS so
//                     existing configs keep their memory meaning;
//   batch_records   — the target batch size (default 512, the middle of
//                     the 256–1024 sweet spot measured by a batch x
//                     shards engine sweep, DESIGN.md §8).
//
// effective_batch_records() clamps the target so a ring always holds at
// least a few in-flight batches: with tiny test queues (capacity 8) the
// batch degenerates towards single-record transfer and backpressure/drop
// semantics stay observable; with production queues (4096) the full batch
// size is used.

#include <algorithm>
#include <cstddef>

namespace scrubber::runtime {

/// Default records per ring batch (bench-derived, see DESIGN.md §8).
inline constexpr std::size_t kDefaultBatchRecords = 512;

/// Records per batch actually used for a queue bound of `queue_capacity`
/// records: at least 1, at most queue_capacity/4 so the ring pipelines
/// four or more batches between producer and consumer.
[[nodiscard]] constexpr std::size_t effective_batch_records(
    std::size_t batch_records, std::size_t queue_capacity) noexcept {
  const std::size_t requested =
      batch_records == 0 ? kDefaultBatchRecords : batch_records;
  const std::size_t cap = std::max<std::size_t>(1, queue_capacity / 4);
  return std::clamp<std::size_t>(requested, 1, cap);
}

/// Ring slot count holding batches such that total buffered records stay
/// in the order of `queue_capacity` (minimum 4 slots to pipeline).
[[nodiscard]] constexpr std::size_t batch_ring_slots(
    std::size_t queue_capacity, std::size_t batch_records) noexcept {
  const std::size_t per = std::max<std::size_t>(1, batch_records);
  return std::max<std::size_t>(4, queue_capacity / per);
}

}  // namespace scrubber::runtime
