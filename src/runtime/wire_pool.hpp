#pragma once
// Fixed-capacity wire buffer pool (DESIGN.md §15).
//
// Every datagram the engine ingests sits in a pooled slot: the receiver
// acquires a slot and the kernel writes the wire bytes into it (or
// Engine::push_wire copies them in), a WireSlot handle (pool pointer +
// index, no heap) travels the input ring, and the decode worker releases
// the slot after the in-place walk. Capacity is fixed at construction —
// under flood the pool runs dry and the producer waits or drops, per the
// engine's backpressure policy, instead of growing, so ingest memory is
// bounded no matter what the wire does.
//
// Concurrency shape: ONE acquiring thread (the engine's producer), any
// number of releasing threads (in practice the decode worker, plus
// teardown paths destroying stranded handles). Releases push onto a
// Treiber free stack; the acquirer detaches the whole stack at once into
// a private LIFO cache, so there is no ABA window (pop-all, never
// pop-one) and the steady state touches the shared head once per drained
// batch. Both paths are lock-free and allocation-free; the only
// allocations are the three arrays in the constructor.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "util/check.hpp"

namespace scrubber::runtime {

class WireBufferPool;

/// Move-only RAII handle to one pooled wire buffer. An empty handle
/// (default-constructed, moved-from, or acquired from a dry pool) is
/// falsy and releases nothing.
class WireSlot {
 public:
  WireSlot() noexcept = default;
  WireSlot(WireSlot&& other) noexcept
      : pool_(other.pool_), index_(other.index_), size_(other.size_) {
    other.pool_ = nullptr;
  }
  WireSlot& operator=(WireSlot&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      index_ = other.index_;
      size_ = other.size_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  WireSlot(const WireSlot&) = delete;
  WireSlot& operator=(const WireSlot&) = delete;
  ~WireSlot() { release(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return pool_ != nullptr;
  }

  [[nodiscard]] inline std::uint8_t* data() noexcept;
  [[nodiscard]] inline const std::uint8_t* data() const noexcept;
  [[nodiscard]] inline std::size_t capacity() const noexcept;

  /// Bytes of the datagram currently held (set by the writer).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  void set_size(std::size_t size) noexcept {
    size_ = static_cast<std::uint32_t>(size);
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data(), size()};
  }

  /// Returns the buffer to the pool; the handle becomes empty.
  inline void release() noexcept;

 private:
  friend class WireBufferPool;
  WireSlot(WireBufferPool* pool, std::uint32_t index) noexcept
      : pool_(pool), index_(index) {}

  WireBufferPool* pool_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t size_ = 0;
};

/// Pool of `slots` fixed-size wire buffers. See the file comment for the
/// concurrency contract (one acquirer, many releasers).
class WireBufferPool {
 public:
  WireBufferPool(std::size_t slots, std::size_t slot_bytes)
      : slots_(slots),
        slot_bytes_(slot_bytes),
        storage_(std::make_unique<std::uint8_t[]>(slots * slot_bytes)),
        next_(std::make_unique<std::atomic<std::uint32_t>[]>(slots)),
        cache_(std::make_unique<std::uint32_t[]>(slots)),
        cache_count_(slots) {
    // Seed the acquirer cache with every slot (low indices handed out
    // first) so startup never touches the shared free stack.
    for (std::size_t i = 0; i < slots_; ++i) {
      cache_[i] = static_cast<std::uint32_t>(slots_ - 1 - i);
    }
  }

  WireBufferPool(const WireBufferPool&) = delete;
  WireBufferPool& operator=(const WireBufferPool&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t slot_bytes() const noexcept { return slot_bytes_; }

  // The acquire/release pair runs once per received datagram.
  // scrubber-hot-begin

  /// Acquires a free slot; empty handle when the pool is dry (counted in
  /// exhausted()). Must be called from one thread only.
  [[nodiscard]] WireSlot try_acquire() noexcept {
    WireSlot slot = try_acquire_uncounted();
    if (!slot) exhausted_.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  /// try_acquire() without counting a dry pool: for a caller that already
  /// counted this datagram's miss and is waiting for a slot to recycle.
  [[nodiscard]] WireSlot try_acquire_uncounted() noexcept {
    SCRUBBER_ASSERT_THREAD(acquire_owner_, "WireBufferPool acquire endpoint");
    if (cache_count_ == 0) {
      // Detach the whole free stack in one exchange (pop-all: no ABA).
      std::uint32_t head =
          free_head_.exchange(kNil, std::memory_order_acquire);
      while (head != kNil) {
        cache_[cache_count_++] = head;
        head = next_[head].load(std::memory_order_relaxed);
      }
    }
    if (cache_count_ == 0) return WireSlot{};
    const std::uint32_t index = cache_[--cache_count_];
    const std::uint64_t used =
        in_use_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t seen = highwater_.load(std::memory_order_relaxed);
    while (used > seen &&
           !highwater_.compare_exchange_weak(seen, used,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
    }
    return WireSlot{this, index};
  }

  /// Returns slot `index` to the free stack. Any thread.
  void recycle(std::uint32_t index) noexcept {
    std::uint32_t head = free_head_.load(std::memory_order_relaxed);
    do {
      next_[index].store(head, std::memory_order_relaxed);
    } while (!free_head_.compare_exchange_weak(head, index,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
    in_use_.fetch_sub(1, std::memory_order_relaxed);
  }

  // scrubber-hot-end

  /// Slots currently handed out (exact at quiescence).
  [[nodiscard]] std::uint64_t in_use() const noexcept {
    return in_use_.load(std::memory_order_relaxed);
  }
  /// Deepest occupancy ever observed.
  [[nodiscard]] std::uint64_t highwater() const noexcept {
    return highwater_.load(std::memory_order_relaxed);
  }
  /// try_acquire() calls that found the pool dry (each one is a datagram
  /// that had to wait for a slot, be copied from scratch, or be dropped).
  [[nodiscard]] std::uint64_t exhausted() const noexcept {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  friend class WireSlot;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;

  [[nodiscard]] std::uint8_t* slot_data(std::uint32_t index) noexcept {
    return storage_.get() + static_cast<std::size_t>(index) * slot_bytes_;
  }

  std::size_t slots_;
  std::size_t slot_bytes_;
  std::unique_ptr<std::uint8_t[]> storage_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;  ///< free-stack links
  std::unique_ptr<std::uint32_t[]> cache_;  ///< acquirer-private LIFO
  std::size_t cache_count_ = 0;
  alignas(64) std::atomic<std::uint32_t> free_head_{kNil};
  std::atomic<std::uint64_t> in_use_{0};
  std::atomic<std::uint64_t> highwater_{0};
  std::atomic<std::uint64_t> exhausted_{0};
#if defined(SCRUBBER_CHECKED)
  util::ThreadOwner acquire_owner_;
#endif
};

inline std::uint8_t* WireSlot::data() noexcept {
  return pool_->slot_data(index_);
}
inline const std::uint8_t* WireSlot::data() const noexcept {
  return pool_->slot_data(index_);
}
inline std::size_t WireSlot::capacity() const noexcept {
  return pool_->slot_bytes();
}
inline void WireSlot::release() noexcept {
  if (pool_ == nullptr) return;
  pool_->recycle(index_);
  pool_ = nullptr;
}

}  // namespace scrubber::runtime
