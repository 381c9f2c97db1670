#pragma once
// util::Arena — bump allocator for per-minute scratch.
//
// The per-minute cycle builds many short-lived, variably-sized objects
// (per-IP flow chains in the balancer, per-group scratch in the
// aggregator) whose lifetimes all end together when the minute closes.
// A bump allocator turns each of those allocations into a pointer
// increment and the collective free into reset(): blocks are kept and
// reused, so a steady-state minute performs zero heap traffic.
//
// Only trivially-destructible (implicit-lifetime) types may be allocated —
// reset() never runs destructors and alloc() hands back uninitialized
// storage; callers assign every field they read. Blocks grow geometrically
// up to a cap so one oversized minute does not balloon later ones.
//
// Not thread-safe; give each worker its own arena.

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace scrubber::util {

class Arena {
 public:
  /// `first_block_bytes` sizes the initial block; later blocks double up
  /// to kMaxBlockBytes.
  explicit Arena(std::size_t first_block_bytes = 16 * 1024)
      : next_block_bytes_(first_block_bytes < kMinBlockBytes
                              ? kMinBlockBytes
                              : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Uninitialized storage for `count` objects of trivially-destructible T.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::reset never runs destructors");
    return static_cast<T*>(raw_alloc(count * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, keeping every block for reuse.
  void reset() noexcept {
    current_ = 0;
    offset_ = 0;
  }

 private:
  static constexpr std::size_t kMinBlockBytes = 1024;
  static constexpr std::size_t kMaxBlockBytes = 4 * 1024 * 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    for (;;) {
      if (current_ < blocks_.size()) {
        Block& block = blocks_[current_];
        const std::size_t aligned =
            (offset_ + align - 1) & ~(align - 1);
        if (aligned + bytes <= block.size) {
          offset_ = aligned + bytes;
          return block.data.get() + aligned;
        }
        // Current block exhausted: advance (a retained later block may
        // already be big enough).
        ++current_;
        offset_ = 0;
        continue;
      }
      // Need a fresh block, sized for the request.
      std::size_t size = next_block_bytes_;
      while (size < bytes + align) size *= 2;
      if (next_block_bytes_ < kMaxBlockBytes) next_block_bytes_ *= 2;
      blocks_.push_back(
          Block{std::make_unique<std::byte[]>(size), size});
    }
  }

  std::vector<Block> blocks_;
  std::size_t current_ = 0;          ///< block being bumped
  std::size_t offset_ = 0;           ///< bump offset in current block
  std::size_t next_block_bytes_;     ///< size of the next new block
};

}  // namespace scrubber::util
