#pragma once
// Content-hash-keyed cache of immutable BinnedMatrix instances, so grid
// search cells and repeated fits over the same encoded fold (the paper's
// central-retraining workload: Table 4 sweeps, the §drift rolling
// refresh) reuse one binned copy instead of re-sorting every column per
// fit.
//
// Keying is by VALUE, never by address: a 128-bit content hash over the
// dataset's raw cell bytes plus the exact binning parameters (rows, cols,
// max_bins, missing policy). Labels are excluded — binning never reads
// them. Two Dataset objects with equal cell bytes therefore share one
// matrix, and a cache hit returns a value bit-identical to a fresh
// build (BinnedMatrix construction is deterministic), so cache state can
// never change a training result.
//
// Thread-safe: concurrent get_or_build calls race benignly — both build
// on a shared miss, first insert wins, and both results are value-equal.
// The build itself runs outside the lock so independent datasets never
// serialize. Bounded: FIFO eviction beyond kCapacity entries. Hit/miss/
// eviction counters are readable through stats().

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/binned.hpp"

namespace scrubber::ml {

class BinCache {
 public:
  /// Entries kept before FIFO eviction: enough for a k-fold grid search
  /// (k live fold matrices) plus the full-set refit, small enough that a
  /// long-running retraining loop stays bounded.
  static constexpr std::size_t kCapacity = 8;

  /// Cache observability counters (monotonic since last clear()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// The process-wide cache shared by every GBT fit.
  [[nodiscard]] static BinCache& instance();

  /// Returns the cached matrix for (data content, max_bins, policy),
  /// building and inserting it on a miss.
  [[nodiscard]] std::shared_ptr<const BinnedMatrix> get_or_build(
      const Dataset& data, std::size_t max_bins, MissingPolicy policy);

  [[nodiscard]] Stats stats() const;

  /// Drops every entry and zeroes the counters (tests, bench rows).
  void clear();

 private:
  /// Value identity of one binning request; hash128 covers the cell
  /// bytes, the explicit fields pin the dimensions and parameters so a
  /// (vanishingly unlikely) hash collision between different shapes can
  /// never alias.
  struct Key {
    std::uint64_t hash_lo = 0;
    std::uint64_t hash_hi = 0;
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    std::uint64_t max_bins = 0;
    MissingPolicy policy = MissingPolicy::kMinusOne;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Entry {
    Key key;
    std::shared_ptr<const BinnedMatrix> matrix;
  };

  [[nodiscard]] static Key make_key(const Dataset& data, std::size_t max_bins,
                                    MissingPolicy policy) noexcept;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  ///< insertion order (FIFO eviction)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace scrubber::ml
