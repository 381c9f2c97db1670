// Property tests for the learning-plane thread pool: the determinism
// contract (bit-identical results for any thread count), the static
// chunking layout callers' ordered merges rely on, exception propagation,
// and nested-region behavior. Run in every sanitizer config; the TSan job
// is the one that proves the concurrent paths race-free.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace scrubber::util {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunksPartitionTheRangeContiguouslyAscending) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 100;
  const std::size_t chunks = pool.plan_chunks(kN);
  ASSERT_EQ(chunks, 3u);
  std::vector<std::pair<std::size_t, std::size_t>> bounds(chunks);
  pool.parallel_for_chunks(kN, [&](std::size_t c, std::size_t begin,
                                   std::size_t end) {
    bounds[c] = {begin, end};
  });
  EXPECT_EQ(bounds.front().first, 0u);
  EXPECT_EQ(bounds.back().second, kN);
  for (std::size_t c = 1; c < chunks; ++c) {
    EXPECT_EQ(bounds[c].first, bounds[c - 1].second)
        << "chunk " << c << " not contiguous";
  }
}

TEST(ThreadPool, PlanChunksRespectsMaxChunksAndSmallRanges) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.plan_chunks(3), 3u);   // never more chunks than work
  EXPECT_EQ(pool.plan_chunks(100), 8u);
  EXPECT_EQ(pool.plan_chunks(100, 1), 1u);
  EXPECT_EQ(pool.plan_chunks(100, 5), 5u);
  EXPECT_EQ(pool.plan_chunks(0), 0u);
}

TEST(ThreadPool, PerIndexResultsIdenticalForAnyThreadCount) {
  constexpr std::size_t kN = 4096;
  std::vector<double> reference;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> out(kN, 0.0);
    pool.parallel_for(kN, [&](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i)) * 1e6;
    });
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << "thread count " << threads;
    }
  }
}

// The merge discipline every call site uses: per-chunk running argmax
// (strict >) folded in ascending chunk order equals the sequential left
// fold, for any chunk partition — including duplicated maxima, where the
// earliest index must win.
TEST(ThreadPool, OrderedChunkMergeEqualsSequentialArgmax) {
  constexpr std::size_t kN = 513;
  Rng rng(99);
  std::vector<double> values(kN);
  for (double& v : values) v = rng.uniform();
  values[100] = 2.0;  // duplicated maximum: index 100 must win
  values[400] = 2.0;

  std::size_t sequential_best = 0;
  for (std::size_t i = 1; i < kN; ++i) {
    if (values[i] > values[sequential_best]) sequential_best = i;
  }

  for (const unsigned threads : {1u, 2u, 5u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t chunks = pool.plan_chunks(kN);
    std::vector<std::size_t> chunk_best(chunks, 0);
    pool.parallel_for_chunks(kN, [&](std::size_t c, std::size_t begin,
                                     std::size_t end) {
      std::size_t best = begin;
      for (std::size_t i = begin + 1; i < end; ++i) {
        if (values[i] > values[best]) best = i;
      }
      chunk_best[c] = best;
    });
    std::size_t best = chunk_best[0];
    for (std::size_t c = 1; c < chunks; ++c) {
      if (values[chunk_best[c]] > values[best]) best = chunk_best[c];
    }
    EXPECT_EQ(best, sequential_best) << "thread count " << threads;
  }
}

TEST(ThreadPool, LowestChunkExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100;  // chunks: [0,25) [25,50) [50,75) [75,100)
  try {
    pool.parallel_for(kN, [](std::size_t i) {
      if (i >= 50) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Chunk 2 is the lowest throwing chunk; it scans ascending from 50.
    EXPECT_STREQ(e.what(), "50");
  }
  // The pool survives: the next region runs to completion.
  std::vector<int> out(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { out[i] = 1; });
  for (const int v : out) EXPECT_EQ(v, 1);
}

TEST(ThreadPool, NestedRegionsRunInlineWithCorrectResults) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<double>> out(kOuter);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    out[o].assign(kInner, 0.0);
    // Nested region: must not deadlock, must produce the same values.
    pool.parallel_for(kInner, [&](std::size_t i) {
      out[o][i] = static_cast<double>(o * kInner + i);
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(out[o][i], static_cast<double>(o * kInner + i));
    }
  }
}

TEST(ThreadPool, TrainingPoolReconfigures) {
  const unsigned two = set_training_threads(2);
  EXPECT_EQ(two, 2u);
  EXPECT_EQ(training_pool().thread_count(), 2u);
  // 0 restores the hardware default.
  const unsigned restored = set_training_threads(0);
  EXPECT_GE(restored, 1u);
}

}  // namespace
}  // namespace scrubber::util
