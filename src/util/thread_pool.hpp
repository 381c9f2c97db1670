#pragma once
// Shared fixed-size worker pool for the offline learning plane (GBT
// training, exact split search, FP-Growth mining, grid search). The
// serving path (src/runtime/) owns its threads; everything else in the
// tree goes through this pool — enforced by the scrubber-raw-thread lint
// rule.
//
// Determinism contract (mirrors the sharding/batching/flowgen contracts,
// DESIGN.md §9): every learning-plane result must be bit-identical for
// any thread count. The pool supplies the two primitives that make that
// cheap to guarantee:
//
//   * parallel_for / parallel_for_chunks — statically partitions [0, n)
//     into contiguous ascending chunks. Callers either write only to
//     per-index slots (thread-count independent by construction) or keep
//     a per-chunk partial and merge the chunk partials *in ascending
//     chunk order* after the join. Because chunks are contiguous and a
//     chunk-local fold scans ascending, the two-level ascending fold
//     equals the sequential left fold for any associative-with-left-bias
//     merge (e.g. strict `>` argmax keeping the earliest maximum) — for
//     ANY chunk partition, hence for any thread count.
//
// Nesting: a parallel region entered from inside another parallel region
// (e.g. GBT histogram building inside a grid-search cell) runs inline on
// the calling thread in ascending chunk order — same results, no
// deadlock, no oversubscription. Concurrent top-level regions from two
// different user threads serialize the pool; the loser runs inline.
//
// Exceptions thrown by chunk bodies are captured and the one from the
// lowest-numbered chunk is rethrown on the calling thread after all
// chunks finished; the pool stays usable.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace scrubber::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` participants (the calling thread plus
  /// threads-1 workers). 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0) {
    if (threads == 0) threads = std::max(1U, std::thread::hardware_concurrency());
    thread_count_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    // jthread joins on destruction.
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants, including the calling thread.
  [[nodiscard]] unsigned thread_count() const noexcept { return thread_count_; }

  /// Chunk count parallel_for_chunks(n, ., max_chunks) will use; callers
  /// size per-chunk partial buffers with this.
  [[nodiscard]] std::size_t plan_chunks(std::size_t n,
                                        std::size_t max_chunks = 0) const noexcept {
    std::size_t chunks = std::min<std::size_t>(thread_count_, n);
    if (max_chunks != 0) chunks = std::min(chunks, max_chunks);
    return chunks;
  }

  /// Runs fn(chunk, begin, end) over a static partition of [0, n) into
  /// plan_chunks(n, max_chunks) contiguous ascending chunks. Blocks until
  /// every chunk finished (or rethrows the lowest chunk's exception).
  template <typename Fn>
  void parallel_for_chunks(std::size_t n, Fn&& fn, std::size_t max_chunks = 0) {
    const std::size_t chunks = plan_chunks(n, max_chunks);
    if (chunks == 0) return;
    if (chunks == 1 || tls_in_parallel()) {
      run_inline(n, chunks, fn);
      return;
    }
    // One top-level region at a time; a concurrent caller runs inline.
    std::unique_lock<std::mutex> region(region_mutex_, std::try_to_lock);
    if (!region.owns_lock()) {
      run_inline(n, chunks, fn);
      return;
    }

    Job job;
    job.chunks = chunks;
    job.n = n;
    job.exceptions.assign(chunks, nullptr);
    job.run = [&fn](std::size_t chunk, std::size_t begin, std::size_t end) {
      fn(chunk, begin, end);
    };
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
      job.pending_acks = static_cast<unsigned>(workers_.size());
    }
    work_cv_.notify_all();

    // The caller is participant 0 and owns chunk 0.
    run_chunk(job, 0);

    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return job.pending_acks == 0; });
      job_ = nullptr;
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      if (job.exceptions[c]) std::rethrow_exception(job.exceptions[c]);
    }
  }

  /// Runs fn(i) for every i in [0, n), statically chunked as above.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t max_chunks = 0) {
    parallel_for_chunks(
        n,
        [&fn](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        },
        max_chunks);
  }

 private:
  struct Job {
    std::size_t chunks = 0;
    std::size_t n = 0;
    std::function<void(std::size_t, std::size_t, std::size_t)> run;
    std::vector<std::exception_ptr> exceptions;
    unsigned pending_acks = 0;  ///< workers yet to finish this job
  };

  /// Flag marking threads currently executing a chunk body; a nested
  /// parallel region from such a thread runs inline.
  static bool& tls_in_parallel() noexcept {
    thread_local bool in_parallel = false;
    return in_parallel;
  }

  template <typename Fn>
  static void run_inline(std::size_t n, std::size_t chunks, Fn& fn) {
    const bool outer = tls_in_parallel();
    tls_in_parallel() = true;
    try {
      for (std::size_t c = 0; c < chunks; ++c) {
        fn(c, c * n / chunks, (c + 1) * n / chunks);
      }
    } catch (...) {
      tls_in_parallel() = outer;
      throw;
    }
    tls_in_parallel() = outer;
  }

  void run_chunk(Job& job, std::size_t chunk) noexcept {
    const bool outer = tls_in_parallel();
    tls_in_parallel() = true;
    try {
      job.run(chunk, chunk * job.n / job.chunks,
              (chunk + 1) * job.n / job.chunks);
    } catch (...) {
      job.exceptions[chunk] = std::current_exception();
    }
    tls_in_parallel() = outer;
  }

  void worker_main(unsigned worker_index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      Job* job = job_;
      lock.unlock();
      // Participant `worker_index` owns chunk `worker_index` (the caller
      // owns chunk 0); workers beyond the chunk count just acknowledge.
      if (job != nullptr && worker_index < job->chunks) {
        run_chunk(*job, worker_index);
      }
      lock.lock();
      if (job != nullptr && --job->pending_acks == 0) done_cv_.notify_all();
    }
  }

  unsigned thread_count_ = 1;
  std::vector<std::jthread> workers_;
  std::mutex region_mutex_;  ///< one top-level region at a time
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

// ---------------------------------------------------------------------------
// Process-wide training pool
// ---------------------------------------------------------------------------
//
// The learning plane shares one pool so `--train-threads` is a single
// knob. Configure it (set_training_threads) before or between training
// runs — never while one is in flight.

namespace detail {
struct TrainingPoolState {
  std::mutex mutex;
  unsigned configured = 0;  ///< 0 = hardware_concurrency
  std::unique_ptr<ThreadPool> pool;
};
inline TrainingPoolState& training_pool_state() {
  static TrainingPoolState state;
  return state;
}
}  // namespace detail

/// The shared learning-plane pool, built lazily with the configured
/// thread count (default: hardware_concurrency).
inline ThreadPool& training_pool() {
  auto& state = detail::training_pool_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.pool) state.pool = std::make_unique<ThreadPool>(state.configured);
  return *state.pool;
}

/// Reconfigures the training pool to `threads` participants (0 =
/// hardware_concurrency). Tears the old pool down; call only between
/// training runs. Returns the effective thread count.
inline unsigned set_training_threads(unsigned threads) {
  auto& state = detail::training_pool_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.configured = threads;
  state.pool = std::make_unique<ThreadPool>(threads);
  return state.pool->thread_count();
}

}  // namespace scrubber::util
