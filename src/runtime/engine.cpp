#include "runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace scrubber::runtime {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t checked_pool_slots(std::size_t slots) {
  if (slots == 0) {
    throw std::invalid_argument("EngineConfig::wire_pool_slots must be > 0");
  }
  return slots;
}

}  // namespace

Engine::Engine(EngineConfig config, core::MinuteBatchSink minute_sink)
    : config_(config),
      minute_sink_(std::move(minute_sink)),
      wire_pool_(checked_pool_slots(config.wire_pool_slots),
                 config.wire_slot_bytes),
      batch_records_(effective_batch_records(config.batch_records,
                                             config.queue_capacity)),
      input_ring_(batch_ring_slots(config.queue_capacity, batch_records_)),
      score_ring_(std::max<std::size_t>(16, config.queue_capacity / 16)),
      batch_recycle_(batch_ring_slots(config.queue_capacity, batch_records_) +
                     4),
      start_(std::chrono::steady_clock::now()) {
  pending_.slots.reserve(batch_records_);
  ShardedCollectorConfig sharded_config;
  sharded_config.shards = config_.shards;
  sharded_config.collector = config_.collector;
  sharded_config.queue_capacity = config_.queue_capacity;
  sharded_config.batch_records = config_.batch_records;
  sharded_ = std::make_unique<ShardedCollector>(
      sharded_config,
      [this](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        // Merge thread → score ring. Blocking: merged minutes are already
        // deduplicated work, dropping them would corrupt detector state.
        ScoreItem item;
        item.minute = minute;
        item.flows.assign(flows.begin(), flows.end());
        score_ring_.push_blocking(std::move(item), abort_);
      });
  // Stage-graph topology: one collect worker per configured shard (the
  // sharded collector normalizes 0 to 1), and every stage queue bounded.
  SCRUBBER_ASSERT(sharded_->shards() == std::max<std::size_t>(1, config_.shards),
                  "engine stage graph lost a collect worker");
  SCRUBBER_ASSERT(input_ring_.capacity() >= 1 && score_ring_.capacity() >= 1,
                  "engine stage queues must be bounded and non-empty");
  decode_thread_ = std::thread([this] { decode_worker(); });
  score_thread_ = std::thread([this] { score_worker(); });
}

Engine::~Engine() {
  if (!finished_) {
    // Teardown without flush: stop our workers first (they may be inside
    // sharded_ calls), then let the sharded collector abort its own.
    abort_.store(true, std::memory_order_relaxed);
    if (decode_thread_.joinable()) decode_thread_.join();
    if (score_thread_.joinable()) score_thread_.join();
    sharded_.reset();
  }
}

bool Engine::flush_pending(bool block) {
  if (pending_.slots.empty() &&
      pending_.control == InputBatch::Control::kNone) {
    return true;
  }
  if (block) {
    input_ring_.push_blocking(std::move(pending_), abort_);
  } else if (!input_ring_.try_push(std::move(pending_))) {
    return false;  // ring full; batch stays pending (try_push left it intact)
  }
  // Prefer a recycled batch (drained by the decode worker; its cleared
  // slot vector keeps capacity) over allocating a fresh one. Once the
  // warm-up rounds have minted ring-capacity + in-flight batches, the
  // recycle ring is never empty here and steady state allocates nothing.
  if (!batch_recycle_.try_pop(pending_)) {
    pending_ = InputBatch{};
  }
  pending_.slots.clear();
  pending_.control = InputBatch::Control::kNone;
  pending_.slots.reserve(batch_records_);
  decode_.note_queue_depth(input_ring_.size() * batch_records_);
  return true;
}

bool Engine::reject() {
  input_drops_.fetch_add(1, std::memory_order_relaxed);
  decode_.add_drop();
  return false;
}

bool Engine::submit(WireSlot&& slot) {
  const bool block = config_.backpressure == Backpressure::kBlock;
  if (pending_.slots.size() >= batch_records_ && !flush_pending(block)) {
    // kDrop with a full ring: shed only the incoming datagram (its slot
    // recycles when the caller's handle dies). The pending batch is kept
    // and retried on the next submission, so accepted datagrams are never
    // lost and drops count rejected pushes 1:1.
    return reject();
  }
  pending_.slots.push_back(std::move(slot));
  if (pending_.slots.size() >= batch_records_) flush_pending(block);
  return true;
}

void Engine::submit_control(InputBatch::Control control) {
  // Control events cut the batch: BGP ordering relative to data is the
  // submission order, and control is never deferred behind a partial
  // batch (nor ever dropped — the flush blocks under either policy).
  pending_.control = control;
  flush_pending(true);
}

bool Engine::push_wire(WireSlot slot) { return submit(std::move(slot)); }

bool Engine::push_wire(std::span<const std::uint8_t> wire) {
  if (wire.size() > wire_pool_.slot_bytes()) return reject();
  WireSlot slot = wire_pool_.try_acquire();
  if (!slot) {
    // Dry pool: the pending batch may hold the very slots this push needs,
    // so hand it to the decode worker first; then either wait for one of
    // them to recycle or shed this datagram.
    if (config_.backpressure == Backpressure::kDrop) {
      flush_pending(false);
      return reject();
    }
    flush_pending(true);
    while (!(slot = wire_pool_.try_acquire_uncounted())) {
      std::this_thread::yield();
    }
  }
  std::copy(wire.begin(), wire.end(), slot.data());
  slot.set_size(wire.size());
  return submit(std::move(slot));
}

void Engine::push_bgp(bgp::UpdateMessage update, std::uint64_t now_ms) {
  pending_.update = std::move(update);
  pending_.now_ms = now_ms;
  submit_control(InputBatch::Control::kBgp);
}

void Engine::finish() {
  if (finished_) return;
  finished_ = true;
  submit_control(InputBatch::Control::kFinish);
  decode_thread_.join();  // returns once the sharded collector finished
  score_thread_.join();   // returns once the finish marker crossed scoring
  // Counter coherence across the stage graph, checked at the one point
  // where every queue is provably drained (all workers joined):
  //   decode out = datagrams + BGP updates (errors and the finish marker
  //                never leave the stage),
  //   score saw every merged minute exactly once,
  //   every flow the merge emitted reached the sink.
  SCRUBBER_ASSERT(decode_.items_out() ==
                      datagrams_.load(std::memory_order_relaxed) +
                          bgp_updates_.load(std::memory_order_relaxed),
                  "decode stage accounting leak");
  SCRUBBER_ASSERT(score_.items_in() == sharded_->minutes_merged(),
                  "score stage missed or duplicated a minute batch");
  SCRUBBER_ASSERT(flows_scored_.load(std::memory_order_relaxed) ==
                      sharded_->flows_emitted(),
                  "flows lost or duplicated between merge and score");
  SCRUBBER_ASSERT(input_ring_.empty() && score_ring_.empty(),
                  "engine finished with items stranded in a stage queue");
  wall_ns_final_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()),
      std::memory_order_relaxed);
}

void Engine::decode_worker() {
  InputBatch batch;
  for (;;) {
    if (!input_ring_.try_pop(batch)) {
      if (abort_.load(std::memory_order_relaxed)) return;
      std::this_thread::yield();
      continue;
    }
    for (WireSlot& slot : batch.slots) {
      decode_.add_in();
      // Fused decode→route: walk the wire bytes in place and append
      // samples straight into per-shard batches — no SflowDatagram
      // materialization, no route-stage copy. The walk cost lands in the
      // decode stage; the route stage's busy time is zero on this path
      // (routing happens inside the walk).
      // scrubber-hot-begin
      const std::uint64_t begin = now_ns();
      // Appends into preallocated, recycled per-shard batches —
      // steady-state growth is amortized to zero (proved by the
      // SCRUBBER_CHECKED counting-allocator test).
      // NOLINTNEXTLINE(scrubber-transitive): route_sample's push_back grows recycled shard batches only during warm-up (see above)
      const net::DecodeStatus status = sharded_->ingest_wire(slot.bytes());
      if (status == net::DecodeStatus::kOk) {
        datagrams_.fetch_add(1, std::memory_order_relaxed);
        decode_.add_out();
        route_.add_in();
        route_.add_out();
      } else {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      slot.release();  // recycle the pooled buffer
      decode_.add_busy_ns(now_ns() - begin);
      // scrubber-hot-end
    }
    switch (batch.control) {
      case InputBatch::Control::kNone:
        break;
      case InputBatch::Control::kBgp: {
        decode_.add_in();
        const std::uint64_t begin = now_ns();
        bgp_updates_.fetch_add(1, std::memory_order_relaxed);
        sharded_->ingest_bgp(batch.update, batch.now_ms);
        decode_.add_out();
        route_.add_busy_ns(now_ns() - begin);
        break;
      }
      case InputBatch::Control::kFinish: {
        decode_.add_in();
        sharded_->finish();  // all minute batches now sit in the score ring
        // finish() joined the merge thread, so the score ring's producer
        // endpoint hands off to this thread for the final sentinel.
        score_ring_.adopt_producer();
        ScoreItem fin;
        fin.finish = true;
        score_ring_.push_blocking(std::move(fin), abort_);
        return;
      }
    }
    // Hand the drained batch back to the producer: clear() keeps the slot
    // vector's capacity, so steady-state batching allocates nothing. A
    // full recycle ring just drops the batch.
    batch.slots.clear();
    batch.control = InputBatch::Control::kNone;
    (void)batch_recycle_.try_push(std::move(batch));
  }
}

void Engine::score_worker() {
  ScoreItem item;
  for (;;) {
    if (!score_ring_.try_pop(item)) {
      if (abort_.load(std::memory_order_relaxed)) return;
      std::this_thread::yield();
      continue;
    }
    if (item.finish) return;
    score_.add_in();
    score_.note_queue_depth(score_ring_.size());
    const std::uint64_t begin = now_ns();
    if (minute_sink_) {
      minute_sink_(item.minute, std::span<const net::FlowRecord>(
                                    item.flows.data(), item.flows.size()));
    }
    score_.add_busy_ns(now_ns() - begin);  // per-minute scoring latency
    score_.add_out();
    flows_scored_.fetch_add(item.flows.size(), std::memory_order_relaxed);
  }
}

EngineSnapshot Engine::stats() const {
  EngineSnapshot snap;
  const std::uint64_t frozen = wall_ns_final_.load(std::memory_order_relaxed);
  snap.wall_seconds =
      frozen != 0
          ? static_cast<double>(frozen) * 1e-9
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
  snap.datagrams = datagrams_.load(std::memory_order_relaxed);
  snap.bgp_updates = bgp_updates_.load(std::memory_order_relaxed);
  snap.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  snap.input_drops = input_drops_.load(std::memory_order_relaxed);
  snap.late_drops = sharded_->late_datagrams();
  snap.flows_out = flows_scored_.load(std::memory_order_relaxed);
  snap.minutes_merged = sharded_->minutes_merged();
  snap.pool_slots = wire_pool_.slots();
  snap.pool_in_use = wire_pool_.in_use();
  snap.pool_highwater = wire_pool_.highwater();
  snap.pool_exhausted = wire_pool_.exhausted();
  StageSnapshot collect = sharded_->collect_snapshot();
  snap.samples = collect.items_in;
  snap.stages.push_back(decode_.snapshot("decode"));
  snap.stages.push_back(route_.snapshot("route"));
  snap.stages.push_back(std::move(collect));
  snap.stages.push_back(sharded_->merge_snapshot());
  snap.stages.push_back(score_.snapshot("score"));
  return snap;
}

}  // namespace scrubber::runtime
