#include "runtime/sharded_collector.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>

#include "util/check.hpp"

namespace scrubber::runtime {
namespace {

constexpr std::uint32_t kClosedForever =
    std::numeric_limits<std::uint32_t>::max();

/// Nanoseconds since an arbitrary epoch (busy-time accounting).
std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool canonical_flow_less(const net::FlowRecord& a,
                         const net::FlowRecord& b) noexcept {
  const auto key = [](const net::FlowRecord& f) {
    return std::tuple(f.minute, f.src_ip.value(), f.dst_ip.value(), f.src_port,
                      f.dst_port, f.protocol, f.tcp_flags, f.src_member,
                      f.packets, f.bytes, f.blackholed);
  };
  return key(a) < key(b);
}

std::size_t shard_of(net::Ipv4Address dst, std::size_t shards) noexcept {
  // splitmix64 finalizer: cheap, well-mixed, stable across runs.
  std::uint64_t x = dst.value();
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

ShardedCollector::ShardedCollector(ShardedCollectorConfig config,
                                   core::MinuteBatchSink sink)
    : config_(config),
      sink_(std::move(sink)),
      merge_queue_(std::max<std::size_t>(config.queue_capacity,
                                         4 * std::max<std::size_t>(
                                                 config.shards, 1))) {
  if (config_.shards == 0) config_.shards = 1;
  batch_records_ =
      effective_batch_records(config_.batch_records, config_.queue_capacity);
  const std::size_t slots =
      batch_ring_slots(config_.queue_capacity, batch_records_);
  shards_.reserve(config_.shards);
  pending_.resize(config_.shards);
  pending_samples_.assign(config_.shards, 0);
  sub_mark_.assign(config_.shards, 0);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(slots));
  }
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_worker(i); });
  }
  merge_thread_ = std::thread([this] { merge_worker(); });
}

ShardedCollector::~ShardedCollector() {
  if (!finished_) {
    // Abandon in-flight work: unblock every thread and join. No flush —
    // destruction without finish() drops open bins by design.
    abort_.store(true, std::memory_order_relaxed);
    merge_queue_.close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    if (merge_thread_.joinable()) merge_thread_.join();
  }
}

ShardMessage ShardedCollector::fresh_data_message(std::size_t s) {
  ShardMessage recycled;
  if (shards_[s]->recycle.try_pop(recycled)) {
    // Drained batch coming back from the worker: vectors are already
    // cleared (POD/trivial payloads, so clear() kept their capacity) and
    // steady state appends allocate nothing.
    recycled.kind = ShardMessage::Kind::kData;
    recycled.subs.clear();
    recycled.samples.clear();
    return recycled;
  }
  return ShardMessage{};
}

void ShardedCollector::flush_shard(std::size_t s) {
  if (pending_[s].subs.empty()) return;
  ShardMessage message = std::move(pending_[s]);
  pending_[s] = fresh_data_message(s);
  pending_samples_[s] = 0;
  shards_[s]->ring.push_blocking(std::move(message), abort_);
  collect_.note_queue_depth(shards_[s]->ring.size() * batch_records_);
}

void ShardedCollector::broadcast(ShardMessage message) {
  // Order barrier: buffered data must reach every shard before (never
  // after) a control message — each shard then sees the identical
  // datagram/BGP/punctuation sequence the unbatched router produced,
  // which is what the bit-identical-output determinism argument needs.
  for (std::size_t s = 0; s < shards_.size(); ++s) flush_shard(s);
  for (auto& shard : shards_) {
    ShardMessage copy = message;
    shard->ring.push_blocking(std::move(copy), abort_);
  }
}

void ShardedCollector::route_sample(const net::SflowHeaderView& header,
                                    const net::SflowFlowSample& sample) {
  // Shard identity comes from the raw destination IP (pre-anonymization),
  // so a victim's flows always land in one shard.
  const std::size_t s = shard_of(sample.packet.dst_ip, shards_.size());
  ShardMessage& open = pending_[s];
  if (sub_mark_[s] != ingest_seq_) {
    // First sample of this source datagram routed to shard s: open a
    // fresh sub-datagram carrying the source header (uptime_ms is what
    // drives minute binning downstream).
    sub_mark_[s] = ingest_seq_;
    open.subs.push_back(ShardSubDatagram{
        header.agent, header.sub_agent_id, header.sequence, header.uptime_ms,
        static_cast<std::uint32_t>(open.samples.size()), 0});
  }
  open.samples.push_back(sample);
  ++open.subs.back().sample_count;
  ++pending_samples_[s];
}

void ShardedCollector::route_commit(std::uint32_t uptime_ms,
                                    std::size_t sample_total) {
  collect_.add_in(sample_total);
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (pending_samples_[s] >= batch_records_) flush_shard(s);
  }

  // Watermark punctuation: when stream time advances, tell every shard so
  // quiet shards close their minutes too (and ack to the merge barrier).
  // broadcast() flushes all pending batches first, so no shard sees the
  // punctuation before the data that precedes it in the stream.
  const auto minute = static_cast<std::uint32_t>(uptime_ms / 60'000);
  if (minute > watermark_min_) {
    watermark_min_ = minute;
    ShardMessage punct;
    punct.kind = ShardMessage::Kind::kAdvance;
    punct.minute = minute;
    broadcast(std::move(punct));
  }
}

void ShardedCollector::route_rollback() {
  // Unwind every sub-datagram the current (failed) datagram opened. Safe
  // because route_sample never flushes — a partially routed datagram sits
  // wholly at the tail of each touched shard's open batch.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (sub_mark_[s] != ingest_seq_) continue;
    const ShardSubDatagram& sub = pending_[s].subs.back();
    SCRUBBER_ASSERT(pending_samples_[s] >= sub.sample_count,
                    "route rollback would underflow a shard's sample count");
    pending_samples_[s] -= sub.sample_count;
    pending_[s].samples.resize(sub.first_sample);
    pending_[s].subs.pop_back();
    sub_mark_[s] = 0;  // ingest_seq_ is pre-incremented, so 0 never matches
  }
}

net::DecodeStatus ShardedCollector::ingest_wire(
    std::span<const std::uint8_t> wire) {
  ++ingest_seq_;  // fresh stamp: this datagram's samples open new subs
  net::SflowHeaderView header;
  std::size_t emitted = 0;
  // The walk parses every header field before it emits the first sample.
  const net::DecodeStatus status = net::SflowView::decode(
      wire, header, [&](const net::SflowFlowSample& sample) {
        route_sample(header, sample);
        ++emitted;
      });
  if (status != net::DecodeStatus::kOk) {
    // A malformed datagram is rejected wholesale: shard batches end up
    // exactly as if it never arrived.
    route_rollback();
    return status;
  }
  // Commit even with zero routed samples so the watermark still advances
  // to this datagram's export minute.
  route_commit(header.uptime_ms, emitted);
  return net::DecodeStatus::kOk;
}

void ShardedCollector::ingest_bgp(const bgp::UpdateMessage& update,
                                  std::uint64_t now_ms) {
  ShardMessage message;
  message.kind = ShardMessage::Kind::kBgp;
  message.update = update;
  message.now_ms = now_ms;
  broadcast(std::move(message));
}

void ShardedCollector::finish() {
  if (finished_) return;
  finished_ = true;
  ShardMessage fin;
  fin.kind = ShardMessage::Kind::kFinish;
  broadcast(std::move(fin));
  for (auto& shard : shards_) shard->thread.join();
  merge_thread_.join();  // exits once every shard's horizon hit max
  merge_queue_.close();
  // Counter coherence: after a clean finish every flow a shard handed to
  // the merge stage must have been emitted to the sink — the minute
  // barrier drains completely, nothing is stranded in `pending`.
  SCRUBBER_ASSERT(
      flows_emitted_.load(std::memory_order_relaxed) == collect_.items_out(),
      "merge emitted a different flow count than the shards produced "
      "(minute-barrier drain is incomplete or duplicated)");
}

std::uint64_t ShardedCollector::late_datagrams() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->late.load(std::memory_order_relaxed);
  }
  return total;
}

StageSnapshot ShardedCollector::merge_snapshot() const {
  StageSnapshot snap = merge_.snapshot("merge");
  snap.queue_highwater = std::max<std::uint64_t>(snap.queue_highwater,
                                                 merge_queue_.highwater());
  return snap;
}

void ShardedCollector::shard_worker(std::size_t index) {
  Shard& self = *shards_[index];
  core::Collector collector(
      config_.collector,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        // Runs inside the collector's drain; forwards downstream only
        // (the MinuteBatchSink contract forbids re-entering `collector`).
        MergeMessage batch;
        batch.kind = MergeMessage::Kind::kBatch;
        batch.shard = index;
        batch.minute = minute;
        batch.flows.assign(flows.begin(), flows.end());
        collect_.add_out(batch.flows.size());
        merge_queue_.push(std::move(batch));  // false only after abort
      });

#if defined(SCRUBBER_CHECKED)
  std::uint32_t last_published_horizon = 0;
#endif
  const auto publish_horizon = [&] {
    self.late.store(collector.late_datagrams(), std::memory_order_relaxed);
    MergeMessage horizon;
    horizon.kind = MergeMessage::Kind::kHorizon;
    horizon.shard = index;
    horizon.minute = collector.flush_horizon();
#if defined(SCRUBBER_CHECKED)
    // The merge barrier is min-over-shards of these values; a regressing
    // horizon would re-open an already-emitted minute.
    SCRUBBER_ASSERT(horizon.minute >= last_published_horizon,
                    "shard flush horizon regressed");
    last_published_horizon = horizon.minute;
#endif
    merge_queue_.push(std::move(horizon));
  };

  ShardMessage message;
  for (;;) {
    if (!self.ring.try_pop(message)) {
      if (abort_.load(std::memory_order_relaxed)) return;
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t begin = now_ns();
    switch (message.kind) {
      case ShardMessage::Kind::kData:
        for (const ShardSubDatagram& sub : message.subs) {
          collector.ingest_samples(
              sub.uptime_ms,
              std::span<const net::SflowFlowSample>(
                  message.samples.data() + sub.first_sample, sub.sample_count));
        }
        // Hand the drained batch back to the router: clear() keeps both
        // vectors' capacity (trivial payloads), so steady-state routing
        // allocates nothing. A full recycle ring just drops the batch.
        message.subs.clear();
        message.samples.clear();
        (void)self.recycle.try_push(std::move(message));
        break;
      case ShardMessage::Kind::kBgp:
        collector.ingest_bgp(message.update, message.now_ms);
        break;
      case ShardMessage::Kind::kAdvance:
        collector.advance(message.minute);
        publish_horizon();
        break;
      case ShardMessage::Kind::kFinish:
        collector.flush();  // horizon becomes UINT32_MAX
        publish_horizon();
        collect_.add_busy_ns(now_ns() - begin);
        return;
    }
    collect_.add_busy_ns(now_ns() - begin);
  }
}

void ShardedCollector::merge_worker() {
  // scrubber-deterministic-begin
  const std::size_t n = shards_.size();
  std::vector<std::uint32_t> horizon(n, 0);
  // Minute -> concatenated shard flows, kept sorted by minute. The live
  // set is tiny (a few minutes around the barrier), so a flat sorted
  // vector beats the node-based std::map it replaces: lower_bound insert,
  // front-range drain, and the per-minute flow vectors move — they are
  // never copied.
  std::vector<std::pair<std::uint32_t, std::vector<net::FlowRecord>>> pending;
  pending.reserve(16);
#if defined(SCRUBBER_CHECKED)
  bool emitted_any = false;
  std::uint32_t last_emitted = 0;   ///< highest minute handed to the sink
  std::uint32_t last_barrier = 0;   ///< min-over-shards horizon
#endif

  const auto emit_below = [&](std::uint32_t barrier) {
    auto it = pending.begin();
    for (; it != pending.end() && it->first < barrier; ++it) {
      std::vector<net::FlowRecord> flows = std::move(it->second);
#if defined(SCRUBBER_CHECKED)
      // Minute-barrier ordering: the sink sees minutes strictly
      // increasing, and never a minute the barrier has not yet passed.
      SCRUBBER_ASSERT(!emitted_any || it->first > last_emitted,
                      "merge emitted minutes out of order");
      SCRUBBER_ASSERT(it->first < barrier,
                      "merge emitted a minute at or beyond the barrier");
      emitted_any = true;
      last_emitted = it->first;
#endif
      // Canonical order erases shard interleaving: output is identical
      // for any shard count and any thread timing.
      std::sort(flows.begin(), flows.end(), canonical_flow_less);
      flows_emitted_.fetch_add(flows.size(), std::memory_order_relaxed);
      minutes_merged_.fetch_add(1, std::memory_order_relaxed);
      merge_.add_out(1);
      if (sink_) {
        sink_(it->first,
              std::span<const net::FlowRecord>(flows.data(), flows.size()));
      }
    }
    pending.erase(pending.begin(), it);
  };

  MergeMessage message;
  while (merge_queue_.pop(message)) {
    // NOLINTNEXTLINE(scrubber-deterministic): busy-time telemetry only — the clock value never reaches the merged output
    const std::uint64_t begin = now_ns();
    if (message.kind == MergeMessage::Kind::kBatch) {
      merge_.add_in(1);
      // A batch below the barrier would extend a minute that was already
      // emitted (closed forever) — exactly the corruption the barrier
      // exists to prevent.
#if defined(SCRUBBER_CHECKED)
      SCRUBBER_ASSERT(message.minute >= last_barrier,
                      "shard batch arrived for an already-emitted minute");
#endif
      auto slot = std::lower_bound(
          pending.begin(), pending.end(), message.minute,
          [](const auto& entry, std::uint32_t m) { return entry.first < m; });
      if (slot == pending.end() || slot->first != message.minute) {
        slot = pending.emplace(slot, message.minute,
                               std::vector<net::FlowRecord>{});
      }
      std::vector<net::FlowRecord>& bucket = slot->second;
      bucket.reserve(bucket.size() + message.flows.size());
      bucket.insert(bucket.end(), message.flows.begin(), message.flows.end());
    } else {
      // Per-shard horizons only advance: the MPSC queue preserves each
      // producer's FIFO order and the shard publishes monotonically.
      SCRUBBER_ASSERT(message.minute >= horizon[message.shard],
                      "shard horizon message arrived out of order");
      horizon[message.shard] =
          std::max(horizon[message.shard], message.minute);
      const std::uint32_t barrier =
          *std::min_element(horizon.begin(), horizon.end());
      emit_below(barrier);
#if defined(SCRUBBER_CHECKED)
      SCRUBBER_ASSERT(barrier >= last_barrier, "merge barrier regressed");
      last_barrier = barrier;
#endif
      if (barrier == kClosedForever) {
        // NOLINTNEXTLINE(scrubber-deterministic): busy-time telemetry only — the clock value never reaches the merged output
        merge_.add_busy_ns(now_ns() - begin);
        return;  // every shard flushed and finished
      }
    }
    // NOLINTNEXTLINE(scrubber-deterministic): busy-time telemetry only — the clock value never reaches the merged output
    merge_.add_busy_ns(now_ns() - begin);
  }
  // scrubber-deterministic-end
}

}  // namespace scrubber::runtime
