#include "netio/listener.hpp"

#include <chrono>
#include <cstdio>
#include <vector>

namespace scrubber::netio {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string ListenerSnapshot::summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "listener: datagrams=%llu bytes=%llu batches=%llu "
                "drops=%llu kernel_drops=%llu pool_fallbacks=%llu "
                "fin=%d expected=%llu",
                static_cast<unsigned long long>(stage.items_in),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(recv_batches),
                static_cast<unsigned long long>(stage.drops),
                static_cast<unsigned long long>(kernel_drops),
                static_cast<unsigned long long>(pool_fallbacks), fin_seen,
                static_cast<unsigned long long>(expected_datagrams));
  return line;
}

UdpListener::UdpListener(ListenerConfig config, runtime::Engine& engine,
                         MinuteFeed minute_feed)
    : config_(std::move(config)),
      engine_(engine),
      minute_feed_(std::move(minute_feed)),
      receiver_(socket_, config_.batch_msgs, engine_.wire_pool()) {
  // The receiver keeps up to batch_msgs slots armed; a dry-pool fallback
  // waits for a slot only the engine can return, so it must hold more.
  if (engine_.wire_pool()->slots() <= config_.batch_msgs) {
    throw NetioError("engine wire pool needs more slots than batch_msgs");
  }
  socket_.bind(config_.bind_address, config_.port, config_.rcvbuf_bytes);
}

UdpListener::~UdpListener() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void UdpListener::run() {
  std::vector<RecvFrame> frames(std::max<std::size_t>(1, config_.batch_msgs));
  std::uint32_t last_fed_minute = 0;
  bool fed_any = false;
  int idle_ms = 0;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::size_t got = receiver_.recv_batch(
        std::span<RecvFrame>(frames.data(), frames.size()),
        config_.poll_interval_ms);
    if (got == 0) {
      if (config_.idle_stop_ms > 0) {
        idle_ms += config_.poll_interval_ms;
        if (idle_ms >= config_.idle_stop_ms) return;
      }
      continue;
    }
    idle_ms = 0;
    recv_batches_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t begin = now_ns();
    for (std::size_t i = 0; i < got; ++i) {
      const auto wire = frames[i].bytes();
      if (is_fin_sentinel(wire)) {
        expected_datagrams_.store(fin_sentinel_total(wire),
                                  std::memory_order_relaxed);
        fin_seen_.store(true, std::memory_order_relaxed);
        listen_.add_busy_ns(now_ns() - begin);
        // This thread is the engine's producer; finishing here keeps
        // the single-producer contract (and drains every stage).
        engine_.finish();
        return;
      }
      listen_.add_in();
      if (frames[i].truncated) {
        listen_.add_drop();  // longer than a wire slot: counted, never cut
        continue;
      }
      bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
      // Control interleave: BGP updates effective at or before this
      // datagram's export minute must enter the engine first (the same
      // order the in-process feed produces).
      if (minute_feed_) {
        const auto minute = peek_sflow_minute(wire);
        if (minute && (!fed_any || *minute > last_fed_minute)) {
          fed_any = true;
          last_fed_minute = *minute;
          minute_feed_(*minute);
        }
      }
      bool pushed;
      if (frames[i].slot) {
        // Zero-copy: the datagram already sits in a pooled buffer; move
        // the slot into the engine (it recycles after the in-place walk,
        // or at once when the push is rejected).
        pushed = engine_.push_wire(std::move(frames[i].slot));
      } else {
        // Pool ran dry at arm time: the engine copies this datagram out of
        // the receiver's scratch storage into a slot of its own.
        pool_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        pushed = engine_.push_wire(wire);
      }
      if (pushed) {
        listen_.add_out();
      } else {
        listen_.add_drop();  // ring full under kDrop: wire loss, counted
      }
    }
    listen_.add_busy_ns(now_ns() - begin);
  }
}

void UdpListener::start() {
  thread_ = std::thread([this] { run(); });
}

void UdpListener::join() {
  if (thread_.joinable()) thread_.join();
}

ListenerSnapshot UdpListener::stats() const {
  ListenerSnapshot snap;
  snap.stage = listen_.snapshot("listen");
  snap.bytes = bytes_.load(std::memory_order_relaxed);
  snap.recv_batches = recv_batches_.load(std::memory_order_relaxed);
  snap.kernel_drops = receiver_.kernel_drops();
  snap.pool_fallbacks = pool_fallbacks_.load(std::memory_order_relaxed);
  snap.fin_seen = fin_seen_.load(std::memory_order_relaxed);
  snap.expected_datagrams =
      expected_datagrams_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace scrubber::netio
