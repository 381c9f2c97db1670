#pragma once
// UDP sFlow listener: the wire front-end of the streaming engine
// (DESIGN.md §11).
//
//   NIC/loopback ─► UdpSocket ─► MmsgReceiver (poll + recvmmsg)
//                      │ batch of wire datagrams
//                      ▼
//             UdpListener::run()  ──►  Engine::push_wire  ─► decode → …
//
// The listener thread is the engine's single producer: every push_wire,
// push_bgp (via the minute feed, below) and the final finish() happen on
// the thread that calls run(), so the SPSC producer contract holds
// without locks. Malformed wire bytes are pushed through anyway — the
// engine's fuzz-hardened decode stage counts them as decode_errors and
// drops them; the listener never parses untrusted bytes beyond a
// length-checked 4-byte peek. Wire loss is never silent: kernel
// socket-buffer drops surface via SO_RXQ_OVFL, ring-full rejections under
// the kDrop policy and datagrams longer than a wire slot are counted as
// drops on the listener's stage counters, and the
// FIN sentinel carries the sender's total so the end-of-run summary can
// say exactly how many datagrams the wire ate.
//
// The minute feed keeps the BGP control plane deterministic: before a
// datagram of export-minute M enters the engine, the feed callback runs
// with M so the caller can push every BGP update effective at or before M
// — the same interleaving the in-process flowgen feed produces, which is
// what makes wire-path verdicts bit-identical to in-process verdicts for
// the same trace (tests/netio/loopback_equivalence_test.cpp).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "netio/udp.hpp"
#include "runtime/counters.hpp"
#include "runtime/engine.hpp"

namespace scrubber::netio {

/// The receive path is recvmmsg only. RecvBackend and
/// ListenerConfig::backend select nothing; they remain because the
/// end-to-end benchmark (bench_e2e/main.cpp) still assigns them.
enum class RecvBackend { kRecvmmsg };

struct ListenerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;            ///< 0 = kernel-assigned (see port())
  std::size_t batch_msgs = 32;       ///< datagrams per receive batch
  int rcvbuf_bytes = 1 << 22;        ///< socket buffer (absorbs bursts)
  int poll_interval_ms = 50;         ///< stop-flag check cadence when idle
  /// Give up after this long without a single datagram (0 = wait forever).
  /// A lost FIN sentinel then ends the run instead of hanging it.
  int idle_stop_ms = 0;
  RecvBackend backend = RecvBackend::kRecvmmsg;
};

/// Point-in-time listener statistics.
struct ListenerSnapshot {
  runtime::StageSnapshot stage;     ///< "listen": in=received, out=pushed,
                                    ///< drops=ring-full rejections and
                                    ///< datagrams longer than a wire slot
  std::uint64_t bytes = 0;          ///< wire bytes received
  std::uint64_t recv_batches = 0;   ///< non-empty receive batches
  std::uint64_t kernel_drops = 0;   ///< socket-buffer drops (SO_RXQ_OVFL)
  /// Datagrams received into scratch storage because the wire pool was
  /// dry at arm time; Engine::push_wire copied each into a slot.
  std::uint64_t pool_fallbacks = 0;
  bool fin_seen = false;
  std::uint64_t expected_datagrams = 0;  ///< sender total from the sentinel

  /// One-line summary for the ixpd end-of-run report.
  [[nodiscard]] std::string summary() const;
};

class UdpListener {
 public:
  /// Called with a datagram's export minute before that datagram enters
  /// the engine; runs on the listener thread (= the producer thread), so
  /// it may call engine.push_bgp. Invoked only when the minute advances.
  using MinuteFeed = std::function<void(std::uint32_t minute)>;

  /// Binds immediately (throws NetioError on failure); receive starts
  /// with run() or start().
  UdpListener(ListenerConfig config, runtime::Engine& engine,
              MinuteFeed minute_feed = nullptr);
  ~UdpListener();

  UdpListener(const UdpListener&) = delete;
  UdpListener& operator=(const UdpListener&) = delete;

  /// The bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return socket_.local_port(); }

  /// Receive loop on the calling thread; returns after the FIN sentinel
  /// (having drained and finished the engine on this, the producer,
  /// thread), stop(), or the idle timeout.
  void run();

  /// run() on a dedicated thread; pair with join().
  void start();
  void join();

  /// Asks the receive loop to exit at the next poll tick.
  void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] ListenerSnapshot stats() const;

 private:
  ListenerConfig config_;
  runtime::Engine& engine_;
  MinuteFeed minute_feed_;
  UdpSocket socket_;
  MmsgReceiver receiver_;
  std::thread thread_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> fin_seen_{false};
  std::atomic<std::uint64_t> expected_datagrams_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> recv_batches_{0};
  std::atomic<std::uint64_t> pool_fallbacks_{0};
  runtime::StageCounters listen_;
};

}  // namespace scrubber::netio
