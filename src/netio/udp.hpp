#pragma once
// Wire I/O primitives for the sFlow front-end (DESIGN.md §11).
//
// UdpSocket is a thin RAII wrapper over an IPv4/UDP socket: bind with a
// sized receive buffer (plus SO_RXQ_OVFL so kernel-side drops become a
// counter instead of silence), connect+send for the load-generator side.
// MmsgReceiver is the receive path: one poll() for readiness, then one
// recvmmsg() drains a whole batch, amortizing syscall cost over datagrams
// the same way runtime/batch.hpp amortizes ring cost over record batches.
//
// Also here: the framing helpers shared by listener and load generator —
// the end-of-stream FIN sentinel (UDP has no FIN of its own; the load
// generator repeats a magic trailer datagram carrying the total count so
// the listener knows both *that* and *how much* it should have seen) and
// the sFlow header peek that reads the export-uptime minute straight off
// the wire bytes without a full decode (the BGP/control interleave hook
// needs the minute before the datagram enters the engine).

#include <sys/socket.h>

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/wire_pool.hpp"

namespace scrubber::netio {

/// Error thrown on socket/syscall failures (message carries errno text).
class NetioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII IPv4/UDP socket.
class UdpSocket {
 public:
  UdpSocket();
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Binds to `address:port` (port 0 = kernel-assigned, see local_port()),
  /// sizes the receive buffer, and enables the SO_RXQ_OVFL drop counter.
  void bind(const std::string& address, std::uint16_t port, int rcvbuf_bytes);

  /// Connects the socket to a remote `address:port` so send() needs no
  /// per-datagram address resolution (the load-generator hot path).
  void connect(const std::string& address, std::uint16_t port);

  /// Sends one datagram on a connected socket.
  void send(std::span<const std::uint8_t> bytes);

  /// The locally bound port (resolves kernel-assigned port 0 binds).
  [[nodiscard]] std::uint16_t local_port() const;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// One received datagram. `slot` owns the pooled buffer `data` points
/// into — move the slot onward (Engine::push_wire) for the zero-copy path,
/// or let it drop to recycle. When the pool was dry at arm time, `slot` is
/// empty and `data` views scratch storage owned by the MmsgReceiver,
/// valid only until its next recv_batch() call. Move-only once filled.
/// A datagram longer than a wire slot arrives as `truncated` with no bytes
/// and no slot: the caller counts it as a drop and never decodes it.
struct RecvFrame {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  runtime::WireSlot slot;
  bool truncated = false;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data, size};
  }
};

/// recvmmsg()-based batch receiver: poll() for readiness, then drain up to
/// `batch_msgs` datagrams in a single syscall, harvesting the SO_RXQ_OVFL
/// control messages for the kernel-drop counter. The kernel scatters each
/// datagram straight into a slot of `pool` (handed out via
/// RecvFrame::slot); when the pool runs dry the receiver falls back to its
/// scratch storage, one slot's size per message. It asks the kernel for
/// each datagram's real length (MSG_TRUNC), so one longer than a slot is
/// reported as RecvFrame::truncated instead of cut short.
class MmsgReceiver {
 public:
  MmsgReceiver(UdpSocket& socket, std::size_t batch_msgs,
               runtime::WireBufferPool* pool);
  // The message headers point into this object's own buffers.
  MmsgReceiver(const MmsgReceiver&) = delete;
  MmsgReceiver& operator=(const MmsgReceiver&) = delete;

  /// Waits up to `timeout_ms` for traffic, then harvests up to
  /// `frames.size()` datagrams in one batch. Returns the number received
  /// (0 on timeout). Frames stay valid until the next call.
  std::size_t recv_batch(std::span<RecvFrame> frames, int timeout_ms);

  /// Datagrams the kernel dropped on the socket buffer (SO_RXQ_OVFL),
  /// cumulative — the wire loss that would otherwise be silent.
  [[nodiscard]] std::uint64_t kernel_drops() const noexcept {
    return kernel_drops_;
  }

 private:
  static constexpr std::size_t kControlBytes = 64;

  void note_drop_counter(msghdr& hdr) noexcept;

  UdpSocket& socket_;
  std::size_t batch_;
  std::size_t slot_bytes_;
  runtime::WireBufferPool* pool_;
  std::vector<std::uint8_t> storage_;
  std::vector<std::uint8_t> controls_;
  std::vector<iovec> iovecs_;
  std::vector<mmsghdr> headers_;
  std::vector<runtime::WireSlot> armed_;  ///< slot staged per message index
  std::uint64_t kernel_drops_ = 0;
};

// --- wire framing helpers -------------------------------------------------

/// Magic prefix of the end-of-stream sentinel datagram. Never collides
/// with sFlow: a v5 datagram starts with the big-endian word 5.
inline constexpr std::array<std::uint8_t, 8> kFinMagic = {
    'S', 'C', 'R', 'U', 'B', 'F', 'I', 'N'};

/// Sentinel payload size: magic + big-endian u64 total datagram count.
inline constexpr std::size_t kFinSentinelBytes = kFinMagic.size() + 8;

/// Encodes the FIN sentinel carrying the total number of data datagrams
/// the sender put on the wire before it.
[[nodiscard]] std::vector<std::uint8_t> encode_fin_sentinel(
    std::uint64_t total_datagrams);

// scrubber-hot-begin
/// True iff `bytes` is a FIN sentinel (checked per received datagram).
[[nodiscard]] inline bool is_fin_sentinel(
    std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.size() != kFinSentinelBytes) return false;
  for (std::size_t i = 0; i < kFinMagic.size(); ++i) {
    if (bytes[i] != kFinMagic[i]) return false;
  }
  return true;
}

/// Total-datagram count carried by a FIN sentinel (is_fin_sentinel first).
[[nodiscard]] inline std::uint64_t fin_sentinel_total(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = kFinMagic.size(); i < kFinSentinelBytes; ++i) {
    total = (total << 8) | bytes[i];
  }
  return total;
}

/// Reads the export-uptime minute from raw sFlow v5 wire bytes without
/// decoding: header layout is version, address family, agent, sub-agent,
/// sequence, uptime_ms — six big-endian words, uptime at bytes [20, 24).
/// Returns nullopt when the buffer is too short to carry the header.
[[nodiscard]] inline std::optional<std::uint32_t> peek_sflow_minute(
    std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::size_t kUptimeOffset = 20;
  if (bytes.size() < kUptimeOffset + 4) return std::nullopt;
  const std::uint32_t uptime_ms = (std::uint32_t{bytes[kUptimeOffset]} << 24) |
                                  (std::uint32_t{bytes[kUptimeOffset + 1]} << 16) |
                                  (std::uint32_t{bytes[kUptimeOffset + 2]} << 8) |
                                  std::uint32_t{bytes[kUptimeOffset + 3]};
  return uptime_ms / 60'000;
}
// scrubber-hot-end

}  // namespace scrubber::netio
