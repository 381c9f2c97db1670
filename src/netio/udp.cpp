#include "netio/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace scrubber::netio {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw NetioError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw NetioError("invalid IPv4 address: " + address);
  }
  return addr;
}

}  // namespace

UdpSocket::UdpSocket() : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
  if (fd_ < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void UdpSocket::bind(const std::string& address, std::uint16_t port,
                     int rcvbuf_bytes) {
  if (rcvbuf_bytes > 0 &&
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes)) != 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
  // Kernel-side socket-buffer drops become an ancillary counter on every
  // received datagram instead of silent loss.
  const int one = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(SO_RXQ_OVFL)");
  }
  const sockaddr_in addr = make_addr(address, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind");
  }
}

void UdpSocket::connect(const std::string& address, std::uint16_t port) {
  const sockaddr_in addr = make_addr(address, port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("connect");
  }
}

void UdpSocket::send(std::span<const std::uint8_t> bytes) {
  for (;;) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), 0);
    if (sent >= 0) return;
    if (errno == EINTR) continue;
    if (errno == ENOBUFS || errno == EAGAIN) {
      // Loopback send-side pressure: retry rather than silently lose a
      // datagram the open-loop schedule already charged us for.
      continue;
    }
    throw_errno("send");
  }
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

std::vector<std::uint8_t> encode_fin_sentinel(std::uint64_t total_datagrams) {
  std::vector<std::uint8_t> out(kFinSentinelBytes);
  std::memcpy(out.data(), kFinMagic.data(), kFinMagic.size());
  for (std::size_t i = 0; i < 8; ++i) {
    out[kFinMagic.size() + i] =
        static_cast<std::uint8_t>(total_datagrams >> (56 - 8 * i));
  }
  return out;
}

MmsgReceiver::MmsgReceiver(UdpSocket& socket, std::size_t batch_msgs,
                           runtime::WireBufferPool* pool)
    : socket_(socket),
      batch_(batch_msgs == 0 ? 1 : batch_msgs),
      slot_bytes_(pool->slot_bytes()),
      pool_(pool),
      storage_(batch_ * slot_bytes_),
      controls_(batch_ * kControlBytes),
      iovecs_(batch_),
      headers_(batch_),
      armed_(batch_) {
  for (std::size_t i = 0; i < batch_; ++i) {
    iovecs_[i].iov_base = storage_.data() + i * slot_bytes_;
    iovecs_[i].iov_len = slot_bytes_;
    headers_[i].msg_hdr.msg_iov = &iovecs_[i];
    headers_[i].msg_hdr.msg_iovlen = 1;
    headers_[i].msg_hdr.msg_control = controls_.data() + i * kControlBytes;
    headers_[i].msg_hdr.msg_controllen = kControlBytes;
  }
}

std::size_t MmsgReceiver::recv_batch(std::span<RecvFrame> frames,
                                     int timeout_ms) {
  pollfd pfd{};
  pfd.fd = socket_.fd();
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) {
    if (ready < 0 && errno != EINTR) throw_errno("poll");
    return 0;
  }
  const auto want = static_cast<unsigned>(std::min(frames.size(), batch_));
  // Reset control lengths (recvmmsg shrinks them per message) and point
  // each message at a pooled slot when one is available — the kernel
  // then scatters the datagram straight into the buffer that will ride
  // the input ring, copy-free. A dry pool falls back to scratch storage
  // for that message (the caller copies, counted as a pool fallback).
  for (std::size_t i = 0; i < want; ++i) {
    if (!armed_[i]) armed_[i] = pool_->try_acquire();
    if (armed_[i]) {
      iovecs_[i].iov_base = armed_[i].data();
      iovecs_[i].iov_len = armed_[i].capacity();
    } else {
      iovecs_[i].iov_base = storage_.data() + i * slot_bytes_;
      iovecs_[i].iov_len = slot_bytes_;
    }
    headers_[i].msg_hdr.msg_controllen = kControlBytes;
    headers_[i].msg_hdr.msg_iov = &iovecs_[i];
    headers_[i].msg_hdr.msg_iovlen = 1;
  }
  // MSG_TRUNC: msg_len reports each datagram's real length, so one
  // longer than its buffer shows up instead of being silently cut.
  const int got = ::recvmmsg(socket_.fd(), headers_.data(), want,
                             MSG_DONTWAIT | MSG_TRUNC, nullptr);
  if (got < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    throw_errno("recvmmsg");
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
    RecvFrame& frame = frames[i];
    note_drop_counter(headers_[i].msg_hdr);
    frame.truncated = headers_[i].msg_len > slot_bytes_;
    if (frame.truncated) {
      // The armed slot stays staged for the next call.
      frame.data = nullptr;
      frame.size = 0;
      frame.slot.release();
    } else if (armed_[i]) {
      armed_[i].set_size(headers_[i].msg_len);
      frame.data = armed_[i].data();
      frame.size = headers_[i].msg_len;
      frame.slot = std::move(armed_[i]);  // next call re-acquires
    } else {
      frame.data = storage_.data() + i * slot_bytes_;
      frame.size = headers_[i].msg_len;
      frame.slot.release();
    }
  }
  return static_cast<std::size_t>(got);
}

void MmsgReceiver::note_drop_counter(msghdr& hdr) noexcept {
  // SO_RXQ_OVFL delivers the cumulative drop count as ancillary data.
  for (cmsghdr* cmsg = CMSG_FIRSTHDR(&hdr); cmsg != nullptr;
       cmsg = CMSG_NXTHDR(&hdr, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
      std::uint32_t dropped = 0;
      std::memcpy(&dropped, CMSG_DATA(cmsg), sizeof(dropped));
      kernel_drops_ = dropped;
    }
  }
}

}  // namespace scrubber::netio
