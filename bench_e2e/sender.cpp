#include "sender.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "netio/udp.hpp"
#include "stats.hpp"

namespace bench_e2e {

std::vector<std::uint64_t> poisson_offsets_ns(std::size_t n, double rate,
                                              std::uint64_t seed) {
  // mt19937_64 and the inverse-CDF draw below are fully specified by the
  // standard, so the schedule is the same on every platform.
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> offsets(n, 0);
  double at_ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = static_cast<std::uint64_t>(at_ns);
    const double u =
        static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
    at_ns += -std::log1p(-u) / rate * 1e9;
  }
  return offsets;
}

namespace {

/// RAII connected UDP socket to 127.0.0.1:port.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      fail("connect");
    }
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void send(std::span<const std::uint8_t> bytes) const {
    if (::send(fd_, bytes.data(), bytes.size(), 0) !=
        static_cast<ssize_t>(bytes.size())) {
      fail("send");
    }
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::runtime_error(std::string("sender ") + what + ": " +
                             std::strerror(errno));
  }
  int fd_;
};

/// Spins until `due`. Sleeping any part of the wait made the sender miss
/// its schedule by 5-13 ms at p99 (wake-up latency next to the engine's
/// yielding stage threads); spinning keeps it within tens of microseconds
/// at the cost of one core.
void wait_until(std::uint64_t due) {
  while (now_ns() < due) {
  }
}

}  // namespace

SendLog send_paced(const Trace& trace,
                   const std::vector<std::uint64_t>& offsets_ns,
                   std::uint64_t start_ns, std::uint16_t port) {
  const Socket socket(port);
  SendLog log;
  log.due_ns.resize(trace.size());
  log.send_ns.resize(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t due = start_ns + offsets_ns[i];
    wait_until(due);
    log.due_ns[i] = due;
    log.send_ns[i] = now_ns();
    socket.send(trace.datagram(i));
    ++log.sent;
  }
  // UDP has no FIN: repeat the listener's end-of-stream sentinel a few
  // times so one lost copy cannot hang the run.
  const std::vector<std::uint8_t> fin = scrubber::netio::encode_fin_sentinel(log.sent);
  for (int k = 0; k < 3; ++k) {
    socket.send(fin);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return log;
}

double late_p99_ms(const SendLog& log) {
  std::vector<double> late_ms(log.sent);
  for (std::size_t i = 0; i < log.sent; ++i) {
    late_ms[i] = static_cast<double>(log.send_ns[i] - log.due_ns[i]) / 1e6;
  }
  return quantile(std::move(late_ms), 0.99);
}

}  // namespace bench_e2e
