#pragma once
// The benchmark's own open-loop UDP sender. It lives with the benchmark,
// not in src/netio, so a change to the program cannot change the load the
// benchmark offers. The whole Poisson schedule is drawn up front from the
// seed; one thread sends every datagram over one connected socket when it
// falls due and never waits for the receiver, so a slow system sees a
// queue, not a slower sender. Each datagram gets a due stamp (from the
// schedule) and a send stamp (taken just before send()), and the gap
// between them is the sender's own lateness.

#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace bench_e2e {

/// Offsets (ns from the schedule start) of `n` sends with exponential
/// inter-arrival times at `rate` per second, drawn from `seed`. The first
/// send is due at offset 0.
[[nodiscard]] std::vector<std::uint64_t> poisson_offsets_ns(std::size_t n,
                                                            double rate,
                                                            std::uint64_t seed);

struct SendLog {
  std::vector<std::uint64_t> due_ns;   ///< absolute due time per datagram
  std::vector<std::uint64_t> send_ns;  ///< absolute send time per datagram
  std::uint64_t sent = 0;              ///< data datagrams (sentinels excluded)
};

/// Sends every datagram of `trace` to 127.0.0.1:`port` on the calling
/// thread, datagram i due at `start_ns + offsets_ns[i]`, then the FIN
/// sentinel carrying the total. Throws std::runtime_error on a socket
/// error.
[[nodiscard]] SendLog send_paced(const Trace& trace,
                                 const std::vector<std::uint64_t>& offsets_ns,
                                 std::uint64_t start_ns, std::uint16_t port);

/// 99th percentile of the sender's lateness (send stamp - due stamp), ms.
[[nodiscard]] double late_p99_ms(const SendLog& log);

}  // namespace bench_e2e
