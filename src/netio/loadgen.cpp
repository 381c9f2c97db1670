#include "netio/loadgen.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace scrubber::netio {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

LoadGenerator::LoadGenerator(LoadGenConfig config,
                             std::vector<std::vector<std::uint8_t>> wire)
    : config_(std::move(config)), wire_(std::move(wire)) {}

LoadGenSummary LoadGenerator::run() {
  UdpSocket socket;
  socket.connect(config_.host, config_.port);

  // The whole inter-arrival schedule is drawn up front so the send loop is
  // pure pacing: deadline[i] = start + sum of the first i exponential gaps.
  // Drawing during the loop would let RNG cost perturb the schedule.
  std::vector<std::chrono::nanoseconds> offsets;
  if (config_.rate > 0.0) {
    util::Rng rng(config_.seed);
    offsets.resize(wire_.size());
    double cumulative_s = 0.0;
    for (auto& offset : offsets) {
      cumulative_s += rng.exponential(config_.rate);
      offset = std::chrono::nanoseconds(
          static_cast<std::int64_t>(cumulative_s * 1e9));
    }
  }

  LoadGenSummary summary;
  summary.target_rate = config_.rate;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    if (!offsets.empty()) {
      const Clock::time_point deadline = start + offsets[i];
      if (Clock::now() < deadline) {
        std::this_thread::sleep_until(deadline);
      } else {
        // Open loop: a missed deadline is recorded, never rescheduled —
        // the offered load must not adapt to a slow receiver.
        ++summary.behind;
      }
    }
    socket.send(wire_[i]);
    ++summary.sent;
    summary.bytes += wire_[i].size();
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  summary.wall_seconds = wall_s;
  summary.achieved_rate =
      wall_s > 0.0 ? static_cast<double>(summary.sent) / wall_s : 0.0;

  const auto sentinel = encode_fin_sentinel(summary.sent);
  for (unsigned r = 0; r < config_.fin_repeats; ++r) {
    if (r > 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    try {
      socket.send(sentinel);
    } catch (const NetioError&) {
      // A receiver that saw an earlier repeat may already be gone; the
      // connected socket then reports the ICMP port-unreachable as an
      // error. The sentinel did its job — not a failure.
      break;
    }
  }
  return summary;
}

}  // namespace scrubber::netio
