#pragma once
// Open-loop sFlow load generator (DESIGN.md §11).
//
// Replays pre-encoded sFlow wire datagrams against a UDP listener at a
// configurable target rate with exponential inter-arrival times — the
// open-loop design of the mutated load generator: the send schedule is
// drawn up front from a seeded RNG and never reacts to the receiver, so
// a slow scrubber sees queueing (and its latency distribution degrades
// honestly) instead of silently throttling the offered load, which is
// the classic closed-loop measurement error.
//
// After the data, the FIN sentinel (netio/udp.hpp) is repeated a few
// times carrying the total datagram count, letting the listener detect
// tail loss instead of hanging.

#include <cstdint>
#include <string>
#include <vector>

#include "netio/udp.hpp"

namespace scrubber::netio {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Target datagrams/sec; 0 sends as fast as the socket accepts.
  double rate = 0.0;
  /// Seed for the exponential inter-arrival schedule (deterministic).
  std::uint64_t seed = 1;
  /// FIN sentinel repeats (loss insurance; receiver stops at the first).
  unsigned fin_repeats = 3;
};

struct LoadGenSummary {
  std::uint64_t sent = 0;          ///< data datagrams (sentinels excluded)
  std::uint64_t bytes = 0;
  std::uint64_t behind = 0;        ///< sends that missed their deadline
  double wall_seconds = 0.0;
  double target_rate = 0.0;        ///< 0 = unpaced
  double achieved_rate = 0.0;      ///< sent / wall
};

class LoadGenerator {
 public:
  /// Takes the pre-encoded wire datagrams (encode cost stays out of the
  /// send loop).
  LoadGenerator(LoadGenConfig config,
                std::vector<std::vector<std::uint8_t>> wire);

  /// Sends everything on the calling thread; returns the summary.
  LoadGenSummary run();

 private:
  LoadGenConfig config_;
  std::vector<std::vector<std::uint8_t>> wire_;
};

}  // namespace scrubber::netio
