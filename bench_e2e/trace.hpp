#pragma once
// Pre-generated, pre-encoded input of one bench_e2e run: every sFlow
// datagram of a flowgen trace as wire bytes, its export minute, and the
// BGP control plane. Built once per process before any timer starts, so
// neither generation nor encoding is part of what the benchmark times.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bgp/message.hpp"
#include "flowgen/generator.hpp"
#include "flowgen/profile.hpp"

namespace bench_e2e {

struct Trace {
  std::vector<std::uint8_t> bytes;     ///< every datagram, back to back
  std::vector<std::size_t> offsets;    ///< datagram i = [offsets[i], offsets[i+1])
  std::vector<std::uint32_t> minutes;  ///< export minute of datagram i
  std::vector<std::pair<std::uint32_t, scrubber::bgp::UpdateMessage>> updates;
  std::vector<scrubber::flowgen::AttackEvent> attacks;
  std::uint32_t trace_minutes = 0;
  std::uint64_t flows = 0;    ///< generated flow records
  std::uint64_t samples = 0;  ///< encoded flow samples
  std::size_t max_datagram_bytes = 0;

  [[nodiscard]] std::size_t size() const noexcept { return minutes.size(); }
  [[nodiscard]] std::span<const std::uint8_t> datagram(std::size_t i) const {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Generates `minutes` minutes of `profile` traffic from `seed` on
/// `threads` generator threads (joined before returning) and encodes it
/// with 1-in-`sampling` packet sampling, one flows_to_datagrams call per
/// minute — the same shape ixpd feeds.
[[nodiscard]] Trace build_trace(const scrubber::flowgen::IxpProfile& profile,
                                std::uint32_t minutes, std::uint32_t sampling,
                                std::uint64_t seed, unsigned threads);

}  // namespace bench_e2e
