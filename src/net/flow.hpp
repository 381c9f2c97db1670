#pragma once
// Sampled flow records as exported by IXP monitoring (sFlow-style).
//
// A FlowRecord summarizes the sampled packets of one flow (5-tuple plus
// the IXP member port's MAC) within one time bin. The paper's entire
// pipeline consumes only these L2-4 headers; no payload is ever stored,
// mirroring the privacy constraints described in §4.3.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/protocols.hpp"

namespace scrubber::net {

/// Identifier of the IXP member port (anonymized source MAC address).
using MemberId = std::uint32_t;

/// One sampled, aggregated flow within a single time bin.
struct FlowRecord {
  std::uint32_t minute = 0;     ///< time bin index (1-minute resolution)
  Ipv4Address src_ip{};         ///< sampled source IP (salted-hash anonymized upstream)
  Ipv4Address dst_ip{};         ///< destination (potential victim) IP
  std::uint16_t src_port = 0;   ///< transport source port (0 for fragments / no L4)
  std::uint16_t dst_port = 0;   ///< transport destination port
  std::uint8_t protocol = 0;    ///< IANA protocol number
  std::uint8_t tcp_flags = 0;   ///< OR of TCP flags over sampled packets
  MemberId src_member = 0;      ///< ingress IXP member port (source MAC)
  std::uint32_t packets = 0;    ///< sampled packet count (scaled by sampling rate)
  std::uint64_t bytes = 0;      ///< sampled byte count (scaled by sampling rate)
  bool blackholed = false;      ///< label: dst matched an active blackhole route

  /// Mean sampled packet size in bytes; 0 when no packets were sampled.
  [[nodiscard]] double mean_packet_size() const noexcept {
    return packets == 0 ? 0.0
                        : static_cast<double>(bytes) / static_cast<double>(packets);
  }

  /// Well-known DDoS vector classification of this flow's header, if any.
  [[nodiscard]] std::optional<DdosVector> vector() const noexcept {
    return classify_vector(protocol, src_port, dst_port);
  }

  /// Compact human-readable representation (for logs and examples).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

/// Serializes flow records in a compact binary format (little endian).
void write_flows(std::ostream& out, const std::vector<FlowRecord>& flows);

/// Reads flow records written by write_flows; throws std::runtime_error on
/// malformed input.
[[nodiscard]] std::vector<FlowRecord> read_flows(std::istream& in);

}  // namespace scrubber::net
