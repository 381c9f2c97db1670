#pragma once
// Packet-level capture substrate: sampled packet headers and the
// collector-side flow cache that aggregates them into FlowRecords.
//
// At a real IXP the monitoring fabric samples 1-in-N packets (sFlow) and
// a collector aggregates the sampled headers into per-minute flow records
// — the exact input format of the scrubber pipeline. This module models
// that path: PacketHeader (the L2-4 header subset sFlow exports) and
// FlowCache (keyed aggregation with minute binning, scaled by the
// sampling rate).

#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow.hpp"
#include "util/flat_hash.hpp"

namespace scrubber::net {

/// The L2-4 header subset carried in a sampled-packet record.
struct PacketHeader {
  std::uint64_t timestamp_ms = 0;  ///< capture timestamp (milliseconds)
  Ipv4Address src_ip{};
  Ipv4Address dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  std::uint8_t tcp_flags = 0;
  std::uint16_t length = 0;        ///< IP length in bytes
  MemberId ingress_member = 0;     ///< IXP member port of arrival

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

/// Key identifying one flow within a minute bin.
struct FlowKey {
  std::uint32_t minute = 0;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;
  MemberId member = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    std::uint64_t h = k.minute;
    h = h * 0x9E3779B97F4A7C15ULL + k.src_ip;
    h = h * 0x9E3779B97F4A7C15ULL + k.dst_ip;
    h = h * 0x9E3779B97F4A7C15ULL +
        ((std::uint64_t{k.src_port} << 24) | (std::uint64_t{k.dst_port} << 8) |
         k.protocol);
    h = h * 0x9E3779B97F4A7C15ULL + k.member;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Collector-side aggregation of sampled packet headers into per-minute
/// FlowRecords. Counters are scaled by the sampling rate (standard sFlow
/// estimation: each sampled packet represents `rate` packets).
///
/// Storage is a util::FlatHash keyed by FlowKey: one probe + contiguous
/// slot per sampled packet, no node allocation, and insertion-ordered
/// dense entries — which is exactly the deterministic drain order the
/// pre-flat implementation produced by sorting on a per-entry insertion
/// counter.
class FlowCache {
 public:
  /// `sampling_rate` is the 1-in-N rate used for scaling estimates.
  explicit FlowCache(std::uint32_t sampling_rate = 1)
      : sampling_rate_(sampling_rate) {}

  /// Adds one sampled packet header.
  void add(const PacketHeader& packet);

  /// Flows of all minute bins strictly older than `minute`, removed from
  /// the cache (call as time advances; sorted by minute then key order
  /// is unspecified but deterministic for a given insertion order).
  [[nodiscard]] std::vector<FlowRecord> drain_before(std::uint32_t minute);

 private:
  struct Counters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint8_t tcp_flags = 0;
  };

  [[nodiscard]] FlowRecord to_record(const FlowKey& key,
                                     const Counters& counters) const;

  std::uint32_t sampling_rate_;
  util::FlatHash<FlowKey, Counters, FlowKeyHash> cache_;
};

}  // namespace scrubber::net
