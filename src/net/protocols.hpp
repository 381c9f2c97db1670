#pragma once
// Transport protocol numbers and the catalog of well-known DDoS
// (reflection/amplification) service ports used throughout the paper's
// dataset validation (Figure 4) and attack-vector evaluation (Table 3).

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace scrubber::net {

/// IANA protocol numbers relevant to IXP DDoS traffic.
enum class Protocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kGre = 47,
};

/// Returns a short protocol name ("TCP", "UDP", ...) or "P<n>".
[[nodiscard]] std::string_view protocol_name(std::uint8_t protocol) noexcept;

/// DDoS reflection/amplification vectors distinguished by the paper.
/// The first seven are the "top 7 attack vectors" of Table 3; the rest
/// appear in Figure 4a's "other DDoS" group.
enum class DdosVector : std::uint8_t {
  kUdpFragment,  // non-initial fragments of amplified responses
  kDns,          // UDP/53
  kNtp,          // UDP/123 (monlist)
  kSnmp,         // UDP/161
  kLdap,         // CLDAP, UDP/389
  kSsdp,         // UDP/1900
  kAppleRd,      // Apple Remote Desktop ARMS, UDP/3283
  kMemcached,    // UDP/11211
  kChargen,      // UDP/19
  kWsDiscovery,  // UDP/3702
  kRpcbind,      // UDP+TCP/111
  kMssql,        // UDP/1434
  kDnsTcp,       // TCP/53
  kUbiquiti,     // UDP/10001
  kDhcpDiscover, // UDP/67
  kGre,          // protocol 47
  kWccp,         // UDP/2048
  kNetbios,      // UDP/137
  kRip,          // UDP/520
  kOpenVpn,      // UDP/1194
  kTftp,         // UDP/69
  kMsTerminal,   // UDP/3389 (RDP UDP amplification)
};

inline constexpr std::size_t kDdosVectorCount = 22;

/// Human-readable vector name matching the paper's figure labels.
[[nodiscard]] std::string_view vector_name(DdosVector v) noexcept;

/// Source (reflector) port and protocol signature of a vector.
struct VectorSignature {
  DdosVector vector;
  std::uint8_t protocol;   // IANA protocol number
  std::uint16_t src_port;  // reflector-side port; 0 when not port-based
};

/// All vector signatures, in DdosVector order.
[[nodiscard]] std::span<const VectorSignature> vector_signatures() noexcept;

/// Classifies a flow header as a well-known DDoS vector, if any.
/// A UDP flow with src and dst port 0 is treated as a UDP fragment
/// (sampled non-initial fragments carry no L4 header).
[[nodiscard]] std::optional<DdosVector> classify_vector(
    std::uint8_t protocol, std::uint16_t src_port, std::uint16_t dst_port) noexcept;

/// The "top 7" vectors reported per-vector in Table 3.
[[nodiscard]] std::span<const DdosVector> top7_vectors() noexcept;

}  // namespace scrubber::net
