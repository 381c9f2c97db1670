#include "net/protocols.hpp"

#include <array>

namespace scrubber::net {
namespace {

constexpr std::array<VectorSignature, kDdosVectorCount> kSignatures{{
    {DdosVector::kUdpFragment, 17, 0},
    {DdosVector::kDns, 17, 53},
    {DdosVector::kNtp, 17, 123},
    {DdosVector::kSnmp, 17, 161},
    {DdosVector::kLdap, 17, 389},
    {DdosVector::kSsdp, 17, 1900},
    {DdosVector::kAppleRd, 17, 3283},
    {DdosVector::kMemcached, 17, 11211},
    {DdosVector::kChargen, 17, 19},
    {DdosVector::kWsDiscovery, 17, 3702},
    {DdosVector::kRpcbind, 17, 111},
    {DdosVector::kMssql, 17, 1434},
    {DdosVector::kDnsTcp, 6, 53},
    {DdosVector::kUbiquiti, 17, 10001},
    {DdosVector::kDhcpDiscover, 17, 67},
    {DdosVector::kGre, 47, 0},
    {DdosVector::kWccp, 17, 2048},
    {DdosVector::kNetbios, 17, 137},
    {DdosVector::kRip, 17, 520},
    {DdosVector::kOpenVpn, 17, 1194},
    {DdosVector::kTftp, 17, 69},
    {DdosVector::kMsTerminal, 17, 3389},
}};

constexpr std::array<DdosVector, 7> kTop7{
    DdosVector::kUdpFragment, DdosVector::kDns,  DdosVector::kNtp,
    DdosVector::kSnmp,        DdosVector::kLdap, DdosVector::kSsdp,
    DdosVector::kAppleRd,
};

// Reflection signatures keyed by source port, one direct-indexed table
// per protocol that carries any (0 = no signature, else vector + 1). The
// linear kSignatures scan this replaces sat on the per-flow aggregation
// path; the table lookup is exact for it because every signature port is
// unique within its protocol.
template <std::uint8_t Protocol>
consteval std::array<std::uint8_t, 65536> make_port_table() {
  std::array<std::uint8_t, 65536> table{};
  for (const VectorSignature& sig : kSignatures) {
    if (sig.protocol == Protocol && sig.src_port != 0) {
      table[sig.src_port] =
          static_cast<std::uint8_t>(static_cast<std::size_t>(sig.vector) + 1);
    }
  }
  return table;
}
constexpr std::array<std::uint8_t, 65536> kUdpPortTable = make_port_table<17>();
constexpr std::array<std::uint8_t, 65536> kTcpPortTable = make_port_table<6>();

}  // namespace

std::string_view protocol_name(std::uint8_t protocol) noexcept {
  switch (protocol) {
    case 1: return "ICMP";
    case 6: return "TCP";
    case 17: return "UDP";
    case 47: return "GRE";
    default: return "P?";
  }
}

std::string_view vector_name(DdosVector v) noexcept {
  switch (v) {
    case DdosVector::kUdpFragment: return "UDP Fragm.";
    case DdosVector::kDns: return "DNS";
    case DdosVector::kNtp: return "NTP";
    case DdosVector::kSnmp: return "SNMP";
    case DdosVector::kLdap: return "LDAP";
    case DdosVector::kSsdp: return "SSDP";
    case DdosVector::kAppleRd: return "Apple RD";
    case DdosVector::kMemcached: return "memcached";
    case DdosVector::kChargen: return "chargen";
    case DdosVector::kWsDiscovery: return "WS-Disc.";
    case DdosVector::kRpcbind: return "rpcbind";
    case DdosVector::kMssql: return "MSSQL";
    case DdosVector::kDnsTcp: return "DNS (TCP)";
    case DdosVector::kUbiquiti: return "Ubiq. SD";
    case DdosVector::kDhcpDiscover: return "DHCPDisc.";
    case DdosVector::kGre: return "GRE";
    case DdosVector::kWccp: return "WCCP";
    case DdosVector::kNetbios: return "NetBios";
    case DdosVector::kRip: return "RIP";
    case DdosVector::kOpenVpn: return "OpenVPN";
    case DdosVector::kTftp: return "TFTP";
    case DdosVector::kMsTerminal: return "Micr. TS";
  }
  return "unknown";
}

std::span<const VectorSignature> vector_signatures() noexcept {
  return kSignatures;
}

std::optional<DdosVector> classify_vector(std::uint8_t protocol,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port) noexcept {
  if (protocol == 47) return DdosVector::kGre;
  if (protocol == 17 && src_port == 0 && dst_port == 0)
    return DdosVector::kUdpFragment;
  // Reflection traffic is identified by its source (reflector) port.
  std::uint8_t hit = 0;
  if (protocol == 17) {
    hit = kUdpPortTable[src_port];
  } else if (protocol == 6) {
    hit = kTcpPortTable[src_port];
  }
  if (hit != 0) return static_cast<DdosVector>(hit - 1);
  return std::nullopt;
}

std::span<const DdosVector> top7_vectors() noexcept { return kTop7; }

}  // namespace scrubber::net
