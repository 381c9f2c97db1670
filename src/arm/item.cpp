#include "arm/item.hpp"

#include <algorithm>

namespace scrubber::arm {
namespace {

/// Well-known ports itemized exactly. Covers the DDoS service catalog plus
/// the most common benign services so that complement items ("~{...}") are
/// meaningful. Sorted for binary search.
constexpr std::uint16_t kKnownPorts[] = {
    0,   19,  21,  22,  25,  53,   67,   69,   80,   111,  123,  137,
    161, 389, 443, 520, 853, 1194, 1434, 1900, 2048, 3283, 3389, 3702,
    4500, 5060, 8080, 10001, 11211,
};

[[nodiscard]] std::string bucket_to_string(std::uint32_t bucket) {
  const std::uint32_t lo = bucket * kPacketSizeBucket;
  const std::uint32_t hi = lo + kPacketSizeBucket;
  std::string out = "(";
  out += std::to_string(lo);
  out += ',';
  out += std::to_string(hi);
  out += ']';
  return out;
}

[[nodiscard]] std::string complement_ports_string() {
  std::string out = "~{";
  bool first = true;
  for (const std::uint16_t p : kKnownPorts) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(p);
  }
  out += "}";
  return out;
}

}  // namespace

std::string Item::to_string() const {
  switch (attribute()) {
    case Attribute::kProtocol:
      return "protocol=" + std::to_string(value());
    case Attribute::kSrcPort:
      return "port_src=" + std::to_string(value());
    case Attribute::kSrcPortOther:
      return "port_src=" + complement_ports_string();
    case Attribute::kDstPort:
      return "port_dst=" + std::to_string(value());
    case Attribute::kDstPortOther:
      return "port_dst=" + complement_ports_string();
    case Attribute::kPacketSize:
      return "packet_size=" + bucket_to_string(value());
    case Attribute::kFragment:
      return "fragment=1";
    case Attribute::kBlackhole:
      return "blackhole";
  }
  return "?";
}

bool Itemizer::is_known_port(std::uint8_t /*protocol*/,
                             std::uint16_t port) noexcept {
  return std::binary_search(std::begin(kKnownPorts), std::end(kKnownPorts), port);
}

Transaction Itemizer::itemize_header(const net::FlowRecord& flow) const {
  Transaction items;
  items.reserve(5);
  items.emplace_back(Attribute::kProtocol, flow.protocol);

  const bool is_fragment =
      flow.protocol == 17 && flow.src_port == 0 && flow.dst_port == 0;
  if (is_fragment) {
    items.emplace_back(Attribute::kFragment, 1);
  } else {
    if (is_known_port(flow.protocol, flow.src_port)) {
      items.emplace_back(Attribute::kSrcPort, flow.src_port);
    } else {
      items.emplace_back(Attribute::kSrcPortOther, 0);
    }
    if (is_known_port(flow.protocol, flow.dst_port)) {
      items.emplace_back(Attribute::kDstPort, flow.dst_port);
    } else {
      items.emplace_back(Attribute::kDstPortOther, 0);
    }
  }

  const double mean_size = flow.mean_packet_size();
  const auto bucket = static_cast<std::uint32_t>(
      mean_size <= 0.0 ? 0 : (mean_size - 1.0) / kPacketSizeBucket);
  items.emplace_back(Attribute::kPacketSize, std::min(bucket, 20U));

  std::sort(items.begin(), items.end());
  return items;
}

Transaction Itemizer::itemize(const net::FlowRecord& flow) const {
  Transaction items = itemize_header(flow);
  if (flow.blackholed) {
    items.push_back(kBlackholeItem);
    std::sort(items.begin(), items.end());
  }
  return items;
}

}  // namespace scrubber::arm
