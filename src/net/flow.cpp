#include "net/flow.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace scrubber::net {
namespace {

constexpr std::array<char, 4> kMagic{'S', 'F', 'L', '1'};

template <typename T>
void put(std::ostream& out, T value) {
  // Host order is little-endian on all supported targets; fixed-width fields.
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw std::runtime_error("truncated flow stream");
  return value;
}

}  // namespace

std::string FlowRecord::to_string() const {
  std::string out;
  out += "[m=" + std::to_string(minute) + "] ";
  out += src_ip.to_string() + ":" + std::to_string(src_port);
  out += " -> ";
  out += dst_ip.to_string() + ":" + std::to_string(dst_port);
  out += " ";
  out += protocol_name(protocol);
  out += " pkts=" + std::to_string(packets);
  out += " bytes=" + std::to_string(bytes);
  if (blackholed) out += " BH";
  return out;
}

void write_flows(std::ostream& out, const std::vector<FlowRecord>& flows) {
  out.write(kMagic.data(), kMagic.size());
  put<std::uint64_t>(out, flows.size());
  for (const auto& f : flows) {
    put<std::uint32_t>(out, f.minute);
    put<std::uint32_t>(out, f.src_ip.value());
    put<std::uint32_t>(out, f.dst_ip.value());
    put<std::uint16_t>(out, f.src_port);
    put<std::uint16_t>(out, f.dst_port);
    put<std::uint8_t>(out, f.protocol);
    put<std::uint8_t>(out, f.tcp_flags);
    put<std::uint32_t>(out, f.src_member);
    put<std::uint32_t>(out, f.packets);
    put<std::uint64_t>(out, f.bytes);
    put<std::uint8_t>(out, f.blackholed ? 1 : 0);
  }
}

std::vector<FlowRecord> read_flows(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) throw std::runtime_error("bad flow stream magic");
  const auto count = get<std::uint64_t>(in);
  std::vector<FlowRecord> flows;
  flows.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowRecord f;
    f.minute = get<std::uint32_t>(in);
    f.src_ip = Ipv4Address(get<std::uint32_t>(in));
    f.dst_ip = Ipv4Address(get<std::uint32_t>(in));
    f.src_port = get<std::uint16_t>(in);
    f.dst_port = get<std::uint16_t>(in);
    f.protocol = get<std::uint8_t>(in);
    f.tcp_flags = get<std::uint8_t>(in);
    f.src_member = get<std::uint32_t>(in);
    f.packets = get<std::uint32_t>(in);
    f.bytes = get<std::uint64_t>(in);
    f.blackholed = get<std::uint8_t>(in) != 0;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace scrubber::net
