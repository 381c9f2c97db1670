#include "net/sflow.hpp"

namespace scrubber::net {
namespace {

class Writer {
 public:
  void u32(std::uint32_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> 24));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 16));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void raw(const std::vector<std::uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  /// XDR opaque: pads to a 4-byte boundary.
  void opaque(const std::vector<std::uint8_t>& data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
    while (bytes_.size() % 4 != 0) bytes_.push_back(0);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Builds the synthetic raw header for a packet: 14-byte Ethernet + 20-byte
/// IPv4 + 8 bytes of L4 (src/dst port + either UDP len/cksum or TCP seq
/// start). We always emit 42 bytes, which is also what typical sFlow agents
/// clip to (the default header_bytes is 128, but 42 suffices for L4 ports).
std::vector<std::uint8_t> build_raw_header(const PacketHeader& packet) {
  Writer w;
  // Ethernet (14 bytes): zeroed dst MAC, src MAC carrying the member port
  // in its low 4 bytes (IXPs identify members by peering-LAN MAC, §5.2.1),
  // ethertype 0x0800.
  w.u16(0);
  w.u32(0);                         // dst MAC
  w.u16(0);                         // src MAC bytes 0-1
  w.u32(packet.ingress_member);     // src MAC bytes 2-5 = member id
  w.u16(0x0800);                    // ethertype IPv4
  // IPv4 header (20 bytes, no options).
  w.u8(0x45);                         // version + IHL
  w.u8(0);                            // DSCP
  w.u16(packet.length);               // total length
  w.u32(0);                           // id + flags/fragment offset
  w.u8(64);                           // TTL
  w.u8(packet.protocol);
  w.u16(0);                           // checksum (agents do not recompute)
  w.u32(packet.src_ip.value());
  w.u32(packet.dst_ip.value());
  // First 8 bytes of L4: ports + 4 bytes of protocol-specific data; the
  // TCP flags are stashed where a collector would read them for TCP
  // (offset 13 of the TCP header is beyond 8 bytes, so agents exporting
  // 42-byte clips carry flags only for longer clips; we encode them in
  // the 4 trailing bytes for test fidelity).
  w.u16(packet.src_port);
  w.u16(packet.dst_port);
  w.u16(0);
  w.u8(packet.tcp_flags);
  w.u8(0);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> SflowDatagram::encode() const {
  Writer w;
  w.u32(sflow_detail::kWireVersion);
  w.u32(sflow_detail::kWireAddressIpv4);
  w.u32(agent.value());
  w.u32(sub_agent_id);
  w.u32(sequence);
  w.u32(uptime_ms);
  w.u32(static_cast<std::uint32_t>(samples.size()));

  for (const auto& sample : samples) {
    // Flow sample record body.
    Writer body;
    body.u32(sample.sequence);
    body.u32(sample.input_port & 0x00FFFFFFU);  // source id (type 0 + index)
    body.u32(sample.sampling_rate);
    body.u32(sample.sample_pool);
    body.u32(0);  // drops
    body.u32(sample.input_port);
    body.u32(sample.output_port);
    body.u32(1);  // one flow record

    // Raw packet header record.
    Writer record;
    record.u32(sflow_detail::kWireHeaderEthernet);
    record.u32(sample.packet.length + 14U);  // frame length incl. Ethernet
    record.u32(0);                           // payload stripped
    record.opaque(build_raw_header(sample.packet));
    const auto record_bytes = record.take();
    body.u32(sflow_detail::kWireRecordRawPacket);
    body.opaque(record_bytes);

    const auto body_bytes = body.take();
    w.u32(sflow_detail::kWireSampleFlow);
    w.opaque(body_bytes);
  }
  return w.take();
}

}  // namespace scrubber::net
