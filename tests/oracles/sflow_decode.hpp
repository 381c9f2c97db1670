#pragma once
// Reference sFlow v5 decoder: the specification the production in-place
// walk (net::SflowView::decode) is held bit-identical to by the parity
// fuzz suite (tests/net/sflow_inplace_parity_test.cpp). It materializes
// an SflowDatagram and throws SflowDecodeError on malformed input —
// exactly the two costs the serving path avoids — so only tests use it. Keep the decode text unchanged: it is
// the oracle, not a candidate for optimization.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "net/sflow.hpp"
#include "util/check.hpp"

namespace scrubber::oracle {

using net::Ipv4Address;
using net::PacketHeader;
using net::SflowDatagram;
using net::SflowFlowSample;

/// Error thrown on malformed sFlow bytes.
class SflowDecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace sflow_detail {

// sFlow v5 constants.
constexpr std::uint32_t kVersion = 5;
constexpr std::uint32_t kAddressIpv4 = 1;
constexpr std::uint32_t kSampleTypeFlow = 1;         // enterprise 0, format 1
constexpr std::uint32_t kRecordTypeRawPacket = 1;    // enterprise 0, format 1
constexpr std::uint32_t kHeaderProtocolEthernet = 1;

// Synthesized raw-header layout: 14-byte Ethernet + 20-byte IPv4 + 8 bytes
// of L4 (src/dst port + either UDP len/cksum or TCP seq start). We always
// emit 42 bytes, which is also what typical sFlow agents clip to (the
// default header_bytes is 128, but 42 suffices for L4 ports).
constexpr std::uint32_t kRawHeaderBytes = 14 + 20 + 8;

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint32_t u32() {
    require(4);
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                            (std::uint32_t{data_[pos_ + 1]} << 16) |
                            (std::uint32_t{data_[pos_ + 2]} << 8) |
                            std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }
  std::uint16_t u16() {
    require(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }
  Reader sub(std::size_t n) {
    require(n);
    // Decode-bounds invariant: a sub-reader's window lies entirely inside
    // its parent's, so no parse path can read past the datagram, whatever
    // an adversarial length field says.
    SCRUBBER_ASSERT(n <= size_ && pos_ <= size_ - n,
                    "sflow sub-reader window escapes its parent");
    Reader r(data_ + pos_, n);
    pos_ += n;
    return r;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ >= size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > size_) throw SflowDecodeError("truncated sFlow datagram");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline PacketHeader parse_raw_header(Reader& r, std::uint32_t frame_length) {
  PacketHeader packet;
  packet.length = static_cast<std::uint16_t>(frame_length);
  // Ethernet.
  r.skip(6);  // dst MAC
  r.u16();    // src MAC bytes 0-1
  packet.ingress_member = r.u32();  // src MAC bytes 2-5 = member id
  if (r.u16() != 0x0800)
    throw SflowDecodeError("raw header is not IPv4 over Ethernet");
  // IPv4.
  const std::uint8_t version_ihl = r.u8();
  if ((version_ihl >> 4) != 4) throw SflowDecodeError("not an IPv4 header");
  r.u8();
  packet.length = r.u16();
  r.u32();
  r.u8();
  packet.protocol = r.u8();
  r.u16();
  packet.src_ip = Ipv4Address(r.u32());
  packet.dst_ip = Ipv4Address(r.u32());
  // L4 stub.
  packet.src_port = r.u16();
  packet.dst_port = r.u16();
  r.u16();
  packet.tcp_flags = r.u8();
  r.u8();
  return packet;
}

}  // namespace sflow_detail

/// Decodes wire bytes; unknown record types are skipped. Throws
/// SflowDecodeError on malformed input.
[[nodiscard]] inline SflowDatagram decode_sflow(
    std::span<const std::uint8_t> wire) {
  using namespace sflow_detail;
  Reader r(wire.data(), wire.size());
  if (r.u32() != kVersion) throw SflowDecodeError("unsupported sFlow version");
  if (r.u32() != kAddressIpv4)
    throw SflowDecodeError("unsupported agent address family");
  SflowDatagram out;
  out.agent = Ipv4Address(r.u32());
  out.sub_agent_id = r.u32();
  out.sequence = r.u32();
  out.uptime_ms = r.u32();
  const std::uint32_t sample_count = r.u32();

  for (std::uint32_t s = 0; s < sample_count; ++s) {
    const std::uint32_t sample_type = r.u32();
    const std::uint32_t sample_length = r.u32();
    Reader body = r.sub((sample_length + 3) & ~3U);
    if (sample_type != kSampleTypeFlow) continue;  // counter samples skipped

    SflowFlowSample sample;
    sample.sequence = body.u32();
    body.u32();  // source id
    sample.sampling_rate = body.u32();
    sample.sample_pool = body.u32();
    body.u32();  // drops
    sample.input_port = body.u32();
    sample.output_port = body.u32();
    const std::uint32_t record_count = body.u32();
    bool have_packet = false;
    for (std::uint32_t k = 0; k < record_count; ++k) {
      const std::uint32_t record_type = body.u32();
      const std::uint32_t record_length = body.u32();
      Reader record = body.sub((record_length + 3) & ~3U);
      if (record_type != kRecordTypeRawPacket) continue;
      if (record.u32() != kHeaderProtocolEthernet)
        throw SflowDecodeError("unsupported header protocol");
      const std::uint32_t frame_length = record.u32();
      record.u32();  // stripped
      const std::uint32_t header_bytes = record.u32();
      if (header_bytes < kRawHeaderBytes)
        throw SflowDecodeError("raw header clip too short");
      Reader header = record.sub(header_bytes);
      sample.packet = parse_raw_header(header, frame_length - 14);
      have_packet = true;
    }
    if (have_packet) out.samples.push_back(sample);
  }
  SCRUBBER_ASSERT(out.samples.size() <= sample_count,
                  "decoded more flow samples than the datagram declared");
  return out;
}

}  // namespace scrubber::oracle
