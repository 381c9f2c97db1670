#include "bgp/message.hpp"

#include <algorithm>
#include <array>

namespace scrubber::bgp {
namespace {

// RFC 4271 constants.
constexpr std::size_t kHeaderSize = 19;   // 16 marker + 2 length + 1 type
constexpr std::size_t kMaxMessage = 4096;
constexpr std::uint8_t kTypeUpdate = 2;

// Path attribute type codes.
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAttrCommunities = 8;

// Attribute flags.
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// AS_PATH segment types.
constexpr std::uint8_t kAsSequence = 2;

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void raw(const std::vector<std::uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Writes prefix in BGP NLRI form: length byte + ceil(len/8) address bytes.
  void prefix(const net::Ipv4Prefix& p) {
    u8(p.length());
    const std::uint32_t addr = p.address().value();
    const int bytes = (p.length() + 7) / 8;
    for (int i = 0; i < bytes; ++i)
      u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    require(2);
    const std::uint16_t v = (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }

  net::Ipv4Prefix prefix() {
    const std::uint8_t length = u8();
    if (length > 32) throw BgpDecodeError("prefix length > 32");
    std::uint32_t addr = 0;
    const int bytes = (length + 7) / 8;
    for (int i = 0; i < bytes; ++i)
      addr |= std::uint32_t{u8()} << (24 - 8 * i);
    return net::Ipv4Prefix(net::Ipv4Address(addr), length);
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= size_; }

  Reader sub(std::size_t length) {
    require(length);
    Reader r(data_ + pos_, length);
    pos_ += length;
    return r;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > size_) throw BgpDecodeError("truncated BGP message");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_attribute(Writer& out, std::uint8_t flags, std::uint8_t type,
                     const std::vector<std::uint8_t>& body) {
  const bool extended = body.size() > 255;
  out.u8(extended ? static_cast<std::uint8_t>(flags | kFlagExtendedLength) : flags);
  out.u8(type);
  if (extended) {
    out.u16(static_cast<std::uint16_t>(body.size()));
  } else {
    out.u8(static_cast<std::uint8_t>(body.size()));
  }
  out.raw(body);
}

}  // namespace

std::vector<std::uint8_t> UpdateMessage::encode() const {
  // Withdrawn routes section.
  Writer withdrawn_writer;
  for (const auto& p : withdrawn) withdrawn_writer.prefix(p);
  const std::vector<std::uint8_t> withdrawn_bytes = withdrawn_writer.take();

  // Path attributes section (only present when announcing routes).
  Writer attrs_writer;
  if (!announced.empty()) {
    {
      Writer body;
      body.u8(static_cast<std::uint8_t>(origin));
      write_attribute(attrs_writer, kFlagTransitive, kAttrOrigin, body.take());
    }
    {
      Writer body;
      if (!as_path.empty()) {
        body.u8(kAsSequence);
        body.u8(static_cast<std::uint8_t>(as_path.size()));
        for (const std::uint32_t asn : as_path) body.u32(asn);
      }
      write_attribute(attrs_writer, kFlagTransitive, kAttrAsPath, body.take());
    }
    {
      Writer body;
      body.u32(next_hop.value());
      write_attribute(attrs_writer, kFlagTransitive, kAttrNextHop, body.take());
    }
    if (!communities.empty()) {
      Writer body;
      for (const Community c : communities) body.u32(c.raw());
      write_attribute(attrs_writer, kFlagOptional | kFlagTransitive,
                      kAttrCommunities, body.take());
    }
  }
  const std::vector<std::uint8_t> attr_bytes = attrs_writer.take();

  Writer nlri_writer;
  for (const auto& p : announced) nlri_writer.prefix(p);
  const std::vector<std::uint8_t> nlri_bytes = nlri_writer.take();

  const std::size_t total = kHeaderSize + 2 + withdrawn_bytes.size() + 2 +
                            attr_bytes.size() + nlri_bytes.size();
  if (total > kMaxMessage)
    throw std::length_error("BGP UPDATE exceeds 4096 bytes");

  Writer out;
  for (int i = 0; i < 16; ++i) out.u8(0xFF);  // marker (all ones, RFC 4271)
  out.u16(static_cast<std::uint16_t>(total));
  out.u8(kTypeUpdate);
  out.u16(static_cast<std::uint16_t>(withdrawn_bytes.size()));
  out.raw(withdrawn_bytes);
  out.u16(static_cast<std::uint16_t>(attr_bytes.size()));
  out.raw(attr_bytes);
  out.raw(nlri_bytes);
  return out.take();
}

UpdateMessage UpdateMessage::decode(const std::vector<std::uint8_t>& wire) {
  Reader in(wire.data(), wire.size());
  for (int i = 0; i < 16; ++i) {
    if (in.u8() != 0xFF) throw BgpDecodeError("bad BGP marker");
  }
  const std::uint16_t length = in.u16();
  if (length != wire.size()) throw BgpDecodeError("length field mismatch");
  if (in.u8() != kTypeUpdate) throw BgpDecodeError("not an UPDATE message");

  UpdateMessage msg;
  {
    const std::uint16_t withdrawn_len = in.u16();
    Reader wr = in.sub(withdrawn_len);
    while (!wr.done()) msg.withdrawn.push_back(wr.prefix());
  }
  {
    const std::uint16_t attrs_len = in.u16();
    Reader ar = in.sub(attrs_len);
    while (!ar.done()) {
      const std::uint8_t flags = ar.u8();
      const std::uint8_t type = ar.u8();
      const std::size_t body_len =
          (flags & kFlagExtendedLength) ? ar.u16() : ar.u8();
      Reader body = ar.sub(body_len);
      switch (type) {
        case kAttrOrigin:
          msg.origin = static_cast<Origin>(body.u8());
          break;
        case kAttrAsPath:
          while (!body.done()) {
            const std::uint8_t seg_type = body.u8();
            const std::uint8_t seg_len = body.u8();
            if (seg_type != kAsSequence)
              throw BgpDecodeError("unsupported AS_PATH segment type");
            for (int i = 0; i < seg_len; ++i) msg.as_path.push_back(body.u32());
          }
          break;
        case kAttrNextHop:
          msg.next_hop = net::Ipv4Address(body.u32());
          break;
        case kAttrCommunities:
          while (!body.done()) msg.communities.emplace_back(body.u32());
          break;
        default:
          break;  // skip unknown attributes (body already consumed)
      }
    }
  }
  while (!in.done()) msg.announced.push_back(in.prefix());
  return msg;
}

UpdateMessage make_blackhole_announcement(net::Ipv4Prefix prefix,
                                          std::uint32_t origin_as,
                                          net::Ipv4Address next_hop) {
  UpdateMessage msg;
  msg.announced.push_back(prefix);
  msg.as_path = {origin_as};
  msg.next_hop = next_hop;
  msg.origin = Origin::kIgp;
  msg.communities = {kBlackhole, kNoExport};
  return msg;
}

UpdateMessage make_withdrawal(net::Ipv4Prefix prefix) {
  UpdateMessage msg;
  msg.withdrawn.push_back(prefix);
  return msg;
}

}  // namespace scrubber::bgp
