#include "net/packet.hpp"

namespace scrubber::net {

void FlowCache::add(const PacketHeader& packet) {
  FlowKey key;
  key.minute = static_cast<std::uint32_t>(packet.timestamp_ms / 60000);
  key.src_ip = packet.src_ip.value();
  key.dst_ip = packet.dst_ip.value();
  key.src_port = packet.src_port;
  key.dst_port = packet.dst_port;
  key.protocol = packet.protocol;
  key.member = packet.ingress_member;

  Counters& counters = *cache_.try_emplace(key).first;
  counters.packets += 1;
  counters.bytes += packet.length;
  counters.tcp_flags |= packet.tcp_flags;
}

FlowRecord FlowCache::to_record(const FlowKey& key,
                                const Counters& counters) const {
  FlowRecord flow;
  flow.minute = key.minute;
  flow.src_ip = Ipv4Address(key.src_ip);
  flow.dst_ip = Ipv4Address(key.dst_ip);
  flow.src_port = key.src_port;
  flow.dst_port = key.dst_port;
  flow.protocol = key.protocol;
  flow.tcp_flags = counters.tcp_flags;
  flow.src_member = key.member;
  // Scale sampled counters to population estimates.
  flow.packets = static_cast<std::uint32_t>(counters.packets * sampling_rate_);
  flow.bytes = counters.bytes * sampling_rate_;
  return flow;
}

std::vector<FlowRecord> FlowCache::drain_before(std::uint32_t minute) {
  // extract_if visits dense entries in insertion order, so the output is
  // ordered by first-packet arrival — bit-identical to the old
  // sort-by-insertion-counter drain.
  std::vector<FlowRecord> out;
  cache_.extract_if(
      [minute](const FlowKey& key, const Counters&) {
        return key.minute < minute;
      },
      [&](const FlowKey& key, Counters&& counters) {
        out.push_back(to_record(key, counters));
      });
  return out;
}

}  // namespace scrubber::net
