#include "trace.hpp"

#include <algorithm>

#include "core/collector.hpp"

namespace bench_e2e {

using namespace scrubber;

Trace build_trace(const flowgen::IxpProfile& profile, std::uint32_t minutes,
                  std::uint32_t sampling, std::uint64_t seed,
                  unsigned threads) {
  Trace trace;
  trace.trace_minutes = minutes;
  trace.offsets.push_back(0);
  const net::Ipv4Address agent = net::Ipv4Address::from_octets(10, 99, 0, 1);
  flowgen::TrafficGenerator generator(profile, seed);
  generator.generate_stream(
      0, minutes, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        trace.flows += flows.size();
        for (const auto& datagram :
             core::flows_to_datagrams(flows, sampling, agent)) {
          const std::vector<std::uint8_t> wire = datagram.encode();
          trace.bytes.insert(trace.bytes.end(), wire.begin(), wire.end());
          trace.offsets.push_back(trace.bytes.size());
          trace.minutes.push_back(minute);
          trace.samples += datagram.samples.size();
          trace.max_datagram_bytes =
              std::max(trace.max_datagram_bytes, wire.size());
        }
      },
      threads);
  trace.updates = generator.updates();
  trace.attacks = generator.attacks();
  return trace;
}

}  // namespace bench_e2e
