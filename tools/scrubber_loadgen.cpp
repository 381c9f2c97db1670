// scrubber-loadgen — open-loop sFlow wire load generator for ixpd --listen.
//
//   scrubber-loadgen --port 6343 [--host 127.0.0.1] [--profile us2]
//                    [--minutes 120] [--seed 7] [--sampling 10]
//                    [--rate 0] [--schedule-seed 1] [--fin 3]
//                    [--gen-threads N]
//
// Replays the seeded flowgen trace as sFlow v5 wire datagrams over UDP.
// The trace (--profile/--minutes/--seed/--sampling) must match the
// receiving daemon's flags: ixpd --listen draws the BGP schedule from the
// same seed, which is what makes wire-path verdicts identical to an
// in-process run. --rate paces sends open-loop — exponential inter-arrival
// times drawn up front from --schedule-seed, deadlines never rescheduled —
// so offered load stays fixed no matter how the receiver keeps up
// (DESIGN.md §11 on why closed-loop load generation lies about latency).
// --rate 0 sends as fast as the socket accepts. After the data, the FIN
// sentinel (carrying the datagram total) is sent --fin times.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "args.hpp"
#include "core/collector.hpp"
#include "flowgen/generator.hpp"
#include "netio/loadgen.hpp"

namespace {

using namespace scrubber;
using tools::Args;

flowgen::IxpProfile profile_by_name(const std::string& name) {
  for (const auto& profile : flowgen::all_ixp_profiles()) {
    std::string lowered = profile.name;  // "IXP-US1" -> accept "us1"
    for (auto& c : lowered) c = static_cast<char>(std::tolower(c));
    if (lowered == "ixp-" + name || lowered == name) return profile;
  }
  if (name == "sas") return flowgen::self_attack_profile();
  throw std::runtime_error("unknown profile: " + name +
                           " (use ce1/us1/se/us2/ce2/sas)");
}

int run(int argc, char** argv) {
  const Args args(argc, argv, 1,
                  {"port", "host", "profile", "minutes", "seed", "sampling",
                   "rate", "schedule-seed", "fin", "gen-threads"});
  if (!args.has("port")) {
    throw std::runtime_error(
        "usage: scrubber-loadgen --port <port> [--host 127.0.0.1] "
        "[--profile us2] [--minutes 120] [--seed 7] [--sampling 10] "
        "[--rate dgrams/s] [--schedule-seed 1] [--fin 3] [--gen-threads N]");
  }
  const auto profile = profile_by_name(args.get("profile", "us2"));
  const std::uint32_t minutes =
      static_cast<std::uint32_t>(args.number("minutes", 120));
  const std::uint64_t seed = args.number("seed", 7);
  const auto sampling = static_cast<std::uint32_t>(args.number("sampling", 10));
  const auto gen_threads = static_cast<unsigned>(args.number(
      "gen-threads", std::max(1U, std::thread::hardware_concurrency())));

  netio::LoadGenConfig config;
  config.host = args.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.number("port", 0));
  config.rate = args.real("rate", 0.0);
  config.seed = args.number("schedule-seed", 1);
  config.fin_repeats = static_cast<unsigned>(args.number("fin", 3));

  // Wire-encode the whole trace up front so the send loop measures the
  // network and the pacing, not the generator.
  const net::Ipv4Address agent = net::Ipv4Address::from_octets(10, 99, 0, 1);
  std::vector<std::vector<std::uint8_t>> wire;
  flowgen::TrafficGenerator generator(profile, seed);
  generator.generate_stream(
      0, minutes, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
      [&](std::uint32_t /*minute*/, std::span<const net::FlowRecord> flows) {
        for (const auto& datagram :
             core::flows_to_datagrams(flows, sampling, agent)) {
          wire.push_back(datagram.encode());
        }
      },
      gen_threads);

  std::printf("scrubber-loadgen: profile=%s minutes=%u datagrams=%zu "
              "target=%s:%u rate=%.0f/s schedule-seed=%llu seed=%llu\n",
              profile.name.c_str(), minutes, wire.size(),
              config.host.c_str(), config.port, config.rate,
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  netio::LoadGenerator loadgen(config, std::move(wire));
  const netio::LoadGenSummary summary = loadgen.run();
  std::printf("sent=%llu bytes=%llu wall=%.3fs achieved=%.0f/s "
              "target=%.0f/s behind=%llu\n",
              static_cast<unsigned long long>(summary.sent),
              static_cast<unsigned long long>(summary.bytes),
              summary.wall_seconds, summary.achieved_rate,
              summary.target_rate,
              static_cast<unsigned long long>(summary.behind));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scrubber-loadgen: %s\n", error.what());
    return 1;
  }
}
