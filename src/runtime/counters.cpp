#include "runtime/counters.hpp"

#include <cstdio>

namespace scrubber::runtime {

StageSnapshot StageCounters::snapshot(std::string name) const {
  StageSnapshot snap;
  snap.name = std::move(name);
  snap.items_in = in_.load(std::memory_order_relaxed);
  snap.items_out = out_.load(std::memory_order_relaxed);
  snap.drops = drops_.load(std::memory_order_relaxed);
  snap.queue_highwater = highwater_.load(std::memory_order_relaxed);
  snap.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

std::string EngineSnapshot::stats_line() const {
  char line[320];
  std::snprintf(line, sizeof(line),
                "t=%8.1fs datagrams=%llu flows=%llu minutes=%llu "
                "drops=%llu late=%llu bad=%llu rate=%.0f flows/s "
                "pool=%llu/%llu hiwat=%llu dry=%llu",
                wall_seconds, static_cast<unsigned long long>(datagrams),
                static_cast<unsigned long long>(flows_out),
                static_cast<unsigned long long>(minutes_merged),
                static_cast<unsigned long long>(input_drops),
                static_cast<unsigned long long>(late_drops),
                static_cast<unsigned long long>(decode_errors),
                flows_per_sec(), static_cast<unsigned long long>(pool_in_use),
                static_cast<unsigned long long>(pool_slots),
                static_cast<unsigned long long>(pool_highwater),
                static_cast<unsigned long long>(pool_exhausted));
  return line;
}

std::string EngineSnapshot::report() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "wall %.3fs | %llu datagrams, %llu samples, %llu BGP updates\n"
                "%llu flows in %llu minute batches -> %.0f flows/s\n"
                "drops: input=%llu late=%llu decode_errors=%llu\n",
                wall_seconds, static_cast<unsigned long long>(datagrams),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(bgp_updates),
                static_cast<unsigned long long>(flows_out),
                static_cast<unsigned long long>(minutes_merged),
                flows_per_sec(), static_cast<unsigned long long>(input_drops),
                static_cast<unsigned long long>(late_drops),
                static_cast<unsigned long long>(decode_errors));
  out += line;
  std::snprintf(line, sizeof(line),
                "wire pool: %llu slots, in_use=%llu highwater=%llu "
                "exhausted=%llu\n",
                static_cast<unsigned long long>(pool_slots),
                static_cast<unsigned long long>(pool_in_use),
                static_cast<unsigned long long>(pool_highwater),
                static_cast<unsigned long long>(pool_exhausted));
  out += line;
  for (const StageSnapshot& stage : stages) {
    std::snprintf(line, sizeof(line),
                  "  stage %-8s in=%-10llu out=%-10llu drops=%-6llu "
                  "q_hiwat=%-5llu busy=%7.3fs util=%5.1f%%\n",
                  stage.name.c_str(),
                  static_cast<unsigned long long>(stage.items_in),
                  static_cast<unsigned long long>(stage.items_out),
                  static_cast<unsigned long long>(stage.drops),
                  static_cast<unsigned long long>(stage.queue_highwater),
                  stage.busy_seconds, 100.0 * stage.utilization(wall_seconds));
    out += line;
  }
  return out;
}

}  // namespace scrubber::runtime
