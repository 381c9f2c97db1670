#include "core/collector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace scrubber::core {

Collector::Collector(Config config, MinuteBatchSink sink)
    : config_(config), sink_(std::move(sink)), cache_(config.sampling_rate) {
  if (config_.anonymization_salt) {
    anonymizer_.emplace(*config_.anonymization_salt);
  }
}

void Collector::check_not_in_flush(const char* what) const {
  // MinuteBatchSink contract (see collector.hpp): the sink runs mid-drain
  // and must not call back into the collector. Enforced unconditionally
  // (not just an assert): the sharded runtime depends on it for memory
  // safety, and release builds are where it would silently corrupt.
  if (in_flush_) {
    throw std::logic_error(std::string("core::Collector::") + what +
                           " called from inside a MinuteBatchSink");
  }
}

void Collector::flush_before(std::uint32_t minute) {
  // Tolerate stale flush points: a shard whose time was advanced past the
  // watermark by Collector::advance may later compute an older flush
  // minute from its own traffic; closed minutes never reopen.
  if (minute <= flushed_before_) return;
#if defined(SCRUBBER_CHECKED)
  const std::uint32_t previous_horizon = flushed_before_;
#endif
  flushed_before_ = minute;
  in_flush_ = true;
  struct FlushGuard {
    bool& flag;
    ~FlushGuard() { flag = false; }
  } guard{in_flush_};
  auto flows = cache_.drain_before(minute);
#if defined(SCRUBBER_CHECKED)
  // Every drained flow belongs to [previous horizon, new horizon): the
  // cache must never hold flows for minutes that were already emitted,
  // and drain_before must not leak flows at or past the new horizon.
  for (const net::FlowRecord& flow : flows) {
    SCRUBBER_ASSERT(flow.minute >= previous_horizon,
                    "collector drained a flow from an already-closed minute");
    SCRUBBER_ASSERT(flow.minute < minute,
                    "collector drained a flow beyond the flush horizon");
  }
#endif
  if (flows.empty()) return;
  std::stable_sort(flows.begin(), flows.end(),
                   [](const net::FlowRecord& a, const net::FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  std::size_t start = 0;
  while (start < flows.size()) {
    std::size_t end = start;
    const std::uint32_t bin = flows[start].minute;
    while (end < flows.size() && flows[end].minute == bin) ++end;
    // Label against the registry, then anonymize (order matters: labels
    // need the real destination addresses).
    for (std::size_t i = start; i < end; ++i) {
      flows[i].blackholed = registry_.is_blackholed(flows[i].dst_ip, bin);
      if (anonymizer_) anonymizer_->anonymize(flows[i]);
    }
    flows_emitted_ += end - start;
    if (sink_) {
      sink_(bin, std::span<const net::FlowRecord>(flows.data() + start,
                                                  end - start));
    }
    start = end;
  }
}

// The parity and sharded-collector suites check the fused ingest_samples
// path against this whole-datagram entry.
// NOLINTNEXTLINE(scrubber-unreferenced): test oracle for ingest_samples
void Collector::ingest(const net::SflowDatagram& datagram) {
  ingest_samples(datagram.uptime_ms,
                 std::span<const net::SflowFlowSample>(
                     datagram.samples.data(), datagram.samples.size()));
}

void Collector::ingest_samples(std::uint32_t uptime_ms,
                               std::span<const net::SflowFlowSample> samples) {
  check_not_in_flush("ingest_samples");
  ++datagrams_;
  const auto minute = static_cast<std::uint32_t>(uptime_ms / 60'000);
  if (minute < flushed_before_) {
    // The bin this sub-datagram belongs to was already emitted (the shard
    // fell behind an externally advanced watermark); dropping keeps every
    // minute batch emitted exactly once.
    ++late_datagrams_;
    return;
  }
  // Stamp timestamps from the export uptime, source member from the
  // sampler's input port.
  for (const net::SflowFlowSample& sample : samples) {
    net::PacketHeader packet = sample.packet;
    packet.timestamp_ms = uptime_ms;
    packet.ingress_member = sample.input_port;
    cache_.add(packet);
  }
  watermark_min_ = std::max(watermark_min_, minute);
  // The watermark/horizon pair is the collector's clock: both only move
  // forward, and the horizon trails the watermark by the reorder slack.
  SCRUBBER_ASSERT(flushed_before_ <= watermark_min_ + 1,
                  "flush horizon overtook the watermark");
  if (watermark_min_ > config_.reorder_slack_min) {
    flush_before(watermark_min_ - config_.reorder_slack_min);
  }
}

void Collector::ingest_bgp(const bgp::UpdateMessage& update,
                           std::uint64_t now_ms) {
  check_not_in_flush("ingest_bgp");
  registry_.apply(update, static_cast<std::uint32_t>(now_ms / 60'000));
}

void Collector::advance(std::uint32_t minute) {
  check_not_in_flush("advance");
  if (minute <= watermark_min_) return;  // stale watermark: no-op
  watermark_min_ = minute;
  if (watermark_min_ > config_.reorder_slack_min) {
    flush_before(watermark_min_ - config_.reorder_slack_min);
  }
}

void Collector::flush() {
  check_not_in_flush("flush");
  flush_before(std::numeric_limits<std::uint32_t>::max());
}

std::vector<net::SflowDatagram> flows_to_datagrams(
    std::span<const net::FlowRecord> flows, std::uint32_t sampling_rate,
    net::Ipv4Address agent) {
  std::vector<net::SflowDatagram> out;
  net::SflowDatagram current;
  current.agent = agent;
  std::uint32_t sequence = 0;
  std::uint32_t sample_sequence = 0;
  std::uint32_t current_minute = flows.empty() ? 0 : flows.front().minute;
  current.uptime_ms = std::uint64_t{current_minute} * 60'000;

  auto emit = [&]() {
    if (current.samples.empty()) return;
    current.sequence = sequence++;
    out.push_back(current);
    current.samples.clear();
  };

  for (const auto& flow : flows) {
    if (flow.minute != current_minute) {
      emit();
      current_minute = flow.minute;
      current.uptime_ms = std::uint64_t{current_minute} * 60'000;
    }
    // One sampled packet represents `sampling_rate` real packets; emit
    // round(packets / rate) samples (at least one) whose sizes reproduce
    // the flow's mean packet size.
    const std::uint32_t samples = std::max<std::uint32_t>(
        1, (flow.packets + sampling_rate / 2) / sampling_rate);
    const auto size = static_cast<std::uint16_t>(
        std::clamp(flow.mean_packet_size(), 60.0, 65535.0));
    for (std::uint32_t k = 0; k < samples; ++k) {
      net::SflowFlowSample sample;
      sample.sequence = sample_sequence++;
      sample.sampling_rate = sampling_rate;
      sample.sample_pool = sample_sequence * sampling_rate;
      sample.input_port = flow.src_member;
      sample.packet.src_ip = flow.src_ip;
      sample.packet.dst_ip = flow.dst_ip;
      sample.packet.src_port = flow.src_port;
      sample.packet.dst_port = flow.dst_port;
      sample.packet.protocol = flow.protocol;
      sample.packet.tcp_flags = flow.tcp_flags;
      sample.packet.length = size;
      sample.packet.ingress_member = flow.src_member;
      current.samples.push_back(sample);
      if (current.samples.size() >= 64) emit();  // typical MTU-bound batch
    }
  }
  emit();
  return out;
}

}  // namespace scrubber::core
