#pragma once
// The flow hot path as it was before the flat-container rewrite, kept as
// the bit-identity oracle for the current one (DESIGN.md §10):
//
//   * LegacyFlowCache — the node-based std::unordered_map cache with an
//     explicit insertion-order counter and a sort-on-drain; the current
//     net::FlowCache (util::FlatHash) must drain the same FlowRecords in
//     the same order.
//   * legacy_aggregate — std::map group-by, fresh unordered_map tallies and
//     a full sort per (categorical, metric) ranking; the current
//     core::Aggregator must produce a byte-equal feature matrix and
//     identical labels and meta at every thread count.
//
// Used by tests/core/hotpath_equivalence_test.cpp and bench/hotpath.cpp.
// Do not "improve" this code — its value is being frozen.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arm/rules.hpp"
#include "core/aggregator.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"

namespace scrubber::oracle {

class LegacyFlowCache {
 public:
  explicit LegacyFlowCache(std::uint32_t sampling_rate)
      : sampling_rate_(sampling_rate) {}

  void add(const net::PacketHeader& packet) {
    net::FlowKey key;
    key.minute = static_cast<std::uint32_t>(packet.timestamp_ms / 60000);
    key.src_ip = packet.src_ip.value();
    key.dst_ip = packet.dst_ip.value();
    key.src_port = packet.src_port;
    key.dst_port = packet.dst_port;
    key.protocol = packet.protocol;
    key.member = packet.ingress_member;
    auto [it, inserted] = cache_.try_emplace(key);
    if (inserted) it->second.order = next_order_++;
    it->second.packets += 1;
    it->second.bytes += packet.length;
    it->second.tcp_flags |= packet.tcp_flags;
  }

  [[nodiscard]] std::vector<net::FlowRecord> drain_before(std::uint32_t minute) {
    std::vector<std::pair<std::uint64_t, net::FlowRecord>> drained;
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->first.minute < minute) {
        net::FlowRecord flow;
        flow.minute = it->first.minute;
        flow.src_ip = net::Ipv4Address(it->first.src_ip);
        flow.dst_ip = net::Ipv4Address(it->first.dst_ip);
        flow.src_port = it->first.src_port;
        flow.dst_port = it->first.dst_port;
        flow.protocol = it->first.protocol;
        flow.tcp_flags = it->second.tcp_flags;
        flow.src_member = it->first.member;
        flow.packets =
            static_cast<std::uint32_t>(it->second.packets * sampling_rate_);
        flow.bytes = it->second.bytes * sampling_rate_;
        drained.emplace_back(it->second.order, flow);
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(drained.begin(), drained.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<net::FlowRecord> out;
    out.reserve(drained.size());
    for (auto& [order, flow] : drained) out.push_back(flow);
    return out;
  }

 private:
  struct Counters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint8_t tcp_flags = 0;
    std::uint64_t order = 0;
  };
  std::uint32_t sampling_rate_;
  std::uint64_t next_order_ = 0;
  std::unordered_map<net::FlowKey, Counters, net::FlowKeyHash> cache_;
};

namespace legacy_detail {

enum class Categorical : std::size_t {
  kSrcIp, kSrcPort, kDstPort, kSrcMember, kProtocol,
};
inline constexpr std::array<Categorical, 5> kCategoricals{
    Categorical::kSrcIp, Categorical::kSrcPort, Categorical::kDstPort,
    Categorical::kSrcMember, Categorical::kProtocol,
};
enum class Metric : std::size_t { kMeanPacketSize, kSumBytes, kSumPackets };
inline constexpr std::array<Metric, 3> kMetrics{
    Metric::kMeanPacketSize, Metric::kSumBytes, Metric::kSumPackets,
};

inline double categorical_value(const net::FlowRecord& flow, Categorical c) {
  switch (c) {
    case Categorical::kSrcIp: return static_cast<double>(flow.src_ip.value());
    case Categorical::kSrcPort: return static_cast<double>(flow.src_port);
    case Categorical::kDstPort: return static_cast<double>(flow.dst_port);
    case Categorical::kSrcMember: return static_cast<double>(flow.src_member);
    case Categorical::kProtocol: return static_cast<double>(flow.protocol);
  }
  return 0.0;
}

struct GroupMetrics {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  [[nodiscard]] double metric(Metric m) const {
    switch (m) {
      case Metric::kMeanPacketSize:
        return packets == 0 ? 0.0
                            : static_cast<double>(bytes) /
                                  static_cast<double>(packets);
      case Metric::kSumBytes: return static_cast<double>(bytes);
      case Metric::kSumPackets: return static_cast<double>(packets);
    }
    return 0.0;
  }
};

}  // namespace legacy_detail

/// `rules` (optional) adds the legacy per-group rule tagging to the meta.
inline core::AggregatedDataset legacy_aggregate(
    std::span<const net::FlowRecord> flows,
    const arm::RuleSet* rules = nullptr) {
  using namespace legacy_detail;
  const arm::Itemizer itemizer;
  core::AggregatedDataset out;
  out.data = ml::Dataset(core::Aggregator::schema());

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    groups[{flows[i].minute, flows[i].dst_ip.value()}].push_back(i);
  }

  const std::size_t width = out.data.n_cols();
  std::vector<double> row(width);

  for (const auto& [key, indices] : groups) {
    std::fill(row.begin(), row.end(), ml::kMissing);
    std::size_t column = 0;
    for (const Categorical c : kCategoricals) {
      std::unordered_map<std::uint64_t, GroupMetrics> by_value;
      for (const std::size_t i : indices) {
        const auto value =
            static_cast<std::uint64_t>(categorical_value(flows[i], c));
        auto& group = by_value[value];
        group.bytes += flows[i].bytes;
        group.packets += flows[i].packets;
      }
      for (const Metric m : kMetrics) {
        std::vector<std::pair<double, std::uint64_t>> ranked;
        ranked.reserve(by_value.size());
        for (const auto& [value, metrics] : by_value)
          ranked.emplace_back(metrics.metric(m), value);
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& a, const auto& b) {
                    return a.first > b.first ||
                           (a.first == b.first && a.second < b.second);
                  });
        for (std::size_t r = 0; r < core::kRanks; ++r) {
          if (r < ranked.size()) {
            row[column] = static_cast<double>(ranked[r].second);
            row[column + 1] = ranked[r].first;
          }
          column += 2;
        }
      }
    }

    int label = 0;
    for (const std::size_t i : indices) {
      if (flows[i].blackholed) {
        label = 1;
        break;
      }
    }
    out.data.add_row(row, label);

    core::RecordMeta meta;
    meta.minute = key.first;
    meta.target = net::Ipv4Address(key.second);
    meta.flow_count = static_cast<std::uint32_t>(indices.size());

    if (rules != nullptr) {
      std::unordered_set<std::uint32_t> tags;
      for (const std::size_t i : indices) {
        for (const std::uint32_t tag :
             rules->matching_accepted(flows[i], itemizer))
          tags.insert(tag);
      }
      meta.rule_tags.assign(tags.begin(), tags.end());
      std::sort(meta.rule_tags.begin(), meta.rule_tags.end());
    }

    std::unordered_map<std::size_t, std::uint64_t> vector_bytes;
    std::uint64_t total_bytes = 0;
    for (const std::size_t i : indices) {
      total_bytes += flows[i].bytes;
      if (const auto v = flows[i].vector()) {
        vector_bytes[static_cast<std::size_t>(*v)] += flows[i].bytes;
      }
    }
    if (!vector_bytes.empty()) {
      std::size_t best = 0;
      std::uint64_t best_bytes = 0;
      for (const auto& [v, bytes] : vector_bytes) {
        if (bytes > best_bytes || (bytes == best_bytes && v < best)) {
          best = v;
          best_bytes = bytes;
        }
      }
      if (best_bytes * 4 >= total_bytes) {
        meta.dominant_vector = static_cast<net::DdosVector>(best);
      }
    }
    out.meta.push_back(std::move(meta));
  }
  return out;
}

}  // namespace scrubber::oracle
