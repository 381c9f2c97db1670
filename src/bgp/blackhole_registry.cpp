#include "bgp/blackhole_registry.hpp"

namespace scrubber::bgp {

void BlackholeRegistry::announce(const net::Ipv4Prefix& prefix,
                                 std::uint32_t minute, std::uint32_t origin_as) {
  auto* intervals = trie_.find_exact(prefix);
  if (intervals == nullptr) {
    trie_.insert(prefix, {});
    intervals = trie_.find_exact(prefix);
  }
  if (!intervals->empty() &&
      intervals->back().end == BlackholeInterval::kOpenEnd) {
    return;  // already active; idempotent re-announcement
  }
  intervals->push_back(BlackholeInterval{minute, BlackholeInterval::kOpenEnd,
                                         origin_as});
}

void BlackholeRegistry::withdraw(const net::Ipv4Prefix& prefix,
                                 std::uint32_t minute) {
  auto* intervals = trie_.find_exact(prefix);
  if (intervals == nullptr || intervals->empty()) return;
  auto& last = intervals->back();
  if (last.end == BlackholeInterval::kOpenEnd && minute >= last.start) {
    last.end = minute;
  }
}

void BlackholeRegistry::apply(const UpdateMessage& update, std::uint32_t minute) {
  if (update.is_blackhole_announcement()) {
    for (const auto& prefix : update.announced) {
      announce(prefix, minute, update.origin_as());
    }
  }
  for (const auto& prefix : update.withdrawn) withdraw(prefix, minute);
}

bool BlackholeRegistry::is_blackholed(net::Ipv4Address ip,
                                      std::uint32_t minute) const {
  for (const auto& [prefix, intervals] : trie_.match_all(ip)) {
    for (const auto& interval : *intervals) {
      if (interval.active_at(minute)) return true;
    }
  }
  return false;
}

}  // namespace scrubber::bgp
