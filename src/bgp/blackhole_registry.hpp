#pragma once
// Time-indexed registry of blackhole announcements.
//
// Flow labeling (§3 of the paper) asks, per sampled flow: "was the flow's
// destination IP covered by an active blackhole route during the flow's
// minute bin?". The registry stores announcement/withdrawal intervals per
// prefix and answers that query.

#include <cstdint>
#include <limits>
#include <vector>

#include "bgp/message.hpp"
#include "net/prefix_trie.hpp"

namespace scrubber::bgp {

/// Half-open activity interval [start, end) in minute bins; end is
/// `kOpenEnd` while the blackhole has not been withdrawn yet.
struct BlackholeInterval {
  static constexpr std::uint32_t kOpenEnd =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t start = 0;
  std::uint32_t end = kOpenEnd;
  std::uint32_t origin_as = 0;

  [[nodiscard]] bool active_at(std::uint32_t minute) const noexcept {
    return minute >= start && minute < end;
  }
};

/// Registry of blackhole announcements with interval semantics.
class BlackholeRegistry {
 public:
  /// Records a blackhole announcement for `prefix` starting at `minute`.
  /// Re-announcing an already active prefix is a no-op (idempotent).
  void announce(const net::Ipv4Prefix& prefix, std::uint32_t minute,
                std::uint32_t origin_as = 0);

  /// Records a withdrawal at `minute`; closes the open interval if any.
  void withdraw(const net::Ipv4Prefix& prefix, std::uint32_t minute);

  /// Feeds a decoded BGP UPDATE observed at `minute`: blackhole-community
  /// announcements open intervals, withdrawals close them.
  void apply(const UpdateMessage& update, std::uint32_t minute);

  /// True when `ip` was covered by any active blackhole during `minute`.
  [[nodiscard]] bool is_blackholed(net::Ipv4Address ip,
                                   std::uint32_t minute) const;

 private:
  net::PrefixTrie<std::vector<BlackholeInterval>> trie_;
};

}  // namespace scrubber::bgp
