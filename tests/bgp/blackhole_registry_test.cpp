#include "bgp/blackhole_registry.hpp"

#include <gtest/gtest.h>

namespace scrubber::bgp {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;

Ipv4Address ip(const char* text) { return *Ipv4Address::parse(text); }
Ipv4Prefix pfx(const char* text) { return *Ipv4Prefix::parse(text); }

TEST(BlackholeRegistry, IntervalSemantics) {
  BlackholeRegistry registry;
  registry.announce(pfx("203.0.113.5/32"), 100);
  registry.withdraw(pfx("203.0.113.5/32"), 110);
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 99));
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 100));
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 109));
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 110));  // half-open
}

TEST(BlackholeRegistry, OpenEndedInterval) {
  BlackholeRegistry registry;
  registry.announce(pfx("203.0.113.5/32"), 100);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 1000000));
}

TEST(BlackholeRegistry, ReAnnouncementIdempotent) {
  BlackholeRegistry registry;
  registry.announce(pfx("203.0.113.5/32"), 100);
  registry.announce(pfx("203.0.113.5/32"), 105);
  // The re-announcement opened no second interval: one withdrawal ends it.
  registry.withdraw(pfx("203.0.113.5/32"), 110);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 100));
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 110));
  registry.announce(pfx("203.0.113.5/32"), 200);
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 150));
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 250));
}

TEST(BlackholeRegistry, WithdrawWithoutAnnouncementIsNoop) {
  BlackholeRegistry registry;
  registry.withdraw(pfx("203.0.113.5/32"), 100);
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 100));
  registry.announce(pfx("203.0.113.5/32"), 120);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 120));
}

TEST(BlackholeRegistry, DifferentPrefixesIndependent) {
  BlackholeRegistry registry;
  registry.announce(pfx("203.0.113.5/32"), 100);
  registry.announce(pfx("198.51.100.9/32"), 200);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 150));
  EXPECT_FALSE(registry.is_blackholed(ip("198.51.100.9"), 150));
  EXPECT_TRUE(registry.is_blackholed(ip("198.51.100.9"), 250));
}

TEST(BlackholeRegistry, CoveringPrefixApplies) {
  BlackholeRegistry registry;
  registry.announce(pfx("203.0.113.0/24"), 100);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.200"), 105));
  // A withdrawn /32 inside the /24 leaves the /24 covering it.
  registry.announce(pfx("203.0.113.5/32"), 100);
  registry.withdraw(pfx("203.0.113.5/32"), 110);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 115));
  EXPECT_FALSE(registry.is_blackholed(ip("198.51.100.9"), 105));
}

TEST(BlackholeRegistry, ApplyBgpUpdates) {
  BlackholeRegistry registry;
  const auto bh = make_blackhole_announcement(pfx("203.0.113.5/32"), 64512,
                                              ip("10.255.0.1"));
  registry.apply(bh, 100);
  EXPECT_TRUE(registry.is_blackholed(ip("203.0.113.5"), 100));

  // A non-blackhole announcement must not register.
  UpdateMessage plain;
  plain.announced = {pfx("198.51.100.9/32")};
  plain.as_path = {64512};
  plain.next_hop = ip("10.255.0.1");
  registry.apply(plain, 100);
  EXPECT_FALSE(registry.is_blackholed(ip("198.51.100.9"), 100));

  registry.apply(make_withdrawal(pfx("203.0.113.5/32")), 120);
  EXPECT_FALSE(registry.is_blackholed(ip("203.0.113.5"), 125));
}

}  // namespace
}  // namespace scrubber::bgp
