#include "net/prefix_trie.hpp"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.hpp"

namespace scrubber::net {
namespace {

Ipv4Prefix pfx(const char* text) { return *Ipv4Prefix::parse(text); }
Ipv4Address ip(const char* text) { return *Ipv4Address::parse(text); }

TEST(PrefixTrie, InsertAndExactFind) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(pfx("10.0.0.0/8"), 1));
  EXPECT_TRUE(trie.insert(pfx("10.1.0.0/16"), 2));
  EXPECT_FALSE(trie.insert(pfx("10.0.0.0/8"), 3));  // overwrite, not new
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.find_exact(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find_exact(pfx("10.0.0.0/8")), 3);
  EXPECT_EQ(trie.find_exact(pfx("10.0.0.0/9")), nullptr);
}

TEST(PrefixTrie, LongestPrefixMatch) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(pfx("10.1.2.0/24"), 24);
  EXPECT_EQ(*trie.match(ip("10.1.2.3")), 24);
  EXPECT_EQ(*trie.match(ip("10.1.9.9")), 16);
  EXPECT_EQ(*trie.match(ip("10.200.0.1")), 8);
  EXPECT_EQ(trie.match(ip("11.0.0.1")), nullptr);
}

TEST(PrefixTrie, DefaultRouteMatchesAll) {
  PrefixTrie<int> trie;
  trie.insert(pfx("0.0.0.0/0"), 0);
  EXPECT_EQ(*trie.match(ip("1.2.3.4")), 0);
  trie.insert(pfx("1.0.0.0/8"), 1);
  EXPECT_EQ(*trie.match(ip("1.2.3.4")), 1);
  EXPECT_EQ(*trie.match(ip("2.2.3.4")), 0);
}

TEST(PrefixTrie, HostRoute) {
  PrefixTrie<int> trie;
  trie.insert(pfx("192.0.2.1/32"), 99);
  EXPECT_EQ(*trie.match(ip("192.0.2.1")), 99);
  EXPECT_EQ(trie.match(ip("192.0.2.2")), nullptr);
}

TEST(PrefixTrie, MatchAllLeastSpecificFirst) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  trie.insert(pfx("10.1.2.0/24"), 24);
  trie.insert(pfx("11.0.0.0/8"), 11);
  const auto all = trie.match_all(ip("10.1.2.3"));
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(*all[0].second, 8);
  EXPECT_EQ(*all[1].second, 16);
  EXPECT_EQ(*all[2].second, 24);
  EXPECT_EQ(all[2].first.to_string(), "10.1.2.0/24");
}

TEST(PrefixTrie, EraseRemovesOnlyExact) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.insert(pfx("10.1.0.0/16"), 16);
  EXPECT_TRUE(trie.erase(pfx("10.1.0.0/16")));
  EXPECT_FALSE(trie.erase(pfx("10.1.0.0/16")));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.match(ip("10.1.2.3")), 8);
}

TEST(PrefixTrie, ClearEmptiesTrie) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 8);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.match(ip("10.0.0.1")), nullptr);
}

TEST(PrefixTrie, EntriesEnumeratesAll) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 1);
  trie.insert(pfx("192.168.0.0/16"), 2);
  trie.insert(pfx("10.0.0.0/24"), 3);
  const auto entries = trie.entries();
  EXPECT_EQ(entries.size(), 3u);
}

TEST(PrefixTrie, RandomizedAgainstLinearScan) {
  // Property: trie LPM must agree with a brute-force linear scan.
  util::Rng rng(99);
  PrefixTrie<int> trie;
  std::vector<std::pair<Ipv4Prefix, int>> reference;
  for (int i = 0; i < 500; ++i) {
    const auto addr = Ipv4Address(static_cast<std::uint32_t>(rng()));
    const auto length = static_cast<std::uint8_t>(rng.range(1, 32));
    const Ipv4Prefix prefix(addr, length);
    trie.insert(prefix, i);
    bool replaced = false;
    for (auto& [p, v] : reference) {
      if (p == prefix) {
        v = i;
        replaced = true;
        break;
      }
    }
    if (!replaced) reference.emplace_back(prefix, i);
  }
  for (int q = 0; q < 2000; ++q) {
    const auto probe = Ipv4Address(static_cast<std::uint32_t>(rng()));
    const int* got = trie.match(probe);
    // Linear scan for the most specific covering prefix.
    const std::pair<Ipv4Prefix, int>* best = nullptr;
    for (const auto& entry : reference) {
      if (entry.first.contains(probe) &&
          (best == nullptr || entry.first.length() > best->first.length())) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, best->second);
    }
  }
}

TEST(PrefixTrie, VisitCoversInsertedPrefixes) {
  PrefixTrie<int> trie;
  trie.insert(pfx("10.0.0.0/8"), 1);
  trie.insert(pfx("10.128.0.0/9"), 2);
  std::map<std::string, int> seen;
  trie.visit([&](const Ipv4Prefix& p, const int& v) { seen[p.to_string()] = v; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["10.0.0.0/8"], 1);
  EXPECT_EQ(seen["10.128.0.0/9"], 2);
}

}  // namespace
}  // namespace scrubber::net
