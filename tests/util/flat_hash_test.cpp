// util::FlatHash property suite: randomized equivalence against a
// std::unordered_map oracle, the insertion-order iteration contract that
// FlowCache::drain_before depends on, tombstone reuse under churn, and a
// degenerate-hash stress (everything collides, table degrades to a linear
// scan but stays correct).

#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace scrubber::util {
namespace {

TEST(FlatHash, BasicInsertFindErase) {
  FlatHash<std::uint64_t, int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(7u), nullptr);

  auto [value, inserted] = table.try_emplace(7);
  EXPECT_TRUE(inserted);
  *value = 42;
  EXPECT_EQ(table.size(), 1u);

  auto [again, inserted_again] = table.try_emplace(7);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 42);

  table[9] = 5;
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(9u), nullptr);
  EXPECT_EQ(*table.find(9u), 5);

  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.find(7u), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatHash, ReserveAvoidsRehash) {
  FlatHash<std::uint64_t, std::uint64_t> table;
  table.reserve(1000);
  const std::size_t buckets = table.bucket_count();
  EXPECT_GE(buckets, 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) table[key] = key;
  EXPECT_EQ(table.bucket_count(), buckets);
  EXPECT_EQ(table.size(), 1000u);
}

TEST(FlatHash, ClearKeepsCapacity) {
  FlatHash<std::uint64_t, int> table;
  for (std::uint64_t key = 0; key < 500; ++key) table[key] = 1;
  const std::size_t buckets = table.bucket_count();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.bucket_count(), buckets);
  for (std::uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(table.find(key), nullptr);
  }
  table[3] = 7;
  EXPECT_EQ(table.size(), 1u);
}

// Randomized op sequence checked against std::unordered_map after every
// mutation batch: same membership, same values, same size.
TEST(FlatHash, MatchesUnorderedMapOracle) {
  Rng rng(0xFA57);
  FlatHash<std::uint64_t, std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  const std::uint64_t key_space = 512;  // force collisions and reuse

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.below(key_space);
    const std::uint64_t op = rng.below(10);
    if (op < 6) {  // upsert
      const std::uint64_t value = rng();
      table[key] = value;
      oracle[key] = value;
    } else if (op < 9) {  // erase
      EXPECT_EQ(table.erase(key), oracle.erase(key) > 0) << "key " << key;
    } else {  // lookup
      const auto it = oracle.find(key);
      const std::uint64_t* found = table.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr) << "key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, it->second) << "key " << key;
      }
    }
    EXPECT_EQ(table.size(), oracle.size());
  }
  // Full-content sweep both directions.
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, oracle.size());
}

// for_each visits keys in first-insertion order, across rehashes and
// erase-driven compactions (survivors keep relative order).
TEST(FlatHash, IterationFollowsInsertionOrder) {
  Rng rng(0x07D37);
  FlatHash<std::uint64_t, int> table;
  std::vector<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.below(4096);
    if (table.try_emplace(key).second) inserted.push_back(key);
  }
  std::vector<std::uint64_t> seen;
  table.for_each([&](std::uint64_t key, int) { seen.push_back(key); });
  EXPECT_EQ(seen, inserted);

  // Erase every third key; survivors must keep relative order.
  std::vector<std::uint64_t> survivors;
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(table.erase(inserted[i]));
    } else {
      survivors.push_back(inserted[i]);
    }
  }
  seen.clear();
  table.for_each([&](std::uint64_t key, int) { seen.push_back(key); });
  EXPECT_EQ(seen, survivors);

  // Re-inserting an erased key appends at the end of the order.
  table.try_emplace(inserted[0]);
  seen.clear();
  table.for_each([&](std::uint64_t key, int) { seen.push_back(key); });
  survivors.push_back(inserted[0]);
  EXPECT_EQ(seen, survivors);
}

TEST(FlatHash, ExtractIfDrainsInInsertionOrder) {
  FlatHash<std::uint64_t, std::string> table;
  for (std::uint64_t key = 0; key < 100; ++key) {
    table[key] = std::string("v").append(std::to_string(key));
  }
  // Drain the evens; values arrive by move, in insertion order.
  std::vector<std::uint64_t> drained;
  table.extract_if(
      [](std::uint64_t key, const std::string&) { return key % 2 == 0; },
      [&](std::uint64_t key, std::string&& value) {
        EXPECT_EQ(value, std::string("v").append(std::to_string(key)));
        drained.push_back(key);
      });
  ASSERT_EQ(drained.size(), 50u);
  for (std::size_t i = 0; i + 1 < drained.size(); ++i) {
    EXPECT_LT(drained[i], drained[i + 1]);  // ascending == insertion order
  }
  EXPECT_EQ(table.size(), 50u);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(table.find(key) != nullptr, key % 2 == 1) << "key " << key;
  }
  // Survivors still iterate in insertion order.
  std::vector<std::uint64_t> seen;
  table.for_each([&](std::uint64_t key, const std::string&) {
    seen.push_back(key);
  });
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_LT(seen[i], seen[i + 1]);
  }
  // A drain that removes nothing leaves the table untouched.
  table.extract_if([](std::uint64_t, const std::string&) { return false; },
                   [&](std::uint64_t, std::string&&) { FAIL(); });
  EXPECT_EQ(table.size(), 50u);
}

// Steady-state churn (insert/erase the same working set) must not grow the
// bucket array: tombstones are reused by inserts and wiped by same-size
// rehashes, so capacity converges.
TEST(FlatHash, TombstoneChurnDoesNotGrowTable) {
  FlatHash<std::uint64_t, int> table;
  for (std::uint64_t key = 0; key < 64; ++key) table[key] = 1;
  Rng rng(0xC0DE);
  const auto churn = [&](int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle) {
      const std::uint64_t key = 1000 + rng.below(64);
      if (table.find(key) != nullptr) {
        table.erase(key);
      } else {
        table[key] = cycle;
      }
    }
  };
  // Warm up: let the table settle at the capacity the full working set
  // (64 resident + up to 64 churning keys) demands...
  churn(10000);
  const std::size_t buckets = table.bucket_count();
  // ...then sustained churn on the same bounded working set must never
  // grow it further: inserts reuse tombstones and same-size rehashes wipe
  // the rest.
  churn(50000);
  EXPECT_EQ(table.bucket_count(), buckets)
      << "churn on a bounded working set must not grow the table";
}

struct DegenerateHash {
  std::size_t operator()(std::uint64_t) const noexcept { return 42; }
};

// Everything collides: probes degrade to a linear scan but every operation
// stays correct, including erase-in-the-middle of a probe chain.
TEST(FlatHash, DegenerateHashStaysCorrect) {
  FlatHash<std::uint64_t, std::uint64_t, DegenerateHash> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(0xDE6E);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.below(96);
    if (rng.chance(0.6)) {
      const std::uint64_t value = rng();
      table[key] = value;
      oracle[key] = value;
    } else {
      EXPECT_EQ(table.erase(key), oracle.erase(key) > 0);
    }
    EXPECT_EQ(table.size(), oracle.size());
  }
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
}

// Mapped types with owned storage move cleanly through rehash/compaction
// and erase releases their memory eagerly.
TEST(FlatHash, NonTrivialMappedType) {
  FlatHash<std::uint64_t, std::vector<int>> table;
  for (std::uint64_t key = 0; key < 200; ++key) {
    table[key].assign(10, static_cast<int>(key));
  }
  for (std::uint64_t key = 0; key < 200; key += 2) table.erase(key);
  for (std::uint64_t key = 0; key < 200; ++key) {
    auto* value = table.find(key);
    if (key % 2 == 0) {
      EXPECT_EQ(value, nullptr);
    } else {
      ASSERT_NE(value, nullptr);
      ASSERT_EQ(value->size(), 10u);
      EXPECT_EQ(value->front(), static_cast<int>(key));
    }
  }
}

}  // namespace
}  // namespace scrubber::util
