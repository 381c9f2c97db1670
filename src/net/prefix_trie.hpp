#pragma once
// Binary radix (Patricia-style, uncompressed path) trie keyed by IPv4
// prefixes with longest-prefix-match lookup.
//
// This backs the blackhole registry: flow labeling asks,
// per flow, "what is the most specific blackhole prefix covering this
// destination IP?". The trie keeps lookups O(32) regardless of table size.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"

namespace scrubber::net {

/// Radix trie mapping Ipv4Prefix -> T with longest-prefix-match semantics.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or overwrites the value stored at `prefix`.
  /// Returns true when the prefix was newly inserted.
  bool insert(const Ipv4Prefix& prefix, T value) {
    Node* node = descend_or_create(prefix);
    const bool inserted = !node->value.has_value();
    node->value = std::move(value);
    if (inserted) ++size_;
    return inserted;
  }

  /// Removes the entry stored at exactly `prefix` (no aggregation).
  /// Returns true when an entry was removed.
  bool erase(const Ipv4Prefix& prefix) {
    Node* node = descend(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find_exact(const Ipv4Prefix& prefix) const {
    const Node* node = descend(prefix);
    return node != nullptr && node->value ? &*node->value : nullptr;
  }

  /// Mutable exact-match lookup.
  [[nodiscard]] T* find_exact(const Ipv4Prefix& prefix) {
    Node* node = descend(prefix);
    return node != nullptr && node->value ? &*node->value : nullptr;
  }

  /// Longest-prefix-match: most specific entry covering `ip`, or nullptr.
  [[nodiscard]] const T* match(Ipv4Address ip) const {
    const Node* node = root_.get();
    const T* best = node->value ? &*node->value : nullptr;
    const std::uint32_t bits = ip.value();
    for (int depth = 0; depth < 32 && node != nullptr; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node != nullptr && node->value) best = &*node->value;
    }
    return best;
  }

  /// All entries whose prefix covers `ip`, least specific first.
  [[nodiscard]] std::vector<std::pair<Ipv4Prefix, const T*>> match_all(
      Ipv4Address ip) const {
    std::vector<std::pair<Ipv4Prefix, const T*>> out;
    const Node* node = root_.get();
    if (node->value) out.emplace_back(Ipv4Prefix(Ipv4Address(0), 0), &*node->value);
    const std::uint32_t bits = ip.value();
    std::uint32_t accum = 0;
    for (int depth = 0; depth < 32 && node != nullptr; ++depth) {
      const std::uint32_t bit = (bits >> (31 - depth)) & 1;
      accum |= bit << (31 - depth);
      node = node->child[bit].get();
      if (node != nullptr && node->value) {
        out.emplace_back(
            Ipv4Prefix(Ipv4Address(accum), static_cast<std::uint8_t>(depth + 1)),
            &*node->value);
      }
    }
    return out;
  }

  /// Visits every (prefix, value) pair in preorder.
  template <typename Visitor>
  void visit(Visitor&& visitor) const {
    visit_node(root_.get(), 0, 0, visitor);
  }

  /// All stored entries, sorted by (address, length) preorder.
  [[nodiscard]] std::vector<std::pair<Ipv4Prefix, T>> entries() const {
    std::vector<std::pair<Ipv4Prefix, T>> out;
    out.reserve(size_);
    visit([&](const Ipv4Prefix& p, const T& v) { out.emplace_back(p, v); });
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Removes all entries.
  void clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> child[2];
  };

  [[nodiscard]] Node* descend_or_create(const Ipv4Prefix& prefix) {
    Node* node = root_.get();
    const std::uint32_t bits = prefix.address().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
      node = node->child[bit].get();
    }
    return node;
  }

  [[nodiscard]] const Node* descend(const Ipv4Prefix& prefix) const {
    const Node* node = root_.get();
    const std::uint32_t bits = prefix.address().value();
    for (int depth = 0; depth < prefix.length() && node != nullptr; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      node = node->child[bit].get();
    }
    return node;
  }

  [[nodiscard]] Node* descend(const Ipv4Prefix& prefix) {
    return const_cast<Node*>(std::as_const(*this).descend(prefix));
  }

  template <typename Visitor>
  static void visit_node(const Node* node, std::uint32_t accum, int depth,
                         Visitor& visitor) {
    if (node == nullptr) return;
    if (node->value) {
      visitor(Ipv4Prefix(Ipv4Address(accum), static_cast<std::uint8_t>(depth)),
              *node->value);
    }
    if (depth == 32) return;
    visit_node(node->child[0].get(), accum, depth + 1, visitor);
    visit_node(node->child[1].get(), accum | (1U << (31 - depth)), depth + 1,
               visitor);
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace scrubber::net
