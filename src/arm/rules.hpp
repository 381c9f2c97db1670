#pragma once
// Tagging rules: minimization (Algorithm 1), operator curation workflow
// (accept / staging / decline, Figure 6), flow matching, and the JSON
// interchange format of the paper's released rule list (Appendix F).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arm/fpgrowth.hpp"
#include "net/flow.hpp"
#include "util/json.hpp"

namespace scrubber::arm {

/// Operator review status of a rule (Figure 6 workflow).
enum class RuleStatus : std::uint8_t { kStaging, kAccepted, kDeclined };

[[nodiscard]] std::string_view rule_status_name(RuleStatus status) noexcept;
[[nodiscard]] std::optional<RuleStatus> rule_status_from(std::string_view name) noexcept;

/// A curated tagging rule: a mined rule plus identity and review state.
struct TaggingRule {
  std::string id;          ///< 8-hex-digit stable id (hash of the antecedent)
  MinedRule rule;
  RuleStatus status = RuleStatus::kStaging;
  std::string note;        ///< operator documentation comment

  /// True when the rule's antecedent is contained in the flow's item set.
  [[nodiscard]] bool matches(const Transaction& header_items) const;

  /// Human-readable antecedent, e.g. "protocol=17 port_src=123 ...".
  [[nodiscard]] std::string antecedent_string() const;
};

/// Computes the stable rule id from an antecedent.
[[nodiscard]] std::string rule_id(const std::vector<Item>& antecedent);

/// Drops rules whose consequent is not {blackhole} (§5.1.1 step i).
[[nodiscard]] std::vector<MinedRule> keep_blackhole_consequent(
    std::vector<MinedRule> rules);

/// Algorithm 1 of the paper: removes a rule i whenever its antecedent is a
/// proper subset of another rule j's antecedent and the loss in confidence
/// (c_i - c_j < loss_confidence) and support (s_i - s_j < loss_support) is
/// bounded. Iterates to a fixpoint. O(|R|^2) per round.
[[nodiscard]] std::vector<MinedRule> minimize_rules(std::vector<MinedRule> rules,
                                                    double loss_confidence,
                                                    double loss_support);

/// A curated set of tagging rules with matching and persistence.
class RuleSet {
 public:
  RuleSet() = default;

  /// Wraps mined rules as staging tagging rules.
  static RuleSet from_mined(const std::vector<MinedRule>& rules);

  /// Adds one rule; returns false when a rule with the same id exists
  /// (the existing rule is kept — merge semantics for imports).
  bool add(TaggingRule rule);

  /// Merges another set (e.g. freshly mined rules into a curated set);
  /// existing ids keep their status/notes. Returns number of new rules.
  std::size_t merge(const RuleSet& other);

  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] const std::vector<TaggingRule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::vector<TaggingRule>& rules() noexcept { return rules_; }

  /// Ids of all *accepted* rules matching the flow (the tags preserved
  /// through aggregation). `itemizer` supplies the header itemization.
  [[nodiscard]] std::vector<std::uint32_t> matching_accepted(
      const net::FlowRecord& flow, const Itemizer& itemizer) const;

  /// True when any accepted rule matches the flow.
  [[nodiscard]] bool any_accepted_match(const net::FlowRecord& flow,
                                        const Itemizer& itemizer) const;

  /// Index into rules() by positional rule number (used as compact tag).
  [[nodiscard]] const TaggingRule& rule_at(std::uint32_t index) const {
    return rules_.at(index);
  }

  /// Serializes to the Appendix F-style JSON array.
  [[nodiscard]] util::Json to_json() const;

  /// Parses a rule file produced by to_json(); throws util::JsonError.
  [[nodiscard]] static RuleSet from_json(const util::Json& json);

 private:
  std::vector<TaggingRule> rules_;
};

}  // namespace scrubber::arm
