#include "arm/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace scrubber::arm {
namespace {

Item item(Attribute a, int v) { return Item(a, static_cast<std::uint32_t>(v)); }

MinedRule make_rule(std::vector<Item> antecedent, double confidence,
                    double support) {
  std::sort(antecedent.begin(), antecedent.end());
  MinedRule rule;
  rule.antecedent = std::move(antecedent);
  rule.consequent = kBlackholeItem;
  rule.confidence = confidence;
  rule.support = support;
  return rule;
}

net::FlowRecord ntp_flow() {
  net::FlowRecord f;
  f.protocol = 17;
  f.src_port = 123;
  f.dst_port = 44321;
  f.packets = 2;
  f.bytes = 936;
  return f;
}

TEST(RuleId, StableAndDistinct) {
  const auto a = rule_id({item(Attribute::kSrcPort, 123)});
  const auto b = rule_id({item(Attribute::kSrcPort, 123)});
  const auto c = rule_id({item(Attribute::kSrcPort, 53)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 8u);  // 8 hex chars, as in the paper's UI
}

TEST(KeepBlackholeConsequent, FiltersOtherConsequents) {
  std::vector<MinedRule> rules;
  rules.push_back(make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1));
  MinedRule other = make_rule({item(Attribute::kProtocol, 17)}, 0.9, 0.1);
  other.consequent = item(Attribute::kSrcPort, 123);  // not {blackhole}
  rules.push_back(other);
  const auto kept = keep_blackhole_consequent(std::move(rules));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].consequent, kBlackholeItem);
}

TEST(MinimizeRules, RemovesGeneralRuleWithinLoss) {
  // A_i = {proto} subset of A_j = {proto, port}; nearly equal metrics.
  std::vector<MinedRule> rules;
  rules.push_back(make_rule({item(Attribute::kProtocol, 17)}, 0.90, 0.100));
  rules.push_back(make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.895,
      0.095));
  const auto minimized = minimize_rules(std::move(rules), 0.01, 0.01);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].antecedent.size(), 2u);  // the specific rule survives
}

TEST(MinimizeRules, KeepsRuleWhenLossTooHigh) {
  std::vector<MinedRule> rules;
  // The general rule has much higher confidence: removing it would lose
  // more than L_c, so both stay.
  rules.push_back(make_rule({item(Attribute::kProtocol, 17)}, 0.99, 0.100));
  rules.push_back(make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.90,
      0.095));
  const auto minimized = minimize_rules(std::move(rules), 0.01, 0.01);
  EXPECT_EQ(minimized.size(), 2u);
}

TEST(MinimizeRules, SupportLossAloneBlocksRemoval) {
  std::vector<MinedRule> rules;
  rules.push_back(make_rule({item(Attribute::kProtocol, 17)}, 0.90, 0.500));
  rules.push_back(make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.90,
      0.010));
  const auto minimized = minimize_rules(std::move(rules), 0.01, 0.01);
  EXPECT_EQ(minimized.size(), 2u);
}

TEST(MinimizeRules, ChainCollapsesTransitively) {
  // {a} < {a,b} < {a,b,c} with near-identical metrics: only the most
  // specific should remain after iterating to a fixpoint.
  std::vector<MinedRule> rules;
  rules.push_back(make_rule({item(Attribute::kProtocol, 17)}, 0.900, 0.10));
  rules.push_back(make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.899,
      0.099));
  rules.push_back(make_rule({item(Attribute::kProtocol, 17),
                             item(Attribute::kSrcPort, 123),
                             item(Attribute::kPacketSize, 4)},
                            0.898, 0.098));
  const auto minimized = minimize_rules(std::move(rules), 0.01, 0.01);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].antecedent.size(), 3u);
}

TEST(MinimizeRules, UnrelatedRulesUntouched) {
  std::vector<MinedRule> rules;
  rules.push_back(make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1));
  rules.push_back(make_rule({item(Attribute::kSrcPort, 53)}, 0.9, 0.1));
  const auto minimized = minimize_rules(std::move(rules), 0.01, 0.01);
  EXPECT_EQ(minimized.size(), 2u);
}

TEST(MinimizeRules, ZeroLossRemovesStrictlyRedundantOnly) {
  std::vector<MinedRule> rules;
  // Specific rule strictly better: general one removed even at L = 0+eps.
  rules.push_back(make_rule({item(Attribute::kProtocol, 17)}, 0.90, 0.10));
  rules.push_back(make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.95,
      0.12));
  const auto minimized = minimize_rules(std::move(rules), 1e-9, 1e-9);
  ASSERT_EQ(minimized.size(), 1u);
}

TEST(TaggingRule, MatchesSubsetsOfHeaderItems) {
  const Itemizer itemizer;
  TaggingRule rule;
  rule.rule = make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.9, 0.1);
  EXPECT_TRUE(rule.matches(itemizer.itemize_header(ntp_flow())));
  net::FlowRecord dns = ntp_flow();
  dns.src_port = 53;
  EXPECT_FALSE(rule.matches(itemizer.itemize_header(dns)));
}

TEST(TaggingRule, AntecedentString) {
  TaggingRule rule;
  rule.rule = make_rule(
      {item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123)}, 0.9, 0.1);
  const std::string s = rule.antecedent_string();
  EXPECT_NE(s.find("protocol=17"), std::string::npos);
  EXPECT_NE(s.find("port_src=123"), std::string::npos);
}

TEST(RuleSet, FromMinedStartsInStaging) {
  const std::vector<MinedRule> mined{
      make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1)};
  const RuleSet set = RuleSet::from_mined(mined);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.rules()[0].status, RuleStatus::kStaging);
  EXPECT_FALSE(set.rules()[0].id.empty());
}

TEST(RuleSet, AddRejectsDuplicateIds) {
  RuleSet set;
  TaggingRule rule;
  rule.id = "deadbeef";
  rule.rule = make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1);
  EXPECT_TRUE(set.add(rule));
  EXPECT_FALSE(set.add(rule));
  EXPECT_EQ(set.size(), 1u);
}

TEST(RuleSet, MergeKeepsExistingCuration) {
  RuleSet curated;
  TaggingRule rule;
  rule.id = rule_id({item(Attribute::kSrcPort, 123)});
  rule.rule = make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1);
  rule.status = RuleStatus::kAccepted;
  rule.note = "NTP reflection";
  curated.add(rule);

  // Fresh mining produced the same rule (staging) plus a new one.
  RuleSet fresh = RuleSet::from_mined(
      {make_rule({item(Attribute::kSrcPort, 123)}, 0.91, 0.11),
       make_rule({item(Attribute::kSrcPort, 53)}, 0.95, 0.2)});
  const std::size_t added = curated.merge(fresh);
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(curated.size(), 2u);
  EXPECT_EQ(curated.rules()[0].status, RuleStatus::kAccepted);  // kept
  EXPECT_EQ(curated.rules()[0].note, "NTP reflection");
}

TEST(RuleSet, MatchingAcceptedOnly) {
  const Itemizer itemizer;
  RuleSet set = RuleSet::from_mined(
      {make_rule({item(Attribute::kSrcPort, 123)}, 0.9, 0.1),
       make_rule({item(Attribute::kProtocol, 17)}, 0.85, 0.3)});
  // Nothing accepted yet.
  EXPECT_TRUE(set.matching_accepted(ntp_flow(), itemizer).empty());
  EXPECT_FALSE(set.any_accepted_match(ntp_flow(), itemizer));
  set.rules()[0].status = RuleStatus::kAccepted;
  const auto tags = set.matching_accepted(ntp_flow(), itemizer);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 0u);
  EXPECT_TRUE(set.any_accepted_match(ntp_flow(), itemizer));
}

TEST(RuleSet, JsonRoundTrip) {
  RuleSet set = RuleSet::from_mined(
      {make_rule({item(Attribute::kProtocol, 17), item(Attribute::kSrcPort, 123),
                  item(Attribute::kPacketSize, 4),
                  item(Attribute::kDstPortOther, 0)},
                 0.97601, 0.02598)});
  set.rules()[0].status = RuleStatus::kAccepted;
  set.rules()[0].note = "NTP reflection with typical size";

  const std::string text = set.to_json().dump(2);
  const RuleSet restored = RuleSet::from_json(util::Json::parse(text));
  ASSERT_EQ(restored.size(), 1u);
  const TaggingRule& rule = restored.rules()[0];
  EXPECT_EQ(rule.id, set.rules()[0].id);
  EXPECT_EQ(rule.rule.antecedent, set.rules()[0].rule.antecedent);
  EXPECT_EQ(rule.status, RuleStatus::kAccepted);
  EXPECT_EQ(rule.note, "NTP reflection with typical size");
  EXPECT_NEAR(rule.rule.confidence, 0.97601, 1e-9);
}

TEST(RuleSet, JsonRejectsUnknownStatus) {
  const std::string text = R"([{"id":"x","antecedent":["protocol=17"],
    "consequent":"blackhole","confidence":0.9,"antecedent_support":0.1,
    "rule_status":"bogus","notes":""}])";
  EXPECT_THROW(RuleSet::from_json(util::Json::parse(text)), util::JsonError);
}

TEST(RuleStatusNames, RoundTrip) {
  for (const RuleStatus status :
       {RuleStatus::kStaging, RuleStatus::kAccepted, RuleStatus::kDeclined}) {
    EXPECT_EQ(rule_status_from(rule_status_name(status)), status);
  }
  EXPECT_FALSE(rule_status_from("nope").has_value());
}

}  // namespace
}  // namespace scrubber::arm
