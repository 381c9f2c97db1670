#include "arm/rules.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "util/rng.hpp"

namespace scrubber::arm {
namespace {

/// Parses an item from its to_string() form (inverse of Item::to_string).
std::optional<Item> item_from_string(std::string_view text) {
  const auto eq = text.find('=');
  const std::string_view key = text.substr(0, eq);
  const std::string_view val =
      eq == std::string_view::npos ? std::string_view{} : text.substr(eq + 1);
  auto parse_value = [&]() -> std::uint32_t {
    std::uint32_t v = 0;
    for (const char c : val) {
      if (c < '0' || c > '9') break;
      v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    return v;
  };
  if (key == "blackhole") return kBlackholeItem;
  if (key == "fragment") return Item(Attribute::kFragment, 1);
  if (key == "protocol") return Item(Attribute::kProtocol, parse_value());
  if (key == "port_src") {
    if (!val.empty() && val.front() == '~') return Item(Attribute::kSrcPortOther, 0);
    return Item(Attribute::kSrcPort, parse_value());
  }
  if (key == "port_dst") {
    if (!val.empty() && val.front() == '~') return Item(Attribute::kDstPortOther, 0);
    return Item(Attribute::kDstPort, parse_value());
  }
  if (key == "packet_size") {
    // "(400,500]" -> bucket 4.
    if (val.size() < 2 || val.front() != '(') return std::nullopt;
    std::uint32_t lo = 0;
    for (std::size_t i = 1; i < val.size() && val[i] >= '0' && val[i] <= '9'; ++i)
      lo = lo * 10 + static_cast<std::uint32_t>(val[i] - '0');
    return Item(Attribute::kPacketSize, lo / kPacketSizeBucket);
  }
  return std::nullopt;
}

}  // namespace

std::string_view rule_status_name(RuleStatus status) noexcept {
  switch (status) {
    case RuleStatus::kStaging: return "staging";
    case RuleStatus::kAccepted: return "accept";
    case RuleStatus::kDeclined: return "decline";
  }
  return "?";
}

std::optional<RuleStatus> rule_status_from(std::string_view name) noexcept {
  if (name == "staging") return RuleStatus::kStaging;
  if (name == "accept") return RuleStatus::kAccepted;
  if (name == "decline") return RuleStatus::kDeclined;
  return std::nullopt;
}

bool TaggingRule::matches(const Transaction& header_items) const {
  // Antecedents and header items are sorted; subset check via includes.
  // The blackhole item never appears in header items, so a rule whose
  // antecedent accidentally contains it can never match.
  return std::includes(header_items.begin(), header_items.end(),
                       rule.antecedent.begin(), rule.antecedent.end());
}

std::string TaggingRule::antecedent_string() const {
  std::string out;
  for (const Item item : rule.antecedent) {
    if (!out.empty()) out += " ";
    out += item.to_string();
  }
  return out;
}

std::string rule_id(const std::vector<Item>& antecedent) {
  std::uint64_t h = 0x9d39f1a2b4c5d6e7ULL;
  for (const Item item : antecedent) {
    h = util::mix64(h ^ item.packed());
  }
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", static_cast<std::uint32_t>(h));
  return buf;
}

std::vector<MinedRule> keep_blackhole_consequent(std::vector<MinedRule> rules) {
  std::erase_if(rules, [](const MinedRule& rule) {
    return rule.consequent != kBlackholeItem;
  });
  return rules;
}

std::vector<MinedRule> minimize_rules(std::vector<MinedRule> rules,
                                      double loss_confidence,
                                      double loss_support) {
  // Algorithm 1: iterate pairwise until no more rules are dispensable.
  while (true) {
    std::vector<bool> remove(rules.size(), false);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (remove[i]) continue;
      for (std::size_t j = 0; j < rules.size(); ++j) {
        if (i == j || remove[j]) continue;
        const auto& a_i = rules[i].antecedent;
        const auto& a_j = rules[j].antecedent;
        // A_i must be a *proper* subset of A_j.
        if (a_i.size() >= a_j.size()) continue;
        if (!std::includes(a_j.begin(), a_j.end(), a_i.begin(), a_i.end()))
          continue;
        const bool confidence_ok =
            rules[i].confidence - rules[j].confidence < loss_confidence;
        const bool support_ok = rules[i].support - rules[j].support < loss_support;
        if (confidence_ok && support_ok) {
          remove[i] = true;
          break;
        }
      }
    }
    bool any = false;
    for (const bool r : remove) any = any || r;
    if (!any) break;
    std::vector<MinedRule> kept;
    kept.reserve(rules.size());
    for (std::size_t k = 0; k < rules.size(); ++k) {
      if (!remove[k]) kept.push_back(std::move(rules[k]));
    }
    rules = std::move(kept);
  }
  return rules;
}

RuleSet RuleSet::from_mined(const std::vector<MinedRule>& rules) {
  RuleSet out;
  for (const auto& rule : rules) {
    TaggingRule tagged;
    tagged.id = rule_id(rule.antecedent);
    tagged.rule = rule;
    tagged.status = RuleStatus::kStaging;
    out.add(std::move(tagged));
  }
  return out;
}

bool RuleSet::add(TaggingRule rule) {
  for (const auto& existing : rules_) {
    if (existing.id == rule.id) return false;
  }
  rules_.push_back(std::move(rule));
  return true;
}

std::size_t RuleSet::merge(const RuleSet& other) {
  std::size_t added = 0;
  for (const auto& rule : other.rules_) {
    if (add(rule)) ++added;
  }
  return added;
}

std::vector<std::uint32_t> RuleSet::matching_accepted(
    const net::FlowRecord& flow, const Itemizer& itemizer) const {
  const Transaction header = itemizer.itemize_header(flow);
  std::vector<std::uint32_t> out;
  for (std::uint32_t k = 0; k < rules_.size(); ++k) {
    if (rules_[k].status == RuleStatus::kAccepted && rules_[k].matches(header))
      out.push_back(k);
  }
  return out;
}

bool RuleSet::any_accepted_match(const net::FlowRecord& flow,
                                 const Itemizer& itemizer) const {
  const Transaction header = itemizer.itemize_header(flow);
  for (const auto& rule : rules_) {
    if (rule.status == RuleStatus::kAccepted && rule.matches(header)) return true;
  }
  return false;
}

util::Json RuleSet::to_json() const {
  util::JsonArray out;
  out.reserve(rules_.size());
  for (const auto& rule : rules_) {
    util::Json entry;
    entry.set("id", util::Json(rule.id));
    util::JsonArray antecedent;
    for (const Item item : rule.rule.antecedent)
      antecedent.emplace_back(item.to_string());
    entry.set("antecedent", util::Json(std::move(antecedent)));
    entry.set("consequent", util::Json(rule.rule.consequent.to_string()));
    entry.set("confidence", util::Json(rule.rule.confidence));
    entry.set("antecedent_support", util::Json(rule.rule.support));
    entry.set("rule_status", util::Json(std::string(rule_status_name(rule.status))));
    entry.set("notes", util::Json(rule.note));
    out.push_back(std::move(entry));
  }
  return util::Json(std::move(out));
}

RuleSet RuleSet::from_json(const util::Json& json) {
  RuleSet out;
  for (const auto& entry : json.as_array()) {
    TaggingRule rule;
    rule.id = entry.at("id").as_string();
    for (const auto& item_text : entry.at("antecedent").as_array()) {
      const auto item = item_from_string(item_text.as_string());
      if (!item) throw util::JsonError("unparsable item: " + item_text.as_string());
      rule.rule.antecedent.push_back(*item);
    }
    std::sort(rule.rule.antecedent.begin(), rule.rule.antecedent.end());
    const auto consequent = item_from_string(entry.at("consequent").as_string());
    if (!consequent) throw util::JsonError("unparsable consequent");
    rule.rule.consequent = *consequent;
    rule.rule.confidence = entry.at("confidence").as_number();
    rule.rule.support = entry.at("antecedent_support").as_number();
    const auto status = rule_status_from(entry.at("rule_status").as_string());
    if (!status) throw util::JsonError("unknown rule status");
    rule.status = *status;
    if (const auto* note = entry.find("notes")) rule.note = note->as_string();
    out.add(std::move(rule));
  }
  return out;
}

}  // namespace scrubber::arm
