// scrubberctl — file-based command-line workflow around the library.
//
//   scrubberctl generate --profile us1 --minutes 1440 --out flows.bin
//   scrubberctl balance  --in raw.bin --out flows.bin
//   scrubberctl mine     --flows flows.bin --accept 0.9 --out rules.json
//   scrubberctl train    --flows flows.bin --rules rules.json --model xgb
//                        --out model.json
//   scrubberctl classify --flows flows.bin --model model.json
//                        [--rules rules.json] [--explain 3]
//   scrubberctl acl      --rules rules.json
//
// Flow files use the library's binary format (net::write_flows); rules and
// models are the JSON interchange formats of arm::RuleSet / ml::model_io.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "args.hpp"
#include "core/balancer.hpp"
#include "core/acl.hpp"
#include "core/explain.hpp"
#include "core/scrubber.hpp"
#include "flowgen/generator.hpp"
#include "ml/model_io.hpp"

namespace {

using namespace scrubber;
using tools::Args;

flowgen::IxpProfile profile_by_name(const std::string& name) {
  for (const auto& profile : flowgen::all_ixp_profiles()) {
    std::string lowered = profile.name;  // "IXP-US1" -> accept "us1"
    for (auto& c : lowered) c = static_cast<char>(std::tolower(c));
    if (lowered == "ixp-" + name || lowered == name) return profile;
  }
  if (name == "sas") return flowgen::self_attack_profile();
  throw std::runtime_error("unknown profile: " + name +
                           " (use ce1/us1/se/us2/ce2/sas)");
}

std::vector<net::FlowRecord> read_flow_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return net::read_flows(in);
}

void write_flow_file(const std::string& path,
                     const std::vector<net::FlowRecord>& flows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  net::write_flows(out, flows);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << text;
}

ml::ModelKind model_by_name(const std::string& name) {
  for (const ml::ModelKind kind : ml::all_model_kinds()) {
    std::string lowered(ml::model_kind_name(kind));
    for (auto& c : lowered) c = static_cast<char>(std::tolower(c));
    if (lowered == name) return kind;
  }
  throw std::runtime_error("unknown model: " + name +
                           " (use xgb/dt/nn/lsvm/nb-g/dum)");
}

// ---------------------------------------------------------------------------

int cmd_generate(int argc, char** argv) {
  const Args args(argc, argv, 2,
                  {"out", "profile", "seed", "minutes", "start", "balanced",
                   "ground-truth"});
  const auto profile = profile_by_name(args.get("profile", "us1"));
  const auto seed = args.number("seed", 42);
  const auto minutes = static_cast<std::uint32_t>(args.number("minutes", 1440));
  const auto start = static_cast<std::uint32_t>(args.number("start", 0));
  const bool balanced = args.get("balanced", "true") != "false";
  const bool ground_truth = args.get("ground-truth", "false") == "true";
  const std::string out_path = args.require("out");

  flowgen::TrafficGenerator generator(profile, seed);
  const auto labeling = ground_truth
                            ? flowgen::TrafficGenerator::Labeling::kGroundTruth
                            : flowgen::TrafficGenerator::Labeling::kBlackholeRegistry;
  std::vector<net::FlowRecord> flows;
  core::Balancer balancer(seed ^ 0xBA1A);
  generator.generate_stream(
      start, minutes, labeling,
      [&](std::uint32_t m, std::span<const net::FlowRecord> f) {
        if (balanced) {
          balancer.add_minute(m, f);
        } else {
          flows.insert(flows.end(), f.begin(), f.end());
        }
      });
  if (balanced) flows = balancer.take_balanced();
  write_flow_file(out_path, flows);
  std::printf("%s: %zu flows (%s, profile %s, %u min)\n", out_path.c_str(),
              flows.size(), balanced ? "balanced" : "raw", profile.name.c_str(),
              minutes);
  return 0;
}

int cmd_balance(int argc, char** argv) {
  const Args args(argc, argv, 2, {"in", "out", "seed"});
  const auto flows = read_flow_file(args.require("in"));
  core::BalanceTotals totals;
  const auto balanced =
      core::balance_trace(flows, args.number("seed", 1), &totals);
  write_flow_file(args.require("out"), balanced);
  std::printf("balanced %llu -> %llu flows (blackhole share %.1f%%)\n",
              static_cast<unsigned long long>(totals.raw_flows),
              static_cast<unsigned long long>(totals.balanced_flows),
              totals.blackhole_share() * 100.0);
  return 0;
}

int cmd_mine(int argc, char** argv) {
  const Args args(argc, argv, 2,
                  {"flows", "out", "min-confidence", "min-support", "accept",
                   "min-items"});
  const auto flows = read_flow_file(args.require("flows"));
  core::ScrubberConfig config;
  config.mining.min_confidence = args.real("min-confidence", 0.8);
  config.mining.min_support = args.real("min-support", 0.002);
  core::IxpScrubber scrubber(config);
  std::array<std::size_t, 3> counts{};
  auto rules = scrubber.mine_tagging_rules(flows, &counts);
  const double accept = args.real("accept", 0.0);
  if (accept > 0.0) {
    const auto accepted = core::accept_rules_above(
        rules, accept, 0.0, static_cast<std::size_t>(args.number("min-items", 0)));
    std::printf("auto-accepted %zu rules at confidence >= %.2f\n", accepted,
                accept);
  }
  write_text_file(args.require("out"), rules.to_json().dump(2) + "\n");
  std::printf("mined %zu -> blackhole %zu -> minimized %zu rules -> %s\n",
              counts[0], counts[1], counts[2], args.require("out").c_str());
  return 0;
}

int cmd_train(int argc, char** argv) {
  const Args args(argc, argv, 2, {"flows", "out", "model", "rules"});
  const auto flows = read_flow_file(args.require("flows"));
  core::ScrubberConfig config;
  config.model = model_by_name(args.get("model", "xgb"));
  core::IxpScrubber scrubber(config);
  if (const std::string rules_path = args.get("rules"); !rules_path.empty()) {
    scrubber.set_rules(
        arm::RuleSet::from_json(util::Json::parse(read_text_file(rules_path))));
  }
  const auto dataset = scrubber.aggregate(flows);
  scrubber.train(dataset);
  const auto cm = scrubber.evaluate(dataset);
  std::printf("trained %s on %zu records (train-set %s)\n",
              scrubber.pipeline().describe().c_str(), dataset.size(),
              cm.summary().c_str());
  write_text_file(
      args.require("out"),
      ml::pipeline_to_json(scrubber.pipeline(), dataset.data.n_cols()).dump() +
          "\n");
  std::printf("model -> %s\n", args.require("out").c_str());
  return 0;
}

int cmd_classify(int argc, char** argv) {
  const Args args(argc, argv, 2, {"flows", "model", "rules", "explain"});
  const auto flows = read_flow_file(args.require("flows"));
  core::IxpScrubber scrubber;
  if (const std::string rules_path = args.get("rules"); !rules_path.empty()) {
    scrubber.set_rules(
        arm::RuleSet::from_json(util::Json::parse(read_text_file(rules_path))));
  }
  ml::Pipeline pipeline = ml::pipeline_from_json(
      util::Json::parse(read_text_file(args.require("model"))));
  const auto dataset = scrubber.aggregate(flows);
  const auto predictions = pipeline.predict_all(dataset.data);
  const auto cm = ml::evaluate(dataset.data.labels(), predictions);
  std::printf("%zu records: %s\n", dataset.size(), cm.summary().c_str());

  // Optional: locally explain the first N positive classifications.
  const auto explain_n = static_cast<std::size_t>(args.number("explain", 0));
  if (explain_n > 0) {
    // Reuse the loaded pipeline inside the scrubber for explanation.
    scrubber.pipeline() = std::move(pipeline);
    std::size_t shown = 0;
    for (std::size_t i = 0; i < dataset.size() && shown < explain_n; ++i) {
      if (predictions[i] != 1) continue;
      ++shown;
      std::fputs(core::explain(scrubber, dataset, i, 6).to_string().c_str(),
                 stdout);
    }
  }
  return 0;
}

int cmd_acl(int argc, char** argv) {
  const Args args(argc, argv, 2, {"rules"});
  const auto rules =
      arm::RuleSet::from_json(util::Json::parse(read_text_file(args.require("rules"))));
  std::fputs(core::generate_acl(rules).c_str(), stdout);
  return 0;
}

int usage() {
  std::fputs(
      "usage: scrubberctl <generate|balance|mine|train|classify|acl> [--opt value]...\n"
      "  generate --out F [--profile us1] [--seed 42] [--minutes 1440]\n"
      "           [--start 0] [--balanced true|false] [--ground-truth true]\n"
      "  balance  --in F --out F [--seed 1]\n"
      "  mine     --flows F --out rules.json [--min-confidence 0.8]\n"
      "           [--min-support 0.002] [--accept 0.9] [--min-items 3]\n"
      "  train    --flows F --out model.json [--model xgb] [--rules rules.json]\n"
      "  classify --flows F --model model.json [--rules rules.json] [--explain N]\n"
      "  acl      --rules rules.json\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "balance") return cmd_balance(argc, argv);
    if (command == "mine") return cmd_mine(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    if (command == "classify") return cmd_classify(argc, argv);
    if (command == "acl") return cmd_acl(argc, argv);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scrubberctl %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
