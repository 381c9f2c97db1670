// Self-test for tools/scrubber-lint: runs the real binary over fixture
// trees and checks that each rule fires exactly where the fixtures say it
// should — and nowhere else. Expectations live inline in the fixtures as
// `EXPECT-LINT: rule-a, rule-b` comment markers on the offending line, so
// adding a rule case means adding one fixture line, not editing this file.
//
// The comparison is exact in both directions: a diagnostic without a
// marker is a false positive, a marker without a diagnostic is a false
// negative. Both fail.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

// (relative path, line, rule-id)
using Key = std::tuple<std::string, int, std::string>;

struct LintRun {
  int exit_code = -1;
  std::vector<std::string> lines;
};

/// Runs scrubber-lint with the given arguments, capturing stdout lines.
LintRun run_lint(const std::string& args) {
  const std::string command =
      std::string(SCRUBBER_LINT_BIN) + " " + args + " 2>/dev/null";
  LintRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::string current;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    current += buffer;
    while (true) {
      const auto newline = current.find('\n');
      if (newline == std::string::npos) break;
      run.lines.push_back(current.substr(0, newline));
      current.erase(0, newline + 1);
    }
  }
  if (!current.empty()) run.lines.push_back(current);
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Parses one `file:line: rule message` diagnostic into a Key.
bool parse_diagnostic(const std::string& line, Key& out) {
  const auto first = line.find(':');
  if (first == std::string::npos) return false;
  const auto second = line.find(':', first + 1);
  if (second == std::string::npos) return false;
  int line_number = 0;
  try {
    line_number = std::stoi(line.substr(first + 1, second - first - 1));
  } catch (...) {
    return false;
  }
  auto rule_begin = line.find_first_not_of(' ', second + 1);
  if (rule_begin == std::string::npos) return false;
  auto rule_end = line.find(' ', rule_begin);
  if (rule_end == std::string::npos) rule_end = line.size();
  out = Key{line.substr(0, first), line_number,
            line.substr(rule_begin, rule_end - rule_begin)};
  return true;
}

std::set<Key> actual_diagnostics(const LintRun& run) {
  std::set<Key> out;
  for (const std::string& line : run.lines) {
    Key key;
    EXPECT_TRUE(parse_diagnostic(line, key)) << "unparsable line: " << line;
    if (parse_diagnostic(line, key)) out.insert(key);
  }
  return out;
}

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

/// Collects every `EXPECT-LINT: rule[, rule...]` marker under `root`.
std::set<Key> expected_diagnostics(const fs::path& root) {
  std::set<Key> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel = fs::relative(entry.path(), root).generic_string();
    std::ifstream in(entry.path());
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      const auto marker = line.find("EXPECT-LINT:");
      if (marker == std::string::npos) continue;
      std::string list = line.substr(marker + std::string("EXPECT-LINT:").size());
      // Markers inside block comments carry a trailing `*/`.
      if (const auto close = list.find("*/"); close != std::string::npos) {
        list.resize(close);
      }
      std::stringstream stream(list);
      std::string rule;
      while (std::getline(stream, rule, ',')) {
        rule = trim(rule);
        if (!rule.empty()) out.insert(Key{rel, line_number, rule});
      }
    }
  }
  return out;
}

std::string fixtures(const char* tree) {
  return (fs::path(SCRUBBER_LINT_FIXTURES) / tree).string();
}

TEST(ScrubberLint, ListRulesNamesEveryRule) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  const std::set<std::string> rules(run.lines.begin(), run.lines.end());
  for (const char* rule :
       {"scrubber-memory-order", "scrubber-hot-path-blocking",
        "scrubber-hot-path-alloc", "scrubber-hot-path-container",
        "scrubber-raw-rand",
        "scrubber-raw-thread", "scrubber-float-counter",
        "scrubber-naked-new", "scrubber-include-guard",
        "scrubber-banned-construct", "scrubber-nolint-needs-reason",
        "scrubber-transitive", "scrubber-deterministic",
        "scrubber-layering", "scrubber-stale-nolint",
        "scrubber-simd-isolation", "scrubber-unreferenced"}) {
    EXPECT_TRUE(rules.count(rule) > 0) << "missing rule id: " << rule;
  }
}

TEST(ScrubberLint, BadFixturesFireExactlyWhereExpected) {
  const LintRun run = run_lint("--root " + fixtures("bad") + " src");
  EXPECT_EQ(run.exit_code, 1) << "violations must produce exit status 1";

  const std::set<Key> actual = actual_diagnostics(run);
  const std::set<Key> expected = expected_diagnostics(fixtures("bad"));
  ASSERT_FALSE(expected.empty()) << "fixture markers failed to parse";

  for (const Key& key : expected) {
    EXPECT_TRUE(actual.count(key) > 0)
        << "false negative: expected " << std::get<2>(key) << " at "
        << std::get<0>(key) << ":" << std::get<1>(key);
  }
  for (const Key& key : actual) {
    EXPECT_TRUE(expected.count(key) > 0)
        << "false positive: unexpected " << std::get<2>(key) << " at "
        << std::get<0>(key) << ":" << std::get<1>(key);
  }
}

TEST(ScrubberLint, CleanFixturesAreSilent) {
  const LintRun run = run_lint("--root " + fixtures("clean") + " src");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.lines.empty())
      << "first unexpected diagnostic: " << run.lines.front();
}

TEST(ScrubberLint, RuleFilterRestrictsOutput) {
  const LintRun run = run_lint("--root " + fixtures("bad") +
                               " --rule scrubber-raw-rand src");
  EXPECT_EQ(run.exit_code, 1);
  const std::set<Key> actual = actual_diagnostics(run);
  EXPECT_FALSE(actual.empty());
  for (const Key& key : actual) {
    EXPECT_EQ(std::get<2>(key), "scrubber-raw-rand");
  }
}

TEST(ScrubberLint, MissingTargetIsUsageError) {
  const LintRun run =
      run_lint("--root " + fixtures("bad") + " no/such/dir");
  EXPECT_EQ(run.exit_code, 2);
}

}  // namespace
