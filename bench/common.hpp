#pragma once
// Shared machinery for the experiment harnesses (one binary per table /
// figure of the paper; see DESIGN.md §3). Every harness is deterministic:
// all randomness flows from fixed seeds.

#include <sys/utsname.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/balancer.hpp"
#include "core/scrubber.hpp"
#include "flowgen/generator.hpp"
#include "ml/metrics.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace scrubber::bench {

#ifdef SCRUBBER_SOURCE_DIR
/// Commit SHA of the tree this binary benchmarks, queried from git at run
/// time so it never goes stale between configure and run. "unknown" when
/// git or the work tree is unavailable (e.g. a tarball build).
inline std::string git_sha() {
  const std::string command =
      "git -C \"" SCRUBBER_SOURCE_DIR "\" rev-parse --short=12 HEAD "
      "2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::array<char, 64> buffer{};
  std::string out;
  if (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) !=
      nullptr) {
    out = buffer.data();
  }
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Provenance block of every bench's run metadata: which commit and which
/// build produced these numbers. A checked or sanitized build is
/// measurable but NOT comparable with the Release trajectory; trajectory
/// tooling filters on these fields.
inline void set_provenance(util::Json& out) {
  out.set("git_sha", git_sha());
  out.set("build_type", SCRUBBER_BUILD_TYPE);
  out.set("cxx_flags", SCRUBBER_CXX_FLAGS);
  out.set("compiler", SCRUBBER_COMPILER);
  out.set("checked", SCRUBBER_OPT_CHECKED != 0);
  out.set("sanitize", SCRUBBER_OPT_SANITIZE);
  // Machine provenance: core count bounds every parallelism claim (rows
  // with shards > cores are advisory) and the kernel version pins syscall
  // behavior the wire path depends on (recvmmsg, SO_RXQ_OVFL).
  out.set("hardware_concurrency",
          static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  utsname kernel{};
  out.set("kernel", ::uname(&kernel) == 0
                        ? std::string(kernel.sysname) + " " + kernel.release
                        : "unknown");
  // CPU/SIMD provenance: inference numbers from a scalar-dispatch run
  // (old CPU, or a SCRUBBER_AVX2=OFF build) must never be compared
  // against vector-kernel rows, and trajectory tooling needs to see
  // which case this was. cpu_* report the machine, simd_compiled_avx2
  // the build, simd_level what actually dispatched.
  out.set("cpu_avx2", util::cpu_has_avx2());
  out.set("cpu_fma", util::cpu_has_fma());
  out.set("simd_compiled_avx2", util::simd_compiled_avx2());
  out.set("simd_level", util::simd_level_name(util::simd_level()));
}
#endif  // SCRUBBER_SOURCE_DIR

/// Parses `--train-threads N` / `--train-threads=N` (0 or absent means
/// hardware_concurrency), configures the shared learning-plane pool, and
/// returns the effective thread count. Training-heavy benches call this
/// before any fit/mine work and record the result in their JSON output.
inline unsigned configure_train_threads(int argc, char** argv) {
  unsigned requested = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--train-threads=", 16) == 0) {
      requested = static_cast<unsigned>(std::strtoul(arg + 16, nullptr, 10));
    } else if (std::strcmp(arg, "--train-threads") == 0 && i + 1 < argc) {
      requested = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  return util::set_training_threads(requested);
}

/// Result of generating + online-balancing a traffic slice.
struct BalancedTrace {
  std::string site;
  std::vector<net::FlowRecord> flows;           ///< balanced flows
  core::BalanceTotals totals;                   ///< Table 2 numbers
  std::vector<core::MinuteBalanceStats> minutes;///< Fig 3a/3c inputs
};

/// Generates `minutes` of traffic for `profile` and balances it online.
inline BalancedTrace make_balanced(const flowgen::IxpProfile& profile,
                                   std::uint64_t seed, std::uint32_t start,
                                   std::uint32_t minutes,
                                   flowgen::TrafficGenerator::Labeling labeling =
                                       flowgen::TrafficGenerator::Labeling::
                                           kBlackholeRegistry) {
  flowgen::TrafficGenerator gen(profile, seed);
  core::Balancer balancer(seed ^ 0xBA1A);
  gen.generate_stream(start, minutes, labeling,
                      [&](std::uint32_t m, std::span<const net::FlowRecord> f) {
                        balancer.add_minute(m, f);
                      });
  BalancedTrace out;
  out.site = profile.name;
  out.minutes = balancer.minute_stats();
  out.totals = balancer.totals();
  out.flows = balancer.take_balanced();
  return out;
}

/// Standard train/test split of an aggregated dataset (2/3 - 1/3, §6.1).
struct Split {
  core::AggregatedDataset train;
  core::AggregatedDataset test;
};

inline Split split_23(const core::AggregatedDataset& data, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto [train_idx, test_idx] = data.data.split_indices(2.0 / 3.0, rng);
  return Split{data.subset(train_idx), data.subset(test_idx)};
}

/// F_beta=0.5 of predictions against dataset labels.
inline double fbeta(const core::AggregatedDataset& data,
                    const std::vector<int>& predictions) {
  return ml::evaluate(data.data.labels(), predictions).f_beta(0.5);
}

/// Operator-grade curation used by the evaluation benches: accept rules
/// with confidence >= 0.9 and >= 3 antecedent items, then decline any rule
/// that pins neither a reflector source port nor fragments (the §5.1.3
/// operators' domain knowledge). Returns the number of accepted rules.
inline std::size_t curate_rules(arm::RuleSet& rules) {
  core::accept_rules_above(rules, 0.9, 0.0, /*min_items=*/3);
  std::size_t accepted = 0;
  for (auto& rule : rules.rules()) {
    if (rule.status != arm::RuleStatus::kAccepted) continue;
    bool pinned = false;
    for (const arm::Item item : rule.rule.antecedent) {
      pinned |= item.attribute() == arm::Attribute::kSrcPort ||
                item.attribute() == arm::Attribute::kFragment;
    }
    if (pinned) {
      ++accepted;
    } else {
      rule.status = arm::RuleStatus::kDeclined;
    }
  }
  return accepted;
}

/// Optimization barrier for timing loops: keeps a computed value alive
/// without `volatile` (banned by scrubber-lint — it reads like
/// synchronization) and without perturbing the measured loop. The relaxed
/// atomic store is a couple of cycles amortized over hundreds of
/// predictions.
inline void keep_alive(long long value) noexcept {
  static std::atomic<long long> sink{0};
  sink.store(value, std::memory_order_relaxed);
}

/// Prints a section header for a reproduced table/figure.
inline void print_header(const char* experiment_id, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("================================================================\n");
}

/// Prints the paper-vs-measured footnote used by EXPERIMENTS.md.
inline void print_expectation(const char* text) {
  std::printf("expected shape (paper): %s\n\n", text);
}

}  // namespace scrubber::bench
