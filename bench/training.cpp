// Training-plane throughput — wall time of the three heaviest offline
// kernels (GBT fit, FP-Growth rule mining, grid search with 3-fold CV)
// swept over learning-plane thread counts on one seeded flowgen trace.
// This is the scaling baseline for the learning-plane parallelism PR and
// every future training-path change; results land in BENCH_training.json
// so the training-perf trajectory is tracked alongside runtime throughput.
//
// Expectation (multi-core hosts): >= 2x on gbt_train and fpgrowth at 4
// threads vs 1 thread. On a single-core host the pool participants
// serialize and the ratio degenerates to ~1x; rows whose thread count
// exceeds hardware_concurrency carry "advisory": true (and a loud stderr
// warning) so trajectory tooling can tell those runs apart.
//
// Every run is also a correctness probe: the determinism contract says
// every kernel output is bit-identical for any thread count, so each
// swept row re-checks its serialized GBT model, mined rule set, and grid
// winner/scores against the 1-thread reference. Any divergence exits
// non-zero. `--smoke` shrinks the trace and sweeps threads {1, 2} while
// keeping all the assertions — the mode the perf-smoke CI job runs — and
// dumps the per-thread-count model artifacts (training_model_t<N>.json)
// so the job can byte-compare them in-job.
//
// GBT breakdown (per row): alongside the trajectory-comparable cold fit
// (BinCache cleared first), the row times the BinnedMatrix build alone
// (the binning share of a cold fit), warm fits that hit the BinCache
// (the steady-state retraining cost), and the embedded seed engine
// (tests/oracles/gbt_oracle.hpp) on the same data — asserting the production
// model's bytes EQUAL the oracle's, and that the warm fits actually hit
// the cache. The oracle-relative speedups and BinCache counters land in
// BENCH_training.json; like every bench here, speed is recorded, bytes
// are asserted.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "../bench/common.hpp"
#include "../tests/oracles/gbt_oracle.hpp"
#include "arm/fpgrowth.hpp"
#include "arm/item.hpp"
#include "ml/bin_cache.hpp"
#include "ml/binned.hpp"
#include "ml/gbt.hpp"
#include "ml/grid_search.hpp"
#include "ml/model_io.hpp"
#include "ml/pipeline.hpp"
#include "util/json.hpp"

namespace {

using namespace scrubber;

int failures = 0;

/// Determinism check: prints and counts a failure unless `ok`.
void expect_identical(bool ok, unsigned threads, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL determinism: %s differs at %u threads vs 1\n",
               what, threads);
}

/// Generic correctness gate (oracle identity, cache behavior).
void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

/// Canonical text form of a grid-search result: winner plus every
/// {params, score} pair at full precision, for exact comparison.
std::string grid_fingerprint(const ml::GridSearchResult& result) {
  std::string out;
  char buffer[64];
  const auto append_point = [&](const ml::ParamPoint& point) {
    for (const auto& [key, value] : point) {
      std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", key.c_str(), value);
      out += buffer;
    }
  };
  append_point(result.best_params);
  std::snprintf(buffer, sizeof(buffer), "|best=%.17g|", result.best_score);
  out += buffer;
  for (const auto& [point, score] : result.all_scores) {
    append_point(point);
    std::snprintf(buffer, sizeof(buffer), "->%.17g|", score);
    out += buffer;
  }
  return out;
}

/// One kernel's timings per swept thread count.
struct KernelRow {
  double seconds = 0.0;
  bool identical = true;  ///< output byte-identical to the 1-thread run
};

struct SweepRow {
  unsigned threads = 0;
  bool advisory = false;  ///< threads exceed hardware_concurrency
  KernelRow gbt, fpgrowth, grid;
  // GBT breakdown.
  double bin_build_seconds = 0.0;  ///< BinnedMatrix construction alone
  double warm_seconds = 0.0;       ///< per-fit, binning served by BinCache
  double oracle_seconds = 0.0;     ///< embedded seed engine, same data
  bool oracle_identical = true;    ///< model bytes == oracle bytes
  ml::BinCache::Stats cache;       ///< counter deltas across this row
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) return true;
    }
    return false;
  }();
  bench::print_header("Training",
                      "learning-plane throughput (threads x kernel sweep)");
  bench::print_expectation(
      ">= 2x on gbt_train and fpgrowth at 4 threads vs 1 thread on a "
      "multi-core host; >= 2x single-thread GBT fit vs the embedded "
      "seed-engine oracle; bit-identical outputs at every thread count "
      "and vs the oracle");

  // One fixed trace for every configuration: hours of the large IXP-US1
  // feed (minutes of it in --smoke). Aggregated records feed GBT and the
  // grid search; itemized flows feed FP-Growth.
  const std::uint32_t kMinutes = smoke ? 90 : 12 * 60;
  constexpr std::uint64_t kSeed = 4100;
  const auto trace = bench::make_balanced(flowgen::ixp_us1(), kSeed, 0, kMinutes);
  const core::Aggregator aggregator;
  const auto aggregated = aggregator.aggregate(trace.flows);
  const arm::Itemizer itemizer;
  std::vector<arm::Transaction> transactions;
  transactions.reserve(trace.flows.size());
  for (const auto& flow : trace.flows) {
    transactions.push_back(itemizer.itemize(flow));
  }
  std::printf("trace: %zu flows -> %zu records, %zu transactions, %u min%s\n\n",
              trace.flows.size(), aggregated.size(), transactions.size(),
              kMinutes, smoke ? " [smoke]" : "");

  // Thread sweep: {1, 2} in smoke, {1, 2, 4, hardware} otherwise. The
  // `--train-threads` flag appends an extra point so operators can probe
  // their machine's sweet spot; it is parsed by the shared helper, which
  // also configures the pool (re-configured per row below anyway).
  const unsigned requested = bench::configure_train_threads(argc, argv);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> sweep{1, 2};
  if (!smoke) {
    sweep.push_back(4);
    if (std::find(sweep.begin(), sweep.end(), hardware) == sweep.end()) {
      sweep.push_back(hardware);
    }
  }
  if (std::find(sweep.begin(), sweep.end(), requested) == sweep.end()) {
    sweep.push_back(requested);
  }
  std::sort(sweep.begin(), sweep.end());

  ml::GbtParams gbt_params;
  gbt_params.n_estimators = smoke ? 8 : 24;
  gbt_params.max_depth = 6;
  arm::FpGrowthParams fp_params;
  fp_params.min_support = 0.01;
  const auto grid = ml::param_grid(
      {{"n_estimators", {4.0, 8.0}}, {"max_depth", {3.0, 4.0}}});
  const auto grid_factory = [](const ml::ParamPoint& point) {
    ml::GbtParams params;
    params.n_estimators = static_cast<std::size_t>(point.at("n_estimators"));
    params.max_depth = static_cast<std::size_t>(point.at("max_depth"));
    ml::Pipeline p;
    p.set_classifier(std::make_unique<ml::GradientBoostedTrees>(params));
    return p;
  };

  // 1-thread references for the bit-identity checks.
  std::string reference_model, reference_rules, reference_grid;
  std::vector<SweepRow> rows;

  for (const unsigned threads : sweep) {
    SweepRow row;
    row.threads = threads;
    row.advisory = threads > hardware;
    if (row.advisory) {
      std::fprintf(stderr,
                   "WARNING: %u threads on %u hardware threads — pool "
                   "participants serialize, row marked advisory\n",
                   threads, hardware);
    }
    util::set_training_threads(threads);
    ml::BinCache& cache = ml::BinCache::instance();
    cache.clear();
    const ml::BinCache::Stats cache_start = cache.stats();

    // GBT training: cold fit (empty cache — bins the data itself), the
    // trajectory-comparable number.
    util::Stopwatch gbt_sw;
    ml::GradientBoostedTrees model(gbt_params);
    model.fit(aggregated.data);
    row.gbt.seconds = gbt_sw.seconds();
    const std::string serialized = ml::gbt_to_json(model).dump(2);
    if (reference_model.empty()) {
      reference_model = serialized;
    } else {
      row.gbt.identical = serialized == reference_model;
      expect_identical(row.gbt.identical, threads, "serialized GBT model");
    }
    if (smoke) {
      // Per-thread-count artifact for the in-job byte comparison.
      char name[64];
      std::snprintf(name, sizeof(name), "training_model_t%u.json", threads);
      std::ofstream file(name);
      file << serialized << "\n";
    }

    // Binning share of a cold fit: the BinnedMatrix build alone.
    {
      util::Stopwatch bin_sw;
      const ml::BinnedMatrix direct(aggregated.data, gbt_params.max_bins);
      row.bin_build_seconds = bin_sw.seconds();
      bench::keep_alive(static_cast<long long>(
          direct.bin(direct.rows() / 2, direct.cols() / 2)));
    }

    // Warm fits: binning served by the BinCache — the steady-state cost
    // of the retraining loop. Bytes must match the cold fit, and the
    // cache must actually have served each fit.
    constexpr int kWarmReps = 5;
    const ml::BinCache::Stats warm_start = cache.stats();
    util::Stopwatch warm_sw;
    for (int rep = 0; rep < kWarmReps; ++rep) {
      ml::GradientBoostedTrees warm(gbt_params);
      warm.fit(aggregated.data);
      if (rep == 0) {
        expect(ml::gbt_to_json(warm).dump(2) == serialized,
               "warm (cache-hit) GBT fit bytes == cold fit bytes");
      }
    }
    row.warm_seconds = warm_sw.seconds() / kWarmReps;
    expect(cache.stats().hits >= warm_start.hits + kWarmReps,
           "BinCache served every warm GBT fit");

    // Embedded seed engine on the same data: the model bytes must be
    // EQUAL — the engine rewrite is faster, not different.
    util::Stopwatch oracle_sw;
    const ml::GradientBoostedTrees oracle =
        bench_oracle::restore_oracle(aggregated.data, gbt_params);
    row.oracle_seconds = oracle_sw.seconds();
    row.oracle_identical = ml::gbt_to_json(oracle).dump(2) == serialized;
    expect(row.oracle_identical,
           "GBT model bytes == embedded seed-engine oracle bytes");

    // FP-Growth rule mining.
    util::Stopwatch fp_sw;
    const std::vector<arm::MinedRule> rules =
        arm::mine_rules(transactions, fp_params);
    row.fpgrowth.seconds = fp_sw.seconds();
    std::string rules_text;
    for (const auto& rule : rules) {
      char buffer[96];
      for (const arm::Item item : rule.antecedent) {
        std::snprintf(buffer, sizeof(buffer), "%u,", item.packed());
        rules_text += buffer;
      }
      std::snprintf(buffer, sizeof(buffer), "=>%u s=%.17g c=%.17g|",
                    rule.consequent.packed(), rule.support, rule.confidence);
      rules_text += buffer;
    }
    if (reference_rules.empty()) {
      reference_rules = rules_text;
    } else {
      row.fpgrowth.identical = rules_text == reference_rules;
      expect_identical(row.fpgrowth.identical, threads, "mined rule set");
    }

    // Grid search, fresh RNG per row so every row consumes the same
    // fold-assignment stream.
    util::Stopwatch grid_sw;
    util::Rng rng(7);
    const auto result =
        ml::grid_search(aggregated.data, grid, grid_factory, 3, rng);
    row.grid.seconds = grid_sw.seconds();
    const std::string fingerprint = grid_fingerprint(result);
    if (reference_grid.empty()) {
      reference_grid = fingerprint;
    } else {
      row.grid.identical = fingerprint == reference_grid;
      expect_identical(row.grid.identical, threads,
                       "grid-search winner/scores");
    }

    // Counter deltas across the whole row (cold + warm fits + grid
    // search; the shared grid fold set makes later configurations hit).
    const ml::BinCache::Stats cache_end = cache.stats();
    row.cache.hits = cache_end.hits - cache_start.hits;
    row.cache.misses = cache_end.misses - cache_start.misses;
    row.cache.evictions = cache_end.evictions - cache_start.evictions;
    row.cache.entries = cache_end.entries;
    expect(row.cache.hits > 0, "BinCache hits nonzero across the row");

    rows.push_back(row);
  }

  const auto base = [&](const KernelRow SweepRow::* kernel) {
    for (const SweepRow& row : rows) {
      if (row.threads == 1) return (row.*kernel).seconds;
    }
    return 0.0;
  };
  const double gbt_base = base(&SweepRow::gbt);
  const double fp_base = base(&SweepRow::fpgrowth);
  const double grid_base = base(&SweepRow::grid);

  util::TextTable table;
  table.set_header({"threads", "gbt_s", "gbt_x", "bin_s", "warm_s", "oracle_s",
                    "orc_x", "fpgrowth_s", "grid_s", "identical", "advisory"});
  util::JsonArray results;
  for (const SweepRow& row : rows) {
    const auto speedup = [](double baseline, double seconds) {
      return seconds > 0.0 ? baseline / seconds : 0.0;
    };
    const bool identical = row.gbt.identical && row.fpgrowth.identical &&
                           row.grid.identical && row.oracle_identical;
    char gbt_s[32], gbt_x[32], bin_s[32], warm_s[32], oracle_s[32], orc_x[32],
        fp_s[32], grid_s[32];
    std::snprintf(gbt_s, sizeof(gbt_s), "%.3f", row.gbt.seconds);
    std::snprintf(gbt_x, sizeof(gbt_x), "%.2f",
                  speedup(gbt_base, row.gbt.seconds));
    std::snprintf(bin_s, sizeof(bin_s), "%.3f", row.bin_build_seconds);
    std::snprintf(warm_s, sizeof(warm_s), "%.3f", row.warm_seconds);
    std::snprintf(oracle_s, sizeof(oracle_s), "%.3f", row.oracle_seconds);
    std::snprintf(orc_x, sizeof(orc_x), "%.2f",
                  speedup(row.oracle_seconds, row.warm_seconds));
    std::snprintf(fp_s, sizeof(fp_s), "%.3f", row.fpgrowth.seconds);
    std::snprintf(grid_s, sizeof(grid_s), "%.3f", row.grid.seconds);
    table.add_row({std::to_string(row.threads), gbt_s, gbt_x, bin_s, warm_s,
                   oracle_s, orc_x, fp_s, grid_s, identical ? "yes" : "NO",
                   row.advisory ? "yes" : ""});

    util::Json item;
    item.set("threads", static_cast<double>(row.threads));
    item.set("advisory", row.advisory);
    item.set("identical", identical);
    item.set("gbt_train_seconds", row.gbt.seconds);
    item.set("gbt_train_speedup", speedup(gbt_base, row.gbt.seconds));
    // Breakdown: binning share of a cold fit, steady-state warm fit, and
    // the embedded seed engine on identical data (bytes asserted equal).
    item.set("gbt_bin_build_seconds", row.bin_build_seconds);
    item.set("gbt_warm_fit_seconds", row.warm_seconds);
    item.set("gbt_oracle_seconds", row.oracle_seconds);
    item.set("gbt_cold_speedup_vs_oracle",
             speedup(row.oracle_seconds, row.gbt.seconds));
    item.set("gbt_warm_speedup_vs_oracle",
             speedup(row.oracle_seconds, row.warm_seconds));
    item.set("oracle_identical", row.oracle_identical);
    item.set("bin_cache_hits", static_cast<double>(row.cache.hits));
    item.set("bin_cache_misses", static_cast<double>(row.cache.misses));
    item.set("bin_cache_evictions", static_cast<double>(row.cache.evictions));
    item.set("fpgrowth_seconds", row.fpgrowth.seconds);
    item.set("fpgrowth_speedup", speedup(fp_base, row.fpgrowth.seconds));
    item.set("grid_search_seconds", row.grid.seconds);
    item.set("grid_search_speedup", speedup(grid_base, row.grid.seconds));
    results.push_back(std::move(item));
  }
  std::printf("%s", table.render().c_str());

  util::Json out;
  out.set("bench", "training");
  bench::set_provenance(out);
  out.set("profile", "IXP-US1");
  out.set("smoke", smoke);
  out.set("trace_minutes", static_cast<double>(kMinutes));
  out.set("seed", static_cast<double>(kSeed));
  out.set("records", static_cast<double>(aggregated.size()));
  out.set("transactions", static_cast<double>(transactions.size()));
  out.set("hardware_concurrency", static_cast<double>(hardware));
  out.set("train_threads", static_cast<double>(requested));
  out.set("results", std::move(results));
  // The smoke run is a correctness gate, not a perf record — don't
  // overwrite the trajectory file with tiny-trace numbers.
  if (!smoke) {
    std::ofstream file("BENCH_training.json");
    file << out.dump(2) << "\n";
    std::printf("\nwrote BENCH_training.json (hardware_concurrency=%u)\n",
                hardware);
  }
  if (failures != 0) {
    std::fprintf(stderr, "\n%d determinism check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all determinism checks passed\n");
  return 0;
}
