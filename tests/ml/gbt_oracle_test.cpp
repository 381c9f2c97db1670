// Oracle equivalence for the histogram training engine: the production
// fit() (partition-based, packed (g,h) histograms, u8 codes, cached
// binning — src/ml/gbt.cpp) must produce serialized model bytes EQUAL to
// the seed engine kept in tests/oracles/gbt_oracle.hpp (global scans +
// u16 + upper_bound) on the same data and params, at every thread count. This
// is the refactor's contract: faster, not different.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../oracles/gbt_oracle.hpp"
#include "ml/bin_cache.hpp"
#include "ml/dataset.hpp"
#include "ml/gbt.hpp"
#include "ml/model_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scrubber::ml {
namespace {

const unsigned kThreadCounts[] = {1, 2, 3, 8};

Dataset nan_heavy(std::size_t n, std::uint64_t seed) {
  // ~30% missing cells across three features; float order would show in
  // the shared -1.0 bins.
  Dataset data({{"x0", ColumnKind::kNumeric},
                {"x1", ColumnKind::kNumeric},
                {"x2", ColumnKind::kNumeric}});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    double row[3] = {rng.normal(y ? 0.7 : -0.7, 1.0),
                     rng.normal(y ? -0.4 : 0.4, 1.5),
                     rng.uniform(-2.0, 2.0)};
    for (double& v : row) {
      if (rng.chance(0.3)) v = kMissing;
    }
    data.add_row(row, y);
  }
  return data;
}

Dataset duplicate_valued(std::size_t n, std::uint64_t seed) {
  // Values drawn from tiny lattices: most rows collide in every bin, and
  // many candidate splits tie in gain — exercises the strict-> argmax.
  Dataset data({{"x0", ColumnKind::kNumeric}, {"x1", ColumnKind::kNumeric}});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.4) ? 1 : 0;
    const double row[2] = {
        std::floor(rng.uniform(0.0, 8.0)) + (y != 0 ? 0.5 : 0.0),
        std::floor(rng.uniform(0.0, 4.0))};
    data.add_row(row, y);
  }
  return data;
}

Dataset single_row() {
  Dataset data({{"x0", ColumnKind::kNumeric}});
  const double row[1] = {1.25};
  data.add_row(row, 1);
  return data;
}

Dataset all_positive(std::size_t n) {
  // pos == n: the base-rate clamp and "no useful split" paths.
  Dataset data({{"x0", ColumnKind::kNumeric}});
  for (std::size_t i = 0; i < n; ++i) {
    const double row[1] = {static_cast<double>(i % 13)};
    data.add_row(row, 1);
  }
  return data;
}

void expect_matches_oracle(const Dataset& data, const GbtParams& params,
                           const std::string& what) {
  util::set_training_threads(1);
  const GradientBoostedTrees oracle =
      bench_oracle::restore_oracle(data, params);
  const std::string oracle_bytes = gbt_to_json(oracle).dump(2);

  for (const unsigned threads : kThreadCounts) {
    util::set_training_threads(threads);
    BinCache::instance().clear();  // cold and warm paths both covered below
    GradientBoostedTrees cold(params);
    cold.fit(data);
    EXPECT_EQ(gbt_to_json(cold).dump(2), oracle_bytes)
        << what << " cold fit, " << threads << " threads";
    GradientBoostedTrees warm(params);  // BinCache hit path
    warm.fit(data);
    EXPECT_EQ(gbt_to_json(warm).dump(2), oracle_bytes)
        << what << " warm fit, " << threads << " threads";
  }
  util::set_training_threads(1);
  BinCache::instance().clear();
}

TEST(GbtOracle, NanHeavyDataMatchesAtEveryThreadCount) {
  GbtParams params;
  params.n_estimators = 10;
  params.max_depth = 5;
  expect_matches_oracle(nan_heavy(900, 41), params, "nan-heavy");
}

TEST(GbtOracle, DuplicateValuedDataMatchesAtEveryThreadCount) {
  GbtParams params;
  params.n_estimators = 12;
  params.max_depth = 4;
  params.learning_rate = 0.2;
  expect_matches_oracle(duplicate_valued(1100, 42), params, "duplicates");
}

TEST(GbtOracle, SingleRowMatches) {
  GbtParams params;
  params.n_estimators = 3;
  params.max_depth = 3;
  expect_matches_oracle(single_row(), params, "single-row");
}

TEST(GbtOracle, AllPositiveLabelsMatch) {
  GbtParams params;
  params.n_estimators = 5;
  params.max_depth = 4;
  expect_matches_oracle(all_positive(128), params, "pos==n");
}

TEST(GbtOracle, SmallBinBudgetForcesQuantilePath) {
  // max_bins far below the distinct-value count: the quantile edge
  // estimator (not the midpoint path) must also agree with the oracle.
  GbtParams params;
  params.n_estimators = 8;
  params.max_depth = 5;
  params.max_bins = 8;
  expect_matches_oracle(nan_heavy(700, 43), params, "quantile-edges");
}

}  // namespace
}  // namespace scrubber::ml
