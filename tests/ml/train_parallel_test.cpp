// Thread-count bit-identity of the parallelized training kernels: the
// same data must produce byte-identical serialized models (GBT, decision
// tree) and exactly identical grid-search winners/scores no matter how
// many threads the training pool runs — the learning-plane determinism
// contract (DESIGN.md §9). Run under TSan to also prove the fan-out
// race-free.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "ml/bin_cache.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/grid_search.hpp"
#include "ml/model_io.hpp"
#include "ml/pipeline.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scrubber::ml {
namespace {

const unsigned kThreadCounts[] = {2, 3, 8};

/// Two noisy interleaved blobs plus missing cells — enough rows to clear
/// the decision tree's sequential-split cutoff so the parallel search
/// actually runs, and awkward enough that float order would show.
Dataset blobs(std::size_t n, std::uint64_t seed) {
  Dataset data({{"x0", ColumnKind::kNumeric},
                {"x1", ColumnKind::kNumeric},
                {"x2", ColumnKind::kNumeric}});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rng.chance(0.5) ? 1 : 0;
    double row[3] = {rng.normal(y ? 0.8 : -0.8, 1.0),
                     rng.normal(y ? 0.8 : -0.8, 1.0),
                     rng.uniform(-3.0, 3.0)};
    if (rng.chance(0.05)) row[2] = kMissing;
    data.add_row(row, y);
  }
  return data;
}

TEST(TrainParallel, GbtSerializesByteIdenticalForAnyThreadCount) {
  const Dataset data = blobs(1500, 11);
  GbtParams params;
  params.n_estimators = 12;
  params.max_depth = 5;

  util::set_training_threads(1);
  GradientBoostedTrees reference(params);
  reference.fit(data);
  const std::string reference_bytes = gbt_to_json(reference).dump(2);

  for (const unsigned threads : kThreadCounts) {
    util::set_training_threads(threads);
    GradientBoostedTrees model(params);
    model.fit(data);
    EXPECT_EQ(gbt_to_json(model).dump(2), reference_bytes)
        << "thread count " << threads;
  }
  util::set_training_threads(0);
}

TEST(TrainParallel, DecisionTreeSerializesByteIdenticalForAnyThreadCount) {
  const Dataset data = blobs(1500, 12);  // > 512 rows: parallel split path
  DecisionTreeParams params;
  params.max_depth = 8;
  params.min_samples_leaf = 5;

  util::set_training_threads(1);
  DecisionTree reference(params);
  reference.fit(data);
  const std::string reference_bytes = dt_to_json(reference).dump(2);

  for (const unsigned threads : kThreadCounts) {
    util::set_training_threads(threads);
    DecisionTree model(params);
    model.fit(data);
    EXPECT_EQ(dt_to_json(model).dump(2), reference_bytes)
        << "thread count " << threads;
  }
  util::set_training_threads(0);
}

/// Runs `grid` with `factory` at one thread and at every other thread
/// count; winner and every score must be exactly identical.
void expect_grid_identical(
    const Dataset& data, const std::vector<ParamPoint>& grid,
    const std::function<Pipeline(const ParamPoint&)>& factory) {
  // Fresh RNG per run: every thread count must consume the identical
  // fold-assignment stream.
  const auto search = [&] {
    util::Rng rng(21);
    return grid_search(data, grid, factory, 3, rng);
  };

  util::set_training_threads(1);
  const GridSearchResult reference = search();

  for (const unsigned threads : kThreadCounts) {
    util::set_training_threads(threads);
    const GridSearchResult result = search();
    EXPECT_EQ(result.best_params, reference.best_params)
        << "thread count " << threads;
    EXPECT_EQ(result.best_score, reference.best_score)  // exact bits
        << "thread count " << threads;
    ASSERT_EQ(result.all_scores.size(), reference.all_scores.size());
    for (std::size_t i = 0; i < result.all_scores.size(); ++i) {
      EXPECT_EQ(result.all_scores[i].first, reference.all_scores[i].first);
      EXPECT_EQ(result.all_scores[i].second, reference.all_scores[i].second)
          << "grid point " << i << ", thread count " << threads;
    }
  }
  util::set_training_threads(0);
}

TEST(TrainParallel, GridSearchWinnerAndScoresIdenticalForAnyThreadCount) {
  const Dataset data = blobs(600, 13);
  expect_grid_identical(
      data,
      param_grid({{"max_depth", {2.0, 4.0}}, {"min_samples_leaf", {1.0, 20.0}}}),
      [](const ParamPoint& point) {
        DecisionTreeParams params;
        params.max_depth = static_cast<std::size_t>(point.at("max_depth"));
        params.min_samples_leaf =
            static_cast<std::size_t>(point.at("min_samples_leaf"));
        Pipeline p;
        p.set_classifier(std::make_unique<DecisionTree>(params));
        return p;
      });

  // GBT grid points refit the same folds, so later points bin through
  // the BinCache: the cached path must be just as thread-count-invariant.
  BinCache::instance().clear();
  expect_grid_identical(
      data,
      param_grid({{"n_estimators", {4.0, 8.0}}, {"max_depth", {3.0, 4.0}}}),
      [](const ParamPoint& point) {
        GbtParams params;
        params.n_estimators = static_cast<std::size_t>(point.at("n_estimators"));
        params.max_depth = static_cast<std::size_t>(point.at("max_depth"));
        Pipeline p;
        p.set_classifier(std::make_unique<GradientBoostedTrees>(params));
        return p;
      });
  EXPECT_GT(BinCache::instance().stats().hits, 0u);
  BinCache::instance().clear();
}

}  // namespace
}  // namespace scrubber::ml
