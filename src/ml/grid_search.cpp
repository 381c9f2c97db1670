#include "ml/grid_search.hpp"

#include "util/thread_pool.hpp"

namespace scrubber::ml {

std::vector<ParamPoint> param_grid(
    const std::map<std::string, std::vector<double>>& axes) {
  std::vector<ParamPoint> grid{{}};
  for (const auto& [name, values] : axes) {
    std::vector<ParamPoint> next;
    next.reserve(grid.size() * values.size());
    for (const auto& point : grid) {
      for (const double v : values) {
        ParamPoint extended = point;
        extended[name] = v;
        next.push_back(std::move(extended));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

namespace {

using FoldIndices = std::vector<std::vector<std::size_t>>;

/// F_beta of one {configuration, fold} cell: train on every other fold,
/// test on fold `f`. Pure given the fold assignment and factory, so
/// cells evaluate concurrently; `factory` must be safe to call from
/// multiple threads (the bench/test factories are stateless builders).
double fold_fbeta(const Dataset& data, const FoldIndices& fold_indices,
                  std::size_t f, const std::function<Pipeline()>& factory,
                  double beta) {
  std::vector<std::size_t> train_idx;
  for (std::size_t g = 0; g < fold_indices.size(); ++g) {
    if (g == f) continue;
    train_idx.insert(train_idx.end(), fold_indices[g].begin(),
                     fold_indices[g].end());
  }
  const Dataset train = data.subset(train_idx);
  const Dataset test = data.subset(fold_indices[f]);
  Pipeline pipeline = factory();
  pipeline.fit(train);
  const std::vector<int> predicted = pipeline.predict_all(test);
  return evaluate(test.labels(), predicted).f_beta(beta);
}

}  // namespace

GridSearchResult grid_search(
    const Dataset& data, const std::vector<ParamPoint>& grid,
    const std::function<Pipeline(const ParamPoint&)>& factory, std::size_t folds,
    util::Rng& rng) {
  // One fold assignment shared by every grid point: a paired comparison
  // (each configuration sees the same train/test partitions, so score
  // differences are attributable to the parameters, not fold luck), and
  // every cell's fit re-encodes the same training folds — the BinCache
  // (ml/bin_cache.hpp) then bins each fold once and every subsequent
  // configuration hits. The single draw consumes the RNG once, in grid
  // order, before any cell runs; cells then train concurrently.
  const FoldIndices fold_indices = data.stratified_folds(folds, rng);

  const std::size_t cells = grid.size() * folds;
  std::vector<double> cell_score(cells, 0.0);
  util::training_pool().parallel_for(cells, [&](std::size_t c) {
    const std::size_t g = c / folds;
    const std::size_t f = c % folds;
    cell_score[c] = fold_fbeta(
        data, fold_indices, f, [&] { return factory(grid[g]); }, 0.5);
  });

  // Reduce in grid order: per-point means sum folds ascending and the
  // winner comparison scans points ascending with strict `>` — identical
  // to the sequential search for any thread count.
  GridSearchResult result;
  result.all_scores.reserve(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    double total = 0.0;
    for (std::size_t f = 0; f < folds; ++f) total += cell_score[g * folds + f];
    const double score = total / static_cast<double>(folds);
    result.all_scores.emplace_back(grid[g], score);
    if (score > result.best_score) {
      result.best_score = score;
      result.best_params = grid[g];
    }
  }
  return result;
}

}  // namespace scrubber::ml
