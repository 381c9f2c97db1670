#pragma once
// Hyperparameter grid search with stratified k-fold cross-validation,
// scored by F_beta (beta = 0.5) — the Appendix C / Table 4 methodology.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/pipeline.hpp"
#include "util/rng.hpp"

namespace scrubber::ml {

/// One point of a hyperparameter grid: named numeric parameters.
using ParamPoint = std::map<std::string, double>;

/// Cartesian product of named parameter axes.
[[nodiscard]] std::vector<ParamPoint> param_grid(
    const std::map<std::string, std::vector<double>>& axes);

/// Result of a grid search.
struct GridSearchResult {
  ParamPoint best_params;
  double best_score = -1.0;
  /// Mean CV F_beta=0.5 per evaluated point, in grid order.
  std::vector<std::pair<ParamPoint, double>> all_scores;
};

/// Runs k-fold CV for every grid point. `factory` builds an untrained
/// pipeline from a parameter point; scoring is mean F_beta=0.5 over folds.
[[nodiscard]] GridSearchResult grid_search(
    const Dataset& data, const std::vector<ParamPoint>& grid,
    const std::function<Pipeline(const ParamPoint&)>& factory, std::size_t folds,
    util::Rng& rng);

}  // namespace scrubber::ml
