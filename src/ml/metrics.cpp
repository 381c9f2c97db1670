#include "ml/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace scrubber::ml {

std::string ConfusionMatrix::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tp=%llu tn=%llu fp=%llu fn=%llu F1=%.3f Fb0.5=%.3f tpr=%.3f fpr=%.3f",
                static_cast<unsigned long long>(tp),
                static_cast<unsigned long long>(tn),
                static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(fn), f1(), f_beta(0.5), tpr(),
                fpr());
  return buf;
}

ConfusionMatrix evaluate(std::span<const int> truth, std::span<const int> predicted) {
  if (truth.size() != predicted.size())
    throw std::invalid_argument("truth/prediction size mismatch");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < truth.size(); ++i) cm.add(truth[i], predicted[i]);
  return cm;
}

double roc_auc(std::span<const int> truth, std::span<const double> scores) {
  if (truth.size() != scores.size())
    throw std::invalid_argument("truth/score size mismatch");
  const std::size_t n = truth.size();
  std::size_t positives = 0;
  for (const int y : truth) positives += static_cast<std::size_t>(y == 1);
  const std::size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;

  // Mann-Whitney U via average ranks (handles ties correctly).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) {
      if (truth[order[k]] == 1) positive_rank_sum += rank;
    }
    i = j + 1;
  }
  const double u = positive_rank_sum -
                   static_cast<double>(positives) *
                       (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

}  // namespace scrubber::ml
