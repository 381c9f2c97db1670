#include "ml/metrics.hpp"

#include <gtest/gtest.h>

namespace scrubber::ml {
namespace {

ConfusionMatrix make_cm(std::uint64_t tp, std::uint64_t tn, std::uint64_t fp,
                        std::uint64_t fn) {
  ConfusionMatrix cm;
  cm.tp = tp;
  cm.tn = tn;
  cm.fp = fp;
  cm.fn = fn;
  return cm;
}

TEST(ConfusionMatrix, AddAccumulates) {
  ConfusionMatrix cm;
  cm.add(1, 1);  // tp
  cm.add(1, 0);  // fn
  cm.add(0, 0);  // tn
  cm.add(0, 1);  // fp
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionMatrix, Rates) {
  const auto cm = make_cm(80, 90, 10, 20);
  EXPECT_DOUBLE_EQ(cm.tpr(), 0.8);
  EXPECT_DOUBLE_EQ(cm.fnr(), 0.2);
  EXPECT_DOUBLE_EQ(cm.tnr(), 0.9);
  EXPECT_DOUBLE_EQ(cm.fpr(), 0.1);
  EXPECT_DOUBLE_EQ(cm.precision(), 80.0 / 90.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.8);
}

TEST(ConfusionMatrix, RatesComplementary) {
  const auto cm = make_cm(33, 44, 7, 9);
  EXPECT_DOUBLE_EQ(cm.tpr() + cm.fnr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.tnr() + cm.fpr(), 1.0);
}

TEST(ConfusionMatrix, F1MatchesPaperFormula) {
  // F1 = tp / (tp + (fp + fn) / 2), §6.1.
  const auto cm = make_cm(80, 90, 10, 20);
  EXPECT_DOUBLE_EQ(cm.f1(), 80.0 / (80.0 + 0.5 * (10.0 + 20.0)));
}

TEST(ConfusionMatrix, FBetaMatchesPaperFormula) {
  // F_beta = (1+b^2) tp / ((1+b^2) tp + b^2 fn + fp), beta = 0.5.
  const auto cm = make_cm(80, 90, 10, 20);
  const double b2 = 0.25;
  const double expected =
      (1 + b2) * 80.0 / ((1 + b2) * 80.0 + b2 * 20.0 + 10.0);
  EXPECT_DOUBLE_EQ(cm.f_beta(0.5), expected);
}

TEST(ConfusionMatrix, FBetaWeightsFalsePositivesMore) {
  // With beta = 0.5, trading a false negative for a false positive must
  // lower the score (the paper's rationale for using it).
  const auto more_fp = make_cm(80, 90, 20, 10);
  const auto more_fn = make_cm(80, 90, 10, 20);
  EXPECT_LT(more_fp.f_beta(0.5), more_fn.f_beta(0.5));
  // F1 treats both errors equally.
  EXPECT_DOUBLE_EQ(more_fp.f1(), more_fn.f1());
}

TEST(ConfusionMatrix, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(make_cm(10, 10, 0, 0).f_beta(0.5), 1.0);
  EXPECT_DOUBLE_EQ(make_cm(10, 10, 0, 0).f1(), 1.0);
  EXPECT_DOUBLE_EQ(make_cm(0, 0, 10, 10).f1(), 0.0);
}

TEST(ConfusionMatrix, EmptyIsZeroNotNan) {
  const ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.tpr(), 0.0);
  EXPECT_DOUBLE_EQ(cm.tnr(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f_beta(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
}

TEST(Evaluate, BuildsFromSpans) {
  const std::vector<int> truth{1, 1, 0, 0, 1};
  const std::vector<int> pred{1, 0, 0, 1, 1};
  const auto cm = evaluate(truth, pred);
  EXPECT_EQ(cm.tp, 2u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 1u);
  EXPECT_EQ(cm.fp, 1u);
}

TEST(Evaluate, SizeMismatchThrows) {
  const std::vector<int> truth{1};
  const std::vector<int> pred{1, 0};
  EXPECT_THROW((void)evaluate(truth, pred), std::invalid_argument);
}

TEST(ConfusionMatrix, SummaryMentionsCounts) {
  const auto s = make_cm(1, 2, 3, 4).summary();
  EXPECT_NE(s.find("tp=1"), std::string::npos);
  EXPECT_NE(s.find("fn=4"), std::string::npos);
}

}  // namespace
}  // namespace scrubber::ml
