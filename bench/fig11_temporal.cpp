// Figure 11 — temporal model drift. (a) one-shot training on the first
// day/week/month, scored on every later week; (b) sliding-window training
// re-trained for each evaluation week on the trailing day/week/month.
// Paper: one-shot day-models decay quickly (< 0.90), month-models hold
// ~0.99; sliding-window training lifts performance overall, with the
// trailing month best and never below 0.95.
//
// Scaled substrate: 9 simulated weeks per site with a 4-week reflector
// lifetime (vs. the paper's months of wall-clock), so drift shows within
// the simulated horizon. "ALL" merges the two simulated sites (paper: all
// five IXPs).

#include <deque>

#include "../bench/common.hpp"

namespace {

using namespace scrubber;

constexpr std::uint32_t kDay = 24 * 60;
constexpr std::uint32_t kWeek = 7 * kDay;
constexpr std::uint32_t kWeeks = 8;
constexpr std::uint32_t kMonthDays = 21;  // "month" on the scaled clock

/// Per-day aggregated records for one site over the whole horizon.
std::vector<core::AggregatedDataset> aggregate_days(flowgen::IxpProfile profile,
                                                    std::uint64_t seed) {
  profile.reflector_churn_weeks = 4.0;  // accelerate drift on scaled time
  flowgen::TrafficGenerator gen(profile, seed);
  const core::Aggregator aggregator;

  std::vector<core::AggregatedDataset> days;
  core::Balancer balancer(seed ^ 0xDD);
  std::uint32_t day_start = 0;
  gen.generate_stream(
      0, kWeeks * kWeek, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
      [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
        if (minute >= day_start + kDay) {
          days.push_back(aggregator.aggregate(balancer.take_balanced()));
          balancer = core::Balancer((seed ^ 0xDD) + days.size());
          day_start += kDay;
        }
        balancer.add_minute(minute, flows);
      });
  days.push_back(aggregator.aggregate(balancer.take_balanced()));
  return days;
}

core::AggregatedDataset merge_days(const std::vector<core::AggregatedDataset>& days,
                                   std::size_t first, std::size_t count) {
  core::AggregatedDataset out = days.at(first);
  for (std::size_t d = first + 1; d < first + count && d < days.size(); ++d)
    out.append(days[d]);
  return out;
}

double train_eval(const core::AggregatedDataset& train,
                  const core::AggregatedDataset& test) {
  if (train.size() < 50 || test.size() < 50 ||
      train.data.positive_count() < 10 || test.data.positive_count() < 10)
    return -1.0;  // window too thin to score meaningfully
  ml::Pipeline pipeline = ml::make_model_pipeline(ml::ModelKind::kXgb);
  pipeline.fit(train.data);
  return bench::fbeta(test, pipeline.predict_all(test.data));
}

std::string cell(double value) {
  return value < 0.0 ? "-" : util::fmt(value);
}

void run_site(const std::string& name,
              const std::vector<core::AggregatedDataset>& days) {
  std::printf("--- site %s ---\n", name.c_str());

  // (a) one-shot training at the beginning of the trace.
  const core::AggregatedDataset first_day = merge_days(days, 0, 1);
  const core::AggregatedDataset first_week = merge_days(days, 0, 7);
  const core::AggregatedDataset first_month = merge_days(days, 0, kMonthDays);

  util::TextTable oneshot;
  oneshot.set_header({"eval week", "train: 1 day", "1 week", "1 month"});
  std::vector<double> day_scores, week_scores, month_scores;
  for (std::uint32_t w = 4; w < kWeeks; ++w) {
    const auto test = merge_days(days, w * 7, 7);
    const double d = train_eval(first_day, test);
    const double wk = train_eval(first_week, test);
    const double mo = train_eval(first_month, test);
    if (d >= 0.0) day_scores.push_back(d);
    if (wk >= 0.0) week_scores.push_back(wk);
    if (mo >= 0.0) month_scores.push_back(mo);
    oneshot.add_row({std::string("W").append(std::to_string(w)), cell(d),
                     cell(wk), cell(mo)});
  }
  oneshot.add_row({"median", cell(util::median(day_scores)),
                   cell(util::median(week_scores)),
                   cell(util::median(month_scores))});
  std::printf("(a) one-shot training:\n%s\n", oneshot.render().c_str());

  // (b) sliding-window training: retrain per eval week on trailing data.
  util::TextTable sliding;
  sliding.set_header({"eval week", "window: 1 day", "1 week", "1 month"});
  std::vector<double> s_day, s_week, s_month;
  for (std::uint32_t w = 4; w < kWeeks; ++w) {
    const std::size_t eval_start = w * 7;
    const auto test = merge_days(days, eval_start, 7);
    const double d = train_eval(merge_days(days, eval_start - 1, 1), test);
    const double wk = train_eval(merge_days(days, eval_start - 7, 7), test);
    const double mo =
        train_eval(merge_days(days, eval_start - kMonthDays, kMonthDays), test);
    if (d >= 0.0) s_day.push_back(d);
    if (wk >= 0.0) s_week.push_back(wk);
    if (mo >= 0.0) s_month.push_back(mo);
    sliding.add_row({std::string("W").append(std::to_string(w)), cell(d),
                     cell(wk), cell(mo)});
  }
  sliding.add_row({"median", cell(util::median(s_day)),
                   cell(util::median(s_week)), cell(util::median(s_month))});
  std::printf("(b) sliding-window training:\n%s\n", sliding.render().c_str());
}

}  // namespace

int main() {
  bench::print_header("Figure 11", "temporal model drift (XGB)");
  bench::print_expectation(
      "one-shot day-trained models decay over the weeks; longer one-shot "
      "windows decay slower; sliding-window retraining recovers performance, "
      "trailing month best");

  // Two sites with reduced volume so nine weeks stay laptop-sized.
  flowgen::IxpProfile us1 = flowgen::ixp_us1();
  us1.benign_flows_per_minute = 220.0;
  flowgen::IxpProfile ce1 = flowgen::ixp_ce1();
  ce1.benign_flows_per_minute = 320.0;
  ce1.attacks_per_day = 40.0;

  const auto days_us1 = aggregate_days(us1, 501);
  const auto days_ce1 = aggregate_days(ce1, 502);

  run_site("IXP-US1", days_us1);
  run_site("IXP-CE1", days_ce1);

  // ALL: per-day union of both sites (paper: all five IXPs).
  std::vector<core::AggregatedDataset> days_all;
  for (std::size_t d = 0; d < std::min(days_us1.size(), days_ce1.size()); ++d) {
    core::AggregatedDataset merged = days_us1[d];
    merged.append(days_ce1[d]);
    days_all.push_back(std::move(merged));
  }
  run_site("ALL", days_all);
  return 0;
}
