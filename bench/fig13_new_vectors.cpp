// Figure 13 — learning new DDoS vectors without operator intervention
// (two-year IXP-SE style trace). Top: the WoE of a vector's signature
// (protocol + source port) rises once members start blackholing it; HTTP
// stays negative throughout. Bottom: XGB trained incrementally (one more
// week per iteration) improves its per-vector F_beta on a fixed late test
// set as the vector's WoE grows.
//
// Scaled substrate: 52 simulated weeks; onsets SNMP=W10, SSDP=W14,
// memcached=W40 (profile ixp_se_longitudinal, scaled from the paper's
// two-year horizon).

#include "../bench/common.hpp"

#include "ml/woe.hpp"

namespace {

using namespace scrubber;

constexpr std::uint32_t kDay = 24 * 60;
constexpr std::uint32_t kWeek = 7 * kDay;
constexpr std::uint32_t kWeeks = 52;

/// WoE of (protocol=17, src_port=port) in the balanced flows of one week,
/// computed directly from flow counts (the flow-level analogue the paper
/// plots). +1-smoothed like WoeColumn.
double port_woe(const std::vector<net::FlowRecord>& flows, std::uint16_t port,
                std::uint8_t protocol = 17) {
  std::uint64_t pos = 0, neg = 0, tot_pos = 0, tot_neg = 0;
  for (const auto& flow : flows) {
    const bool match = flow.protocol == protocol && flow.src_port == port;
    if (flow.blackholed) {
      ++tot_pos;
      pos += match;
    } else {
      ++tot_neg;
      neg += match;
    }
  }
  const double p1 = (static_cast<double>(pos) + 1.0) /
                    (static_cast<double>(tot_pos) + 1.0);
  const double p0 = (static_cast<double>(neg) + 1.0) /
                    (static_cast<double>(tot_neg) + 1.0);
  return std::log(p1 / p0);
}

double per_vector_fbeta(const core::AggregatedDataset& data,
                        const std::vector<int>& predictions,
                        net::DdosVector vector) {
  ml::ConfusionMatrix cm;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool in_scope = data.data.label(i) == 0 ||
                          (data.meta[i].dominant_vector.has_value() &&
                           *data.meta[i].dominant_vector == vector);
    if (in_scope) cm.add(data.data.label(i), predictions[i]);
  }
  return cm.f_beta(0.5);
}

}  // namespace

int main() {
  bench::print_header("Figure 13",
                      "IXP Scrubber learns new DDoS vectors as they appear");
  bench::print_expectation(
      "vector WoE near 0 before its onset week, strongly positive after; "
      "HTTP WoE negative throughout; incremental-training F_beta per vector "
      "rises once the vector is being blackholed");

  flowgen::IxpProfile profile = flowgen::ixp_se_longitudinal();
  profile.benign_flows_per_minute = 140.0;
  profile.attacks_per_day = 20.0;

  // Stream the full horizon once; keep per-week balanced flows.
  flowgen::TrafficGenerator gen(profile, 1313);
  std::vector<std::vector<net::FlowRecord>> weeks(kWeeks);
  {
    core::Balancer balancer(1);
    std::uint32_t week_index = 0;
    gen.generate_stream(
        0, kWeeks * kWeek, flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
        [&](std::uint32_t minute, std::span<const net::FlowRecord> flows) {
          if (minute >= (week_index + 1) * kWeek) {
            weeks[week_index] = balancer.take_balanced();
            balancer = core::Balancer(2 + week_index);
            ++week_index;
          }
          balancer.add_minute(minute, flows);
        });
    weeks[kWeeks - 1] = balancer.take_balanced();
  }

  // ----- top: WoE of vector signatures over time.
  struct Tracked {
    const char* label;
    std::uint16_t port;
  };
  const Tracked tracked[] = {
      {"SNMP (udp/161)", 161},
      {"SSDP (udp/1900)", 1900},
      {"memcached (udp/11211)", 11211},
  };
  std::printf("WoE of vector signature per 4-week bucket:\n");
  util::TextTable woe_table;
  woe_table.set_header({"weeks", "SNMP", "SSDP", "memcached", "HTTP (tcp/80)"});
  for (std::uint32_t w = 0; w + 4 <= kWeeks; w += 4) {
    std::vector<net::FlowRecord> bucket;
    for (std::uint32_t k = w; k < w + 4; ++k)
      bucket.insert(bucket.end(), weeks[k].begin(), weeks[k].end());
    std::vector<std::string> row{std::string("W")
                                     .append(std::to_string(w))
                                     .append("-")
                                     .append(std::to_string(w + 3))};
    for (const auto& t : tracked) row.push_back(util::fmt(port_woe(bucket, t.port), 2));
    row.push_back(util::fmt(port_woe(bucket, 80, 6), 2));
    woe_table.add_row(row);
  }
  std::fputs(woe_table.render().c_str(), stdout);

  // ----- bottom: incremental training, scored on a fixed late test set.
  const core::Aggregator aggregator;
  core::AggregatedDataset test = aggregator.aggregate(weeks[46]);
  for (std::uint32_t k = 47; k < kWeeks; ++k)
    test.append(aggregator.aggregate(weeks[k]));

  std::printf("\nincremental training (cumulative weeks), per-vector F_beta on "
              "the W46-W%u test set:\n", kWeeks - 1);
  util::TextTable inc;
  inc.set_header({"trained through", "SNMP", "SSDP", "memcached", "overall"});
  core::AggregatedDataset train = aggregator.aggregate(weeks[0]);
  for (std::uint32_t w = 1; w < 46; ++w) {
    train.append(aggregator.aggregate(weeks[w]));
    if (w % 6 != 0 && w != 45) continue;  // evaluate every 6 weeks + final
    ml::Pipeline pipeline = ml::make_model_pipeline(ml::ModelKind::kXgb);
    pipeline.fit(train.data);
    const auto predictions = pipeline.predict_all(test.data);
    inc.add_row({std::string("W").append(std::to_string(w)),
                 util::fmt(per_vector_fbeta(test, predictions, net::DdosVector::kSnmp)),
                 util::fmt(per_vector_fbeta(test, predictions, net::DdosVector::kSsdp)),
                 util::fmt(per_vector_fbeta(test, predictions,
                                            net::DdosVector::kMemcached)),
                 util::fmt(bench::fbeta(test, predictions))});
  }
  std::fputs(inc.render().c_str(), stdout);
  return 0;
}
