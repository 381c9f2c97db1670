// Appendix E — attacks on IXP Scrubber itself (training-data poisoning).
//
// Two attacker goals from the paper's threat analysis, both requiring the
// attacker to rent IXP capacity and inject sustained traffic:
//
//  (i)  HIDE ATTACKS: flood the *benign* side with NTP-reflection-shaped
//       traffic to own IPs (never blackholed), dragging WoE(udp/123)
//       towards neutral so real NTP attacks stop scoring as DDoS.
//  (ii) CREATE FALSE POSITIVES: announce blackholes for own IP space and
//       fill it with HTTPS-shaped traffic, pushing WoE(tcp/443) positive
//       so legitimate web traffic gets flagged.
//
// The experiment sweeps the attacker's sustained injection rate (as a
// fraction of the IXP's benign volume) and measures the poisoned WoE and
// the end-to-end damage on clean evaluation traffic. Paper's claim: the
// required volumes are operationally prohibitive — i.e. meaningful damage
// needs injection rates comparable to the traffic the attacker wants to
// influence (for HTTP(S): terabits at a large hub).

#include "../bench/common.hpp"

#include "ml/woe.hpp"

namespace {

using namespace scrubber;

constexpr std::uint32_t kDay = 24 * 60;

/// Flow-level WoE of (protocol, src_port) in a balanced set (+1 smoothed).
double signature_woe(const std::vector<net::FlowRecord>& flows,
                     std::uint8_t protocol, std::uint16_t src_port) {
  std::uint64_t pos = 0, neg = 0, tot_pos = 0, tot_neg = 0;
  for (const auto& flow : flows) {
    const bool match = flow.protocol == protocol && flow.src_port == src_port;
    if (flow.blackholed) {
      ++tot_pos;
      pos += match;
    } else {
      ++tot_neg;
      neg += match;
    }
  }
  const double p1 = (static_cast<double>(pos) + 1.0) / (static_cast<double>(tot_pos) + 1.0);
  const double p0 = (static_cast<double>(neg) + 1.0) / (static_cast<double>(tot_neg) + 1.0);
  return std::log(p1 / p0);
}

/// Injects attacker flows into every minute of a trace (pre-balancing).
/// The attacker owns a handful of destination IPs inside one member.
std::vector<net::FlowRecord> inject(std::vector<net::FlowRecord> flows,
                                    double flows_per_minute, bool blackholed,
                                    std::uint8_t protocol, std::uint16_t src_port,
                                    double packet_size, std::uint64_t seed) {
  if (flows_per_minute <= 0.0) return flows;
  util::Rng rng(seed);
  const std::uint32_t first = flows.front().minute;
  const std::uint32_t last = flows.back().minute;
  for (std::uint32_t m = first; m <= last; ++m) {
    const auto count = rng.poisson(flows_per_minute);
    for (std::uint64_t k = 0; k < count; ++k) {
      net::FlowRecord flow;
      flow.minute = m;
      // Attacker-controlled sources (its own rented port) and destinations.
      flow.src_ip = net::Ipv4Address(0xC6000000 + static_cast<std::uint32_t>(
                                                      rng.below(256)));
      flow.dst_ip = net::Ipv4Address(0x0AFE0000 + static_cast<std::uint32_t>(
                                                      rng.below(8)));
      flow.protocol = protocol;
      flow.src_port = src_port;
      flow.dst_port = static_cast<std::uint16_t>(rng.range(1024, 65535));
      flow.packets = 1 + static_cast<std::uint32_t>(rng.below(3));
      flow.bytes = static_cast<std::uint64_t>(flow.packets * packet_size);
      flow.src_member = 9999;
      flow.blackholed = blackholed;
      flows.push_back(flow);
    }
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const net::FlowRecord& a, const net::FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  return flows;
}

struct Outcome {
  double woe = 0.0;
  double fnr_ntp = 0.0;  ///< missed real NTP attack records (scenario i)
  double fpr = 0.0;      ///< false positives on clean benign records (scenario ii)
};

Outcome evaluate_poisoned(const std::vector<net::FlowRecord>& poisoned_raw,
                          const core::AggregatedDataset& clean_eval,
                          std::uint8_t protocol, std::uint16_t src_port) {
  const auto balanced = core::balance_trace(poisoned_raw, 7);
  Outcome outcome;
  outcome.woe = signature_woe(balanced, protocol, src_port);

  const core::Aggregator aggregator;
  const auto train = aggregator.aggregate(balanced);
  ml::Pipeline pipeline = ml::make_model_pipeline(ml::ModelKind::kXgb);
  pipeline.fit(train.data);
  const auto predictions = pipeline.predict_all(clean_eval.data);

  ml::ConfusionMatrix all;
  ml::ConfusionMatrix ntp_records;
  for (std::size_t i = 0; i < clean_eval.size(); ++i) {
    all.add(clean_eval.data.label(i), predictions[i]);
    const auto& meta = clean_eval.meta[i];
    if (clean_eval.data.label(i) == 1 && meta.dominant_vector.has_value() &&
        *meta.dominant_vector == net::DdosVector::kNtp) {
      ntp_records.add(1, predictions[i]);
    }
  }
  outcome.fnr_ntp = ntp_records.fnr();
  outcome.fpr = all.fpr();
  return outcome;
}

}  // namespace

int main() {
  bench::print_header("Appendix E", "poisoning the training data");
  bench::print_expectation(
      "influencing a signature's WoE needs sustained injection comparable "
      "to the traffic carrying that signature; low-rate poisoning moves "
      "neither the WoE nor the model");

  // Base training traffic and clean evaluation traffic (later time range).
  flowgen::TrafficGenerator gen(flowgen::ixp_us1(), 23000);
  const auto raw_train = gen.generate(0, kDay).flows;
  const auto eval_trace = bench::make_balanced(flowgen::ixp_us1(), 23001, kDay,
                                               kDay);
  const core::Aggregator aggregator;
  const auto clean_eval = aggregator.aggregate(eval_trace.flows);
  const double benign_fpm = flowgen::ixp_us1().benign_flows_per_minute;

  const double fractions[] = {0.0, 0.01, 0.05, 0.2, 0.5};

  std::printf("(i) hiding NTP attacks: benign-side NTP-shaped injection\n");
  util::TextTable hide;
  hide.set_header({"attacker rate (of benign)", "WoE(udp/123)",
                   "NTP-record fnr (clean eval)"});
  for (const double fraction : fractions) {
    const auto poisoned = inject(raw_train, fraction * benign_fpm,
                                 /*blackholed=*/false, 17, 123, 468.0, 1);
    const Outcome outcome = evaluate_poisoned(poisoned, clean_eval, 17, 123);
    hide.add_row({util::fmt_pct(fraction, 0), util::fmt(outcome.woe, 2),
                  util::fmt(outcome.fnr_ntp)});
  }
  std::fputs(hide.render().c_str(), stdout);

  std::printf(
      "\n(ii) forging false positives: blackholed HTTPS-shaped injection\n");
  util::TextTable forge;
  forge.set_header({"attacker rate (of benign)", "WoE(tcp/443)",
                    "fpr on clean eval"});
  for (const double fraction : fractions) {
    const auto poisoned = inject(raw_train, fraction * benign_fpm,
                                 /*blackholed=*/true, 6, 443, 900.0, 2);
    const Outcome outcome = evaluate_poisoned(poisoned, clean_eval, 6, 443);
    forge.add_row({util::fmt_pct(fraction, 0), util::fmt(outcome.woe, 2),
                   util::fmt(outcome.fpr)});
  }
  std::fputs(forge.render().c_str(), stdout);

  std::printf(
      "\nmitigation (§6.6/App. E): operators pin WoEs of critical services "
      "(e.g. WoE(tcp/443) := -5).\n");
  return 0;
}
