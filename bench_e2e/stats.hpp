#pragma once
// Measurement helpers of bench_e2e, kept free of the scrubber libraries
// so tests.cpp can pin them on synthetic inputs: the clock, the quantile
// and its sample-count rule, the verdict-lag join, and the peak-RSS
// baseline arithmetic.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bench_e2e {

/// Steady-clock nanoseconds (the clock every bench_e2e stamp uses).
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Marks a minute that has no value (no datagram, no verdict).
inline constexpr std::uint64_t kNone = ~std::uint64_t{0};

/// q-th quantile (q in [0, 1]) with linear interpolation between order
/// statistics (numpy's default). Throws on an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Median of a sample (quantile 0.5).
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The sample-count rule: a percentile is reported only when at least
/// `min_beyond` samples lie beyond it, i.e. n * (1 - q) >= min_beyond.
[[nodiscard]] inline bool quantile_supported(std::size_t n, double q,
                                             double min_beyond = 10.0) {
  return static_cast<double>(n) * (1.0 - q) >= min_beyond - 1e-9;
}

/// quantile() that refuses a percentile the sample cannot support.
inline double supported_quantile(std::vector<double> values, double q) {
  if (!quantile_supported(values.size(), q)) {
    throw std::runtime_error("quantile " + std::to_string(q) + " needs " +
                             "at least 10 samples beyond it; have " +
                             std::to_string(values.size()) + " samples");
  }
  return quantile(std::move(values), q);
}

/// The verdict-lag join. `offer_ns[m]` is when the first datagram of
/// export minute m was due (open loop) or offered (closed loop), kNone
/// when minute m has no datagram. `ready_ns[m]` is when
/// ingest_minute(m) returned, kNone when minute m was not sampled.
///
/// Under the collector's 1-minute reorder slack, minute M closes when
/// the first datagram of a minute >= M + 2 arrives, so M's lag is
/// measured from the first datagram of the first minute >= M + 2 that
/// has one. Minutes with no such datagram are closed by end of stream,
/// not by traffic, and give no sample. Returns lags in milliseconds.
inline std::vector<double> verdict_lags_ms(std::span<const std::uint64_t> offer_ns,
                                           std::span<const std::uint64_t> ready_ns) {
  // closing[m]: offer time of the first datagram at a minute >= m.
  std::vector<std::uint64_t> closing(offer_ns.size() + 1, kNone);
  for (std::size_t m = offer_ns.size(); m-- > 0;) {
    closing[m] = offer_ns[m] != kNone ? offer_ns[m] : closing[m + 1];
  }
  std::vector<double> lags;
  for (std::size_t m = 0; m < ready_ns.size(); ++m) {
    if (ready_ns[m] == kNone || m + 2 >= closing.size()) continue;
    const std::uint64_t closed_by = closing[m + 2];
    if (closed_by == kNone) continue;
    if (ready_ns[m] < closed_by) {
      throw std::runtime_error("minute " + std::to_string(m) +
                               " was ready before the datagram that closes it");
    }
    lags.push_back(static_cast<double>(ready_ns[m] - closed_by) / 1e6);
  }
  return lags;
}

/// Value in kB of a "Key:   123 kB" line of /proc/<pid>/status text.
inline std::optional<std::uint64_t> status_kb(std::string_view status,
                                              std::string_view key) {
  std::size_t at = 0;
  while (at < status.size()) {
    const std::size_t eol = std::min(status.find('\n', at), status.size());
    const std::string_view line = status.substr(at, eol - at);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::uint64_t value = 0;
      bool digits = false;
      for (const char c : line.substr(key.size() + 1)) {
        if (c >= '0' && c <= '9') {
          value = value * 10 + static_cast<std::uint64_t>(c - '0');
          digits = true;
        } else if (digits) {
          break;
        }
      }
      if (digits) return value;
    }
    at = eol + 1;
  }
  return std::nullopt;
}

/// Peak RSS above a baseline, in MiB: `baseline_status` is read right
/// after the high-water mark was reset (so its VmRSS is where VmHWM
/// restarted), `after_status` once the measured work is done. Only growth
/// past the baseline belongs to the measured system.
inline double peak_above_baseline_mib(std::string_view baseline_status,
                                      std::string_view after_status) {
  const auto base = status_kb(baseline_status, "VmRSS");
  const auto peak = status_kb(after_status, "VmHWM");
  if (!base || !peak) throw std::runtime_error("no VmRSS/VmHWM in status");
  const std::uint64_t grown = *peak > *base ? *peak - *base : 0;
  return static_cast<double>(grown) / 1024.0;
}

}  // namespace bench_e2e
