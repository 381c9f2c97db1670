// Unit tests of bench_e2e's measurement helpers (stats.hpp): the verdict
// lag join and its closing-datagram rule, the quantile and its
// sample-count rule, and the peak-RSS baseline. Run with
// `python3 bench_e2e/run.py --selftest`; exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "stats.hpp"

namespace {

using namespace bench_e2e;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

constexpr std::uint64_t kMs = 1'000'000;

void test_lag_closing_datagram_rule() {
  // Minutes 0..5 each have a first datagram at m * 100 ms. Minute 1's
  // verdict is ready at 350 ms: it is closed by minute 3's first datagram
  // (300 ms), not by minute 2's (200 ms), so its lag is 50 ms.
  const std::vector<std::uint64_t> offer = {0, 100 * kMs, 200 * kMs, 300 * kMs,
                                            400 * kMs, 500 * kMs};
  std::vector<std::uint64_t> ready(6, kNone);
  ready[1] = 350 * kMs;
  const auto lags = verdict_lags_ms(offer, ready);
  CHECK(lags.size() == 1);
  CHECK(near(lags.at(0), 50.0));
}

void test_lag_skips_empty_minutes() {
  // Minute 3 has no datagram: minute 1 is then closed by the first
  // datagram of the next minute that has one (minute 4, at 400 ms).
  const std::vector<std::uint64_t> offer = {0, 100 * kMs, 200 * kMs, kNone,
                                            400 * kMs};
  std::vector<std::uint64_t> ready(5, kNone);
  ready[1] = 410 * kMs;
  const auto lags = verdict_lags_ms(offer, ready);
  CHECK(lags.size() == 1);
  CHECK(near(lags.at(0), 10.0));
}

void test_lag_end_of_stream_minutes_give_no_sample() {
  // The last two minutes are closed by end of stream, not by a datagram,
  // and unsampled minutes (kNone) are skipped.
  const std::vector<std::uint64_t> offer = {0, 100 * kMs, 200 * kMs, 300 * kMs};
  std::vector<std::uint64_t> ready = {250 * kMs, kNone, 900 * kMs, 900 * kMs};
  const auto lags = verdict_lags_ms(offer, ready);
  CHECK(lags.size() == 1);
  CHECK(near(lags.at(0), 50.0));
}

void test_lag_rejects_verdict_before_closing_datagram() {
  const std::vector<std::uint64_t> offer = {0, 100 * kMs, 200 * kMs};
  const std::vector<std::uint64_t> ready = {150 * kMs, kNone, kNone};
  CHECK(throws([&] { (void)verdict_lags_ms(offer, ready); }));
}

void test_quantile_interpolates() {
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0));
  CHECK(near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0));
  CHECK(near(median({7.0}), 7.0));
  CHECK(throws([] { (void)quantile({}, 0.5); }));
}

void test_quantile_sample_count_rule() {
  // p99 needs n * 0.01 >= 10 samples beyond it: 1000 is the least n.
  CHECK(!quantile_supported(999, 0.99));
  CHECK(quantile_supported(1000, 0.99));
  CHECK(quantile_supported(20, 0.50));
  CHECK(!quantile_supported(19, 0.50));
  std::vector<double> values(999);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  CHECK(throws([&] { (void)supported_quantile(values, 0.99); }));
  values.push_back(999.0);
  CHECK(near(supported_quantile(values, 0.99), 989.01));
}

void test_status_parsing() {
  const std::string status =
      "Name:\tbench\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t5\n";
  CHECK(status_kb(status, "VmHWM").value_or(0) == 204800);
  CHECK(status_kb(status, "VmRSS").value_or(0) == 102400);
  CHECK(!status_kb(status, "VmSwap").has_value());
  CHECK(!status_kb(status, "VmRS").has_value());  // a prefix is not a key
}

void test_peak_above_baseline_arithmetic() {
  // Baseline RSS 100 MiB, later high-water mark 164 MiB: 64 MiB belong to
  // the measured system. A peak below the baseline clamps to zero.
  const std::string base = "VmHWM:\t 409600 kB\nVmRSS:\t 102400 kB\n";
  const std::string after = "VmHWM:\t 167936 kB\nVmRSS:\t 110000 kB\n";
  CHECK(near(peak_above_baseline_mib(base, after), 64.0));
  CHECK(near(peak_above_baseline_mib(base, "VmHWM:\t 51200 kB\n"), 0.0));
  CHECK(throws([] { (void)peak_above_baseline_mib("", ""); }));
}

std::string self_status() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string reset_baseline() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return self_status();
}

void touch(std::size_t bytes) {
  const auto block = std::make_unique<char[]>(bytes);
  for (std::size_t i = 0; i < bytes; i += 4096) block[i] = static_cast<char>(i);
  volatile char sink = block[bytes / 2];
  (void)sink;
}

void test_live_baseline_excludes_earlier_memory() {
  // Memory touched and freed before the reset (like the trace buffers'
  // temporaries) must not count; memory touched after it must.
  touch(256u << 20);
  const std::string base = reset_baseline();
  const double idle = peak_above_baseline_mib(base, self_status());
  CHECK(idle < 16.0);
  touch(64u << 20);
  const double peak = peak_above_baseline_mib(base, self_status());
  CHECK(peak > 60.0 && peak < 90.0);
}

}  // namespace

int main() {
  test_lag_closing_datagram_rule();
  test_lag_skips_empty_minutes();
  test_lag_end_of_stream_minutes_give_no_sample();
  test_lag_rejects_verdict_before_closing_datagram();
  test_quantile_interpolates();
  test_quantile_sample_count_rule();
  test_status_parsing();
  test_peak_above_baseline_arithmetic();
  test_live_baseline_excludes_earlier_memory();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_e2e tests: all checks passed\n");
  return 0;
}
