#pragma once
// `--key value` argument parser shared by the command-line tools (ixpd,
// scrubberctl, scrubber-loadgen). Each caller passes the options it reads;
// any other --key is an error that names it, so a typo or a retired flag
// fails loudly instead of being ignored.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace scrubber::tools {

class Args {
 public:
  /// Parses argv[first, argc) as `--key value` pairs, accepting only the
  /// keys in `known`.
  Args(int argc, char** argv, int first,
       std::initializer_list<std::string_view> known) {
    for (int i = first; i + 1 < argc; i += 2) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        throw std::runtime_error(std::string("expected --option, got ").append(arg));
      }
      const std::string_view key = arg.substr(2);
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw std::runtime_error(std::string("unknown option ").append(arg));
      }
      values_[std::string(key)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      throw std::runtime_error("dangling option without a value");
    }
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return values_.find(key) != values_.end();
  }
  [[nodiscard]] std::string get(std::string_view key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require(std::string_view key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error(std::string("missing --").append(key));
    }
    return it->second;
  }
  /// `--key` as a T, or `fallback` when absent. The whole value must be
  /// decimal digits that fit in T: a sign, trailing text or an
  /// out-of-range value is an error that names the option.
  template <typename T>
  [[nodiscard]] T number(std::string_view key, T fallback) const {
    static_assert(std::is_integral_v<T>);
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    T value{};
    const auto parsed = std::from_chars(text.data(), end, value);
    if (text.empty() || text[0] == '-' || parsed.ec != std::errc{} ||
        parsed.ptr != end) {
      throw std::runtime_error(
          std::string("--").append(key).append(" wants an integer in [0, ")
              .append(std::to_string(std::numeric_limits<T>::max()))
              .append("], got ").append(text));
    }
    return value;
  }
  [[nodiscard]] double real(std::string_view key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace scrubber::tools
