#pragma once
// `--key value` argument parser shared by the command-line tools (ixpd,
// scrubberctl, scrubber-loadgen). Each caller passes the options it reads;
// any other --key is an error that names it, so a typo or a retired flag
// fails loudly instead of being ignored.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

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
  [[nodiscard]] std::uint64_t number(std::string_view key,
                                     std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  [[nodiscard]] double real(std::string_view key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace scrubber::tools
