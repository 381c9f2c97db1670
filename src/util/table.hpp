#pragma once
// Plain-text table renderer used by the benchmark harnesses to print the
// paper's tables and figure series in aligned, readable form.

#include <cstdint>
#include <string>
#include <vector>

namespace scrubber::util {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class TextTable {
 public:
  /// Sets the header row (optional).
  void set_header(std::vector<std::string> header) { header_ = std::move(header); }

  /// Appends a data row. Rows may have differing cell counts.
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Renders the table with column alignment and a header separator.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals.
[[nodiscard]] std::string fmt(double value, int decimals = 3);

/// Formats a count with thousands separators (e.g. 1,234,567).
[[nodiscard]] std::string fmt_count(std::uint64_t value);

/// Formats a ratio as a percentage string with the given decimals.
[[nodiscard]] std::string fmt_pct(double ratio, int decimals = 2);

/// Renders a unicode sparkline-ish horizontal bar of width `width` for a
/// value in [0, 1]; used for figure-style output in benches.
[[nodiscard]] std::string bar(double fraction, int width = 40);

}  // namespace scrubber::util
