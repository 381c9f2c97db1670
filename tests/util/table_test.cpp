#include "util/table.hpp"

#include <gtest/gtest.h>

namespace scrubber::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.render();
  // Each row has the same position for the second column.
  const auto lines_start = out.find("a ");
  EXPECT_NE(lines_start, std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(TextTable, HeaderSeparatorPresent) {
  TextTable table;
  table.set_header({"h"});
  table.add_row({"x"});
  EXPECT_NE(table.render().find("-"), std::string::npos);
}

TEST(TextTable, NoHeaderNoSeparator) {
  TextTable table;
  table.add_row({"x", "y"});
  EXPECT_EQ(table.render().find("-"), std::string::npos);
}

TEST(TextTable, RaggedRowsSupported) {
  TextTable table;
  table.add_row({"a"});
  table.add_row({"b", "c", "d"});
  const std::string out = table.render();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("d"), std::string::npos);
}

TEST(Format, Fmt) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-0.5, 3), "-0.500");
}

TEST(Format, FmtCount) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(1000000000ULL), "1,000,000,000");
}

TEST(Format, FmtPct) {
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_pct(0.123456, 2), "12.35%");
}

TEST(Format, Bar) {
  EXPECT_EQ(bar(0.0, 4), "....");
  EXPECT_EQ(bar(1.0, 4), "####");
  EXPECT_EQ(bar(0.5, 4), "##..");
  EXPECT_EQ(bar(2.0, 4), "####");   // clamped
  EXPECT_EQ(bar(-1.0, 4), "....");  // clamped
}

}  // namespace
}  // namespace scrubber::util
