// Tests for common/table.hpp — the bench harness output formats.
#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace codesign {
namespace {

TEST(TableWriter, CsvOutput) {
  TableWriter t({"name", "value"});
  t.new_row().cell("a").cell(std::int64_t{1});
  t.new_row().cell("b").cell(2.5, 1);
  const std::string csv = t.render(TableFormat::kCsv);
  EXPECT_EQ(csv, "name,value\na,1\nb,2.5\n");
}

TEST(TableWriter, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(TableWriter, AsciiAlignsColumns) {
  TableWriter t({"x", "longer"});
  t.new_row().cell("aaaa").cell("b");
  const std::string out = t.render(TableFormat::kAscii);
  // Header, rule lines, and the row must all be present.
  EXPECT_NE(out.find("| x    | longer |"), std::string::npos);
  EXPECT_NE(out.find("| aaaa | b      |"), std::string::npos);
  EXPECT_NE(out.find("+------+--------+"), std::string::npos);
}

TEST(TableWriter, MarkdownFormat) {
  TableWriter t({"a", "b"});
  t.new_row().cell("1").cell("2");
  const std::string out = t.render(TableFormat::kMarkdown);
  EXPECT_NE(out.find("| a | b |"), std::string::npos);
  EXPECT_NE(out.find("|---|---|"), std::string::npos);
  EXPECT_NE(out.find("| 1 | 2 |"), std::string::npos);
}

TEST(TableWriter, AddRowValidatesWidth) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  t.add_row({"x", "y"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableWriter, PendingRowWidthChecked) {
  TableWriter t({"a", "b"});
  t.new_row().cell("only-one");
  EXPECT_THROW(t.render(), Error);  // flushing the short row fails
}

TEST(TableWriter, CellBeforeRowThrows) {
  TableWriter t({"a"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(TableWriter, EmptyHeaderRejected) {
  EXPECT_THROW(TableWriter({}), Error);
}

TEST(TableWriter, DoublePrecision) {
  TableWriter t({"v"});
  t.new_row().cell(3.14159, 2);
  EXPECT_NE(t.render(TableFormat::kCsv).find("3.14"), std::string::npos);
}

// What cell(double, precision) rendered through before it used to_chars:
// an ios::fixed ostringstream, kept here as the byte oracle.
std::string stream_fixed(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

TEST(TableWriter, DoubleCellsMatchFixedStreamFormatting) {
  std::vector<double> values = {
      0.0, -0.0, 0.5, 1.5, 2.5, -2.5, 0.125, 0.0005, 1e-7, 123456.789,
      1e15, 1e22, -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-8, 20);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
  }
  for (const double v : values) {
    for (int precision = 0; precision <= 6; ++precision) {
      TableWriter t({"v"});
      t.new_row().cell(v, precision);
      ASSERT_EQ(t.render(TableFormat::kCsv),
                "v\n" + stream_fixed(v, precision) + "\n")
          << "precision " << precision;
    }
  }
}

TEST(TableWriter, MultipleRowsInOrder) {
  TableWriter t({"i"});
  for (int i = 0; i < 5; ++i) t.new_row().cell(static_cast<std::int64_t>(i));
  const std::string csv = t.render(TableFormat::kCsv);
  EXPECT_EQ(csv, "i\n0\n1\n2\n3\n4\n");
  EXPECT_EQ(t.num_rows(), 5u);
}

}  // namespace
}  // namespace codesign
