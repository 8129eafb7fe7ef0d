#include <gtest/gtest.h>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace solsched::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, PadsShortRows) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.str());
}

TEST(TextTable, EmptyTable) {
  TextTable t;
  EXPECT_EQ(t.str(), "");
}

TEST(Fmt, Decimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(FmtPct, Percentages) {
  EXPECT_EQ(fmt_pct(0.278), "27.8%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Csv, HeaderAndRows) {
  CsvWriter csv({"x", "y"});
  csv.add_row(std::vector<std::string>{"1", "2"});
  csv.add_row(std::vector<double>{3.5, 4.25});
  const std::string s = csv.str();
  EXPECT_EQ(s, "x,y\n1,2\n3.5,4.25\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"v"});
  csv.add_row(std::vector<std::string>{"a,b"});
  csv.add_row(std::vector<std::string>{"say \"hi\""});
  csv.add_row(std::vector<std::string>{"cr\rhere"});
  const std::string s = csv.str();
  EXPECT_NE(s.find("\"a,b\""), std::string::npos);
  EXPECT_NE(s.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(s.find("\"cr\rhere\""), std::string::npos);
}

}  // namespace
}  // namespace solsched::util
