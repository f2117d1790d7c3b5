#include "common/table.hpp"

#include <gtest/gtest.h>

namespace quartz {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  // Header rule line present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, MixedCellTypesFormat) {
  Table t({"int", "double", "string"});
  t.add(42, 3.14159, "hello");
  const std::string text = t.to_text();
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("3.142"), std::string::npos);  // %.4g
  EXPECT_NE(text.find("hello"), std::string::npos);
}

TEST(Table, WholeDoublesPrintWithoutDecimals) {
  Table t({"v"});
  t.add(40.0);
  EXPECT_NE(t.to_text().find("40"), std::string::npos);
  EXPECT_EQ(t.to_text().find("40.0"), std::string::npos);
}

}  // namespace
}  // namespace quartz
