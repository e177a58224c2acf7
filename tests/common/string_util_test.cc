#include "common/string_util.h"

#include <gtest/gtest.h>

namespace cdpd {
namespace {

TEST(StringUtilTest, JoinEmpty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringUtilTest, JoinSingle) { EXPECT_EQ(Join({"a"}, ","), "a"); }

TEST(StringUtilTest, JoinMany) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, SplitBasic) {
  const std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyStringYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  // ASCII whitespace only: \xa0 (a no-break space in Latin-1) stays.
  EXPECT_EQ(Trim("\v\f\r x \xa0"), "x \xa0");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt * FROM T"), "select * from t");
  // Only 'A'..'Z' fold; the bytes around them and non-ASCII bytes stay.
  EXPECT_EQ(ToLower("@AZ[\xc4"), "@az[\xc4");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("@", "`"));
  EXPECT_FALSE(EqualsIgnoreCase("\xc4", "\xe4"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.143), "14.3%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
  EXPECT_EQ(FormatPercent(0.005, 1), "0.5%");
}

}  // namespace
}  // namespace cdpd
