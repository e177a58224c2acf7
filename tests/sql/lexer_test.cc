#include "sql/lexer.h"

#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"

namespace cdpd {
namespace {

// The tokens of `sql`, whose texts view into `sql`.
Result<std::vector<Token>> Lex(std::string_view sql) {
  std::vector<Token> tokens;
  CDPD_RETURN_IF_ERROR(Tokenize(sql, &tokens));
  return tokens;
}

TEST(LexerTest, EmptyInputYieldsEndToken) {
  auto tokens = Lex("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ(tokens->front().type, TokenType::kEnd);
}

TEST(LexerTest, TokenizesSelectStatement) {
  auto tokens = Lex("SELECT a FROM t WHERE a = 42");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // 8 tokens + end.
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[6].type, TokenType::kEquals);
  EXPECT_EQ((*tokens)[7].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[7].value, 42);
}

TEST(LexerTest, SymbolsAndStar) {
  auto tokens = Lex("( ) , = * ;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLeftParen);
  EXPECT_EQ((*tokens)[1].type, TokenType::kRightParen);
  EXPECT_EQ((*tokens)[2].type, TokenType::kComma);
  EXPECT_EQ((*tokens)[3].type, TokenType::kEquals);
  EXPECT_EQ((*tokens)[4].type, TokenType::kStar);
  EXPECT_EQ((*tokens)[5].type, TokenType::kSemicolon);
}

TEST(LexerTest, NegativeIntegers) {
  auto tokens = Lex("-17");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[0].value, -17);
}

TEST(LexerTest, Int64Boundaries) {
  auto max = Lex("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].value, INT64_MAX);
  auto min = Lex("-9223372036854775808");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ((*min)[0].value, INT64_MIN);
}

TEST(LexerTest, OverflowingIntegerIsParseError) {
  EXPECT_EQ(Lex("9223372036854775808").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Lex("-9223372036854775809").status().code(),
            StatusCode::kParseError);
}

TEST(LexerTest, StrayMinusIsParseError) {
  EXPECT_EQ(Lex("- x").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, IdentifiersWithUnderscoresAndDigits) {
  auto tokens = Lex("col_1 _tmp x9");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "col_1");
  EXPECT_EQ((*tokens)[1].text, "_tmp");
  EXPECT_EQ((*tokens)[2].text, "x9");
}

TEST(LexerTest, UnknownCharacterIsParseError) {
  const auto status = Lex("SELECT @ FROM t").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("'@'"), std::string::npos);
}

TEST(LexerTest, PositionsAreByteOffsets) {
  auto tokens = Lex("ab  cd");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].position, 0u);
  EXPECT_EQ((*tokens)[1].position, 4u);
}

}  // namespace
}  // namespace cdpd
