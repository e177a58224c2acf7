// SQL front-end fuzzing: (a) every valid bound statement round-trips
// through print -> parse -> bind unchanged, and every blocked workload
// through WriteTrace -> ReadTrace; (b) arbitrary byte soup, shuffled
// token soup and multi-line trace soup never crash the lexer, parser
// or trace reader — they return a Status or a legitimate parse; (c) on
// byte, token and statement soup, a one-line ReadTrace answers exactly
// as ParseStatement + the trace's DDL check + BindStatement do.

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/statement.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

class SqlRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

BoundStatement RandomStatement(Rng* rng, const Schema& schema) {
  const auto col = [&] {
    return static_cast<ColumnId>(
        rng->NextBounded(static_cast<uint64_t>(schema.num_columns())));
  };
  const auto value = [&] { return rng->UniformInt(-1'000'000, 1'000'000); };
  switch (rng->NextBounded(4)) {
    case 0:
      return BoundStatement::SelectPoint(col(), col(), value());
    case 1: {
      const Value lo = value();
      return BoundStatement::SelectRange(col(), col(), lo,
                                         lo + rng->UniformInt(0, 10'000));
    }
    case 2:
      return BoundStatement::UpdatePoint(col(), value(), col(), value());
    default: {
      std::vector<Value> values;
      for (int32_t i = 0; i < schema.num_columns(); ++i) {
        values.push_back(value());
      }
      return BoundStatement::Insert(std::move(values));
    }
  }
}

TEST_P(SqlRoundTripFuzz, BoundStatementsSurvivePrintParseBind) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const BoundStatement original = RandomStatement(&rng, schema);
    const std::string sql = original.ToString(schema);
    auto ast = ParseStatement(sql);
    ASSERT_TRUE(ast.ok()) << sql << " -> " << ast.status();
    auto bound = BindStatement(schema, ast.value());
    ASSERT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    EXPECT_EQ(*bound, original) << sql;
  }
}

TEST_P(SqlRoundTripFuzz, BlockedTracesSurviveWriteRead) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0x7ace);
  for (int round = 0; round < 20; ++round) {
    Workload original;
    original.block_size = 1 + rng.NextBounded(12);
    const size_t blocks = 2 + rng.NextBounded(5);
    // The last block may be partial.
    const size_t total = (blocks - 1) * original.block_size + 1 +
                         rng.NextBounded(original.block_size);
    for (size_t i = 0; i < total; ++i) {
      original.statements.push_back(RandomStatement(&rng, schema));
    }
    for (size_t b = 0; b < blocks; ++b) {
      original.block_mix_names.push_back(
          std::string(1, static_cast<char>('A' + rng.NextBounded(4))));
    }
    // Interleave comments and blank lines, and vary the line endings,
    // indentation and final newline.
    const std::string written = WriteTrace(schema, original);
    std::string text;
    size_t begin = 0;
    while (begin < written.size()) {
      const size_t end = written.find('\n', begin);
      switch (rng.NextBounded(5)) {
        case 0:
          text += "-- note " + std::to_string(rng.NextBounded(100)) + "\n";
          break;
        case 1:
          text += rng.NextBounded(2) == 0 ? "\n" : " \t\r\n";
          break;
        case 2:
          text += '\t';
          break;
        default:
          break;
      }
      text.append(written, begin, end - begin);
      const bool last = end + 1 == written.size();
      if (!last || rng.NextBounded(2) == 0) {
        text += rng.NextBounded(3) == 0 ? "\r\n" : "\n";
      }
      begin = end + 1;
    }
    auto parsed = ReadTrace(schema, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    EXPECT_EQ(parsed->statements, original.statements) << text;
    EXPECT_EQ(parsed->block_mix_names, original.block_mix_names) << text;
    EXPECT_EQ(parsed->block_size, original.block_size) << text;
  }
}

std::string ByteSoup(Rng* rng) {
  static const std::string_view kAlphabet =
      "SELECTUPDAINRTOVWHBFMXabcd0123456789 ()=,;*-\t\n_";
  std::string soup;
  const size_t length = rng->NextBounded(60);
  for (size_t j = 0; j < length; ++j) {
    soup += kAlphabet[rng->NextBounded(kAlphabet.size())];
  }
  return soup;
}

std::string TokenSoup(Rng* rng) {
  static const char* const kTokens[] = {
      "SELECT", "UPDATE", "INSERT", "INTO",  "VALUES", "FROM", "WHERE",
      "SET",    "BETWEEN", "AND",   "CREATE", "DROP",  "INDEX", "ON",
      "t",      "a",      "b",      "(",     ")",      ",",    "=",
      "42",     "-7",     ";"};
  std::string soup;
  const size_t length = rng->NextBounded(12);
  for (size_t j = 0; j < length; ++j) {
    soup += kTokens[rng->NextBounded(std::size(kTokens))];
    soup += ' ';
  }
  return soup;
}

/// A valid statement (DML or index DDL) with up to two word-level
/// mutations: a word replaced by an unknown or mixed-case name, a
/// literal or a symbol, dropped, doubled, or swapped with its
/// neighbour (which puts BETWEEN bounds out of order). Most results
/// parse, so binding and its error precedence get exercised too.
std::string StatementSoup(Rng* rng, const Schema& schema) {
  static const char* const kWords[] = {"u",  "T",  "zz", "A",  "yy",
                                       "B",  "5",  "-3", ";",  ";;",
                                       "BETWEEN", "AND", "(", ")", ","};
  std::string sql;
  switch (rng->NextBounded(6)) {
    case 0:
      sql = "CREATE INDEX ON t (a, b)";
      break;
    case 1:
      sql = "DROP INDEX ON t (c)";
      break;
    default:
      sql = RandomStatement(rng, schema).ToString(schema);
      break;
  }
  std::vector<std::string> words = Split(sql, ' ');
  const uint64_t mutations = rng->NextBounded(3);
  for (uint64_t m = 0; m < mutations && !words.empty(); ++m) {
    const size_t at = rng->NextBounded(words.size());
    switch (rng->NextBounded(6)) {
      case 0:
        words.erase(words.begin() + static_cast<ptrdiff_t>(at));
        break;
      case 1:
        words.insert(words.begin() + static_cast<ptrdiff_t>(at), words[at]);
        break;
      case 2:
        if (at + 1 < words.size()) std::swap(words[at], words[at + 1]);
        break;
      default:
        words[at] = kWords[rng->NextBounded(std::size(kWords))];
        break;
    }
  }
  return Join(words, " ");
}

TEST_P(SqlRoundTripFuzz, ByteSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xf00d);
  for (int i = 0; i < 2000; ++i) {
    const std::string soup = ByteSoup(&rng);
    // Must not crash; outcome (ok or error) is irrelevant.
    auto result = ParseStatement(soup);
    if (result.ok()) {
      // Whatever parsed must print back to something parseable.
      EXPECT_TRUE(ParseStatement(AstToString(result.value())).ok());
    }
  }
}

TEST_P(SqlRoundTripFuzz, TokenSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xbeef);
  for (int i = 0; i < 2000; ++i) {
    auto result = ParseStatement(TokenSoup(&rng));
    (void)result;
  }
}

TEST_P(SqlRoundTripFuzz, LexerHandlesArbitraryBytes) {
  Rng rng(GetParam() ^ 0xcafe);
  std::vector<Token> tokens;
  for (int i = 0; i < 500; ++i) {
    std::string bytes;
    const size_t length = rng.NextBounded(40);
    for (size_t j = 0; j < length; ++j) {
      bytes += static_cast<char>(rng.NextBounded(127) + 1);  // No NUL.
    }
    if (Tokenize(bytes, &tokens).ok()) {
      EXPECT_EQ(tokens.back().type, TokenType::kEnd);
    }
  }
}

TEST_P(SqlRoundTripFuzz, TraceSoupNeverCrashes) {
  // Multi-line soup of statements (some malformed), blank lines, CRLF
  // endings and block markers with arbitrary int64 numbers. A marker
  // adds at most one block, whatever its number, so a trace never holds
  // more blocks than markers.
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0xb10c);
  const std::vector<std::string> lines = {
      "SELECT a FROM t WHERE a = 1;", "UPDATE t SET b = 2 WHERE c = 3;",
      "INSERT INTO t VALUES (1, 2, 3, 4);",
      "SELECT b FROM t WHERE b BETWEEN 1 AND 9;", "SELEC a FROM t;",
      "SELECT zz FROM t WHERE a = 1;", "-- a comment", "", "  \t",
      "-- block party"};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    size_t markers = 0;
    const size_t length = 1 + rng.NextBounded(30);
    const size_t minus_one_at = rng.NextBounded(length);
    for (size_t j = 0; j < length; ++j) {
      if (j == minus_one_at) {
        text += "-- block -1";
        ++markers;
      } else if (rng.NextBounded(3) == 0) {
        const int64_t block = rng.NextBounded(2) == 0
                                  ? static_cast<int64_t>(rng.Next())
                                  : rng.UniformInt(-2, 4);
        text += "-- block " + std::to_string(block);
        if (rng.NextBounded(2) == 0) text += " mix B";
        ++markers;
      } else {
        text += lines[rng.NextBounded(lines.size())];
      }
      text += rng.NextBounded(4) == 0 ? "\r\n" : "\n";
    }
    auto parsed = ReadTrace(schema, text);
    if (parsed.ok()) {
      EXPECT_LE(parsed->block_mix_names.size(), markers) << text;
    } else {
      EXPECT_NE(parsed.status().message().rfind("line ", 0), std::string::npos)
          << parsed.status();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTripFuzz,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ReadTrace binds each line straight from its tokens; ParseStatement
// materialises an AST that BindStatement then binds. Both run the one
// grammar and the one binder, and must answer every line alike.
class SqlDifferential : public ::testing::TestWithParam<uint64_t> {};

/// The AST path a one-line trace must agree with.
Result<BoundStatement> ParseCheckBind(const Schema& schema,
                                      std::string_view line) {
  CDPD_ASSIGN_OR_RETURN(StatementAst ast, ParseStatement(line));
  if (std::holds_alternative<CreateIndexAst>(ast) ||
      std::holds_alternative<DropIndexAst>(ast)) {
    return Status::InvalidArgument(
        "index DDL is not allowed in a workload trace");
  }
  return BindStatement(schema, ast);
}

/// Checks one soup as a one-line trace. ReadTrace splits at newlines,
/// trims each line and skips blank lines and "--" comments, so the soup
/// is flattened and trimmed first, and comments and blanks (which are
/// not statements) are left out. Returns whether the soup was checked.
bool ExpectTraceMatchesAstPath(const Schema& schema, std::string soup) {
  std::replace(soup.begin(), soup.end(), '\n', ' ');
  const std::string_view line = Trim(soup);
  if (line.empty() || line.substr(0, 2) == "--") return false;
  const Result<Workload> trace = ReadTrace(schema, line);
  const Result<BoundStatement> direct = ParseCheckBind(schema, line);
  EXPECT_EQ(trace.status().code(), direct.status().code())
      << line << "\n  trace: " << trace.status()
      << "\n  ast:   " << direct.status();
  if (!direct.ok()) {
    EXPECT_EQ(trace.status().message(), "line 1: " + direct.status().message())
        << line;
  } else if (trace.ok()) {
    EXPECT_EQ(trace->statements, std::vector<BoundStatement>{*direct}) << line;
  }
  return true;
}

TEST_P(SqlDifferential, ByteSoup) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0xf00d);
  for (int i = 0; i < 2000; ++i) {
    ExpectTraceMatchesAstPath(schema, ByteSoup(&rng));
  }
}

TEST_P(SqlDifferential, TokenSoup) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0xbeef);
  int checked = 0;
  for (int i = 0; i < 2000; ++i) {
    checked += ExpectTraceMatchesAstPath(schema, TokenSoup(&rng)) ? 1 : 0;
  }
  EXPECT_GT(checked, 1500);
}

TEST_P(SqlDifferential, StatementSoup) {
  // Every statement soup is a line; a fair share binds, and a fair
  // share fails in each of the grammar, the DDL check and the binder.
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0x5eed);
  int bound = 0;
  int parse_errors = 0;
  int other_errors = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string soup = StatementSoup(&rng, schema);
    ASSERT_TRUE(ExpectTraceMatchesAstPath(schema, soup)) << soup;
    const StatusCode code = ReadTrace(schema, soup).status().code();
    bound += code == StatusCode::kOk ? 1 : 0;
    parse_errors += code == StatusCode::kParseError ? 1 : 0;
    other_errors += code != StatusCode::kOk && code != StatusCode::kParseError;
  }
  EXPECT_GT(bound, 200);
  EXPECT_GT(parse_errors, 200);
  EXPECT_GT(other_errors, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferential,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cdpd
