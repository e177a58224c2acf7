// Golden error corpus for the SQL front end: malformed statements,
// scripts and traces, each pinned to its exact Status code and message.
// Lexing is eager, so a lexical error anywhere in a statement is
// reported before a grammar error that precedes it.

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

struct CorpusCase {
  enum class Input { kStatement, kScript, kTrace };

  const char* name;
  Input input;
  const char* text;
  StatusCode code;
  const char* message;
};

using Input = CorpusCase::Input;

// Without this, gtest prints a case as its raw bytes, pointers included,
// and the discovered ctest names change with every build and load address.
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name; }

constexpr CorpusCase kCorpus[] = {
    {"StrayMinus", Input::kStatement,
     "SELECT a FROM t WHERE a = - 1",
     StatusCode::kParseError,
     "stray '-' at offset 26"},
    {"StrayMinusAtEnd", Input::kStatement,
     "SELECT a FROM t WHERE a = -",
     StatusCode::kParseError,
     "stray '-' at offset 26"},
    {"PositiveOverflow", Input::kStatement,
     "SELECT a FROM t WHERE a = 9223372036854775808",
     StatusCode::kParseError,
     "integer literal out of range at offset 26"},
    {"NegativeOverflow", Input::kStatement,
     "SELECT a FROM t WHERE a = -9223372036854775809",
     StatusCode::kParseError,
     "integer literal out of range at offset 26"},
    {"HighByte", Input::kStatement,
     "SELECT \xc3" "\xa9" " FROM t WHERE a = 1",
     StatusCode::kParseError,
     "unexpected character '\xc3" "' at offset 7"},
    {"Dollar", Input::kStatement,
     "SELECT a FROM t WHERE a = 1 $",
     StatusCode::kParseError,
     "unexpected character '$' at offset 28"},
    {"GrammarErrorBeforeLexicalError", Input::kStatement,
     "SELEC a FROM t WHERE a = 1 $",
     StatusCode::kParseError,
     "unexpected character '$' at offset 27"},
    {"EmptyStatement", Input::kStatement,
     "",
     StatusCode::kParseError,
     "empty statement"},
    {"BlankStatement", Input::kStatement,
     " \t ",
     StatusCode::kParseError,
     "empty statement"},
    {"LoneSemicolon", Input::kStatement,
     ";",
     StatusCode::kParseError,
     "expected SELECT, UPDATE, INSERT, CREATE or DROP at offset 0 (got ';')"},
    {"UnknownVerb", Input::kStatement,
     "DELETE FROM t WHERE a = 1",
     StatusCode::kParseError,
     "expected SELECT, UPDATE, INSERT, CREATE or DROP at offset 0 (got 'DELETE')"},
    {"SelectStar", Input::kStatement,
     "SELECT * FROM t WHERE a = 1",
     StatusCode::kParseError,
     "expected select column at offset 7 (got '*')"},
    {"SelectMissingFrom", Input::kStatement,
     "SELECT a t WHERE a = 1",
     StatusCode::kParseError,
     "expected keyword 'FROM' at offset 9 (got 't')"},
    {"SelectTableIsInteger", Input::kStatement,
     "SELECT a FROM 5 WHERE a = 1",
     StatusCode::kParseError,
     "expected table name at offset 14 (got '5')"},
    {"SelectMissingWhere", Input::kStatement,
     "SELECT a FROM t",
     StatusCode::kParseError,
     "expected keyword 'WHERE' at offset 15"},
    {"SelectMissingPredicateColumn", Input::kStatement,
     "SELECT a FROM t WHERE = 1",
     StatusCode::kParseError,
     "expected predicate column at offset 22 (got '=')"},
    {"SelectMissingEquals", Input::kStatement,
     "SELECT a FROM t WHERE a 1",
     StatusCode::kParseError,
     "expected '=' at offset 24 (got '1')"},
    {"SelectLiteralIsIdentifier", Input::kStatement,
     "SELECT a FROM t WHERE a = b",
     StatusCode::kParseError,
     "expected integer literal at offset 26 (got 'b')"},
    {"BetweenMissingLowerBound", Input::kStatement,
     "SELECT a FROM t WHERE a BETWEEN x AND 5",
     StatusCode::kParseError,
     "expected integer lower bound at offset 32 (got 'x')"},
    {"BetweenMissingAnd", Input::kStatement,
     "SELECT a FROM t WHERE a BETWEEN 1 5",
     StatusCode::kParseError,
     "expected keyword 'AND' at offset 34 (got '5')"},
    {"BetweenMissingUpperBound", Input::kStatement,
     "SELECT a FROM t WHERE a BETWEEN 1 AND",
     StatusCode::kParseError,
     "expected integer upper bound at offset 37"},
    {"BetweenBoundsOutOfOrder", Input::kStatement,
     "SELECT a FROM t WHERE a BETWEEN 5 AND 1",
     StatusCode::kParseError,
     "BETWEEN bounds out of order at offset 39"},
    {"TrailingInteger", Input::kStatement,
     "SELECT a FROM t WHERE a = 1 2",
     StatusCode::kParseError,
     "trailing input after statement at offset 28 (got '2')"},
    {"TrailingAfterSemicolon", Input::kStatement,
     "SELECT a FROM t WHERE a = 1; SELECT",
     StatusCode::kParseError,
     "trailing input after statement at offset 29 (got 'SELECT')"},
    {"UpdateMissingSet", Input::kStatement,
     "UPDATE t a = 1 WHERE b = 2",
     StatusCode::kParseError,
     "expected keyword 'SET' at offset 9 (got 'a')"},
    {"UpdateSetLiteralIsIdentifier", Input::kStatement,
     "UPDATE t SET a = x WHERE b = 2",
     StatusCode::kParseError,
     "expected integer literal at offset 17 (got 'x')"},
    {"UpdateMissingWhereEquals", Input::kStatement,
     "UPDATE t SET a = 1 WHERE b 2",
     StatusCode::kParseError,
     "expected '=' at offset 27 (got '2')"},
    {"InsertMissingInto", Input::kStatement,
     "INSERT t VALUES (1)",
     StatusCode::kParseError,
     "expected keyword 'INTO' at offset 7 (got 't')"},
    {"InsertMissingValues", Input::kStatement,
     "INSERT INTO t (1, 2)",
     StatusCode::kParseError,
     "expected keyword 'VALUES' at offset 14 (got '(')"},
    {"InsertMissingLeftParen", Input::kStatement,
     "INSERT INTO t VALUES 1, 2",
     StatusCode::kParseError,
     "expected '(' at offset 21 (got '1')"},
    {"InsertEmptyValueList", Input::kStatement,
     "INSERT INTO t VALUES ()",
     StatusCode::kParseError,
     "expected integer value at offset 22 (got ')')"},
    {"InsertMissingRightParen", Input::kStatement,
     "INSERT INTO t VALUES (1, 2",
     StatusCode::kParseError,
     "expected ')' at offset 26"},
    {"CreateMissingIndex", Input::kStatement,
     "CREATE TABLE ON t (a)",
     StatusCode::kParseError,
     "expected keyword 'INDEX' at offset 7 (got 'TABLE')"},
    {"CreateMissingOn", Input::kStatement,
     "CREATE INDEX t (a)",
     StatusCode::kParseError,
     "expected keyword 'ON' at offset 13 (got 't')"},
    {"CreateColumnIsInteger", Input::kStatement,
     "CREATE INDEX ON t (1)",
     StatusCode::kParseError,
     "expected column name at offset 19 (got '1')"},
    {"DropMissingRightParen", Input::kStatement,
     "DROP INDEX ON t (a, b",
     StatusCode::kParseError,
     "expected ')' at offset 21"},
    {"ScriptSecondStatementBad", Input::kScript,
     "SELECT a FROM t WHERE a = 1;  SELEC b FROM t WHERE b = 2;",
     StatusCode::kParseError,
     "expected SELECT, UPDATE, INSERT, CREATE or DROP at offset 2 (got 'SELEC')"},
    {"ScriptLexicalError", Input::kScript,
     "SELECT a FROM t WHERE a = 1; ; UPDATE t SET a = 1 WHERE b = @",
     StatusCode::kParseError,
     "unexpected character '@' at offset 30"},
    {"TraceCreateIndex", Input::kTrace,
     "CREATE INDEX ON t (a);\n",
     StatusCode::kInvalidArgument,
     "line 1: index DDL is not allowed in a workload trace"},
    {"TraceDropIndexOnLineThree", Input::kTrace,
     "-- header\n\nDROP INDEX ON t (a, b);\n",
     StatusCode::kInvalidArgument,
     "line 3: index DDL is not allowed in a workload trace"},
    {"TraceUnknownTable", Input::kTrace,
     "SELECT a FROM u WHERE a = 1;\n",
     StatusCode::kInvalidArgument,
     "line 1: unknown table 'u' (schema is 't')"},
    {"TraceUnknownColumn", Input::kTrace,
     "SELECT a FROM t WHERE a = 1;\nSELECT zz FROM t WHERE a = 1;\n",
     StatusCode::kNotFound,
     "line 2: no column 'zz' in table 't'"},
    {"TraceInsertArity", Input::kTrace,
     "INSERT INTO t VALUES (1, 2);\n",
     StatusCode::kInvalidArgument,
     "line 1: INSERT supplies 2 values; table has 4 columns"},
    {"TraceCrlfParseError", Input::kTrace,
     "SELECT a FROM t WHERE a = 1;\r\nSELEC b FROM t WHERE b = 2;\r\n",
     StatusCode::kParseError,
     "line 2: expected SELECT, UPDATE, INSERT, CREATE or DROP at offset 0 (got 'SELEC')"},
    {"TraceTabsLexicalError", Input::kTrace,
     "\tSELECT a FROM\tt WHERE a = 1;\n\tSELECT a FROM t WHERE a = $;\n",
     StatusCode::kParseError,
     "line 2: unexpected character '$' at offset 26"},
    {"TraceNoFinalNewline", Input::kTrace,
     "SELECT a FROM t WHERE a = 1;\nSELECT a FROM t WHERE a BETWEEN 2 AND",
     StatusCode::kParseError,
     "line 2: expected integer upper bound at offset 37"},
    {"TraceMixedCaseKeywords", Input::kTrace,
     "select a from T where A = 1;\nSeLeCt b FrOm t WhErE b BeTwEeN 9 aNd 1;\n",
     StatusCode::kParseError,
     "line 2: BETWEEN bounds out of order at offset 39 (got ';')"},
    {"TraceGrammarErrorBeforeLexicalError", Input::kTrace,
     "-- c\n\nSELEC a FROM t WHERE a = 1 $;\n",
     StatusCode::kParseError,
     "line 3: unexpected character '$' at offset 27"},
    {"TraceCrlfTabsMixedCaseOk", Input::kTrace,
     "-- c\r\n\r\n\tsElEcT a fRoM t wHeRe b = 1;\r\nUPDATE t SET c = -4 WHERE d = 9;\r\ninsert into t values (1, 2, 3, 4)",
     StatusCode::kOk,
     ""},
    // Precedence on one line: lexical, then grammar, then the DDL
    // rejection, then binding (the table, then columns in binder order).
    {"TraceParseErrorBeforeUnknownColumn", Input::kTrace,
     "SELECT zz FROM t WHERE yy BETWEEN 5 AND 1;\n",
     StatusCode::kParseError,
     "line 1: BETWEEN bounds out of order at offset 41 (got ';')"},
    {"TraceUnknownTableBeforeUnknownColumn", Input::kTrace,
     "SELECT zz FROM u WHERE a = 1\n",
     StatusCode::kInvalidArgument,
     "line 1: unknown table 'u' (schema is 't')"},
    {"TraceSelectColumnBeforeWhereColumn", Input::kTrace,
     "SELECT zz FROM t WHERE yy = 1\n",
     StatusCode::kNotFound,
     "line 1: no column 'zz' in table 't'"},
    {"TraceSetColumnBeforeWhereColumn", Input::kTrace,
     "UPDATE t SET zz = 1 WHERE yy = 2\n",
     StatusCode::kNotFound,
     "line 1: no column 'zz' in table 't'"},
    {"TraceUnknownTableBeforeArity", Input::kTrace,
     "INSERT INTO u VALUES (1, 2)\n",
     StatusCode::kInvalidArgument,
     "line 1: unknown table 'u' (schema is 't')"},
    {"TraceDdlBeforeUnknownTable", Input::kTrace,
     "SELECT a FROM t WHERE a = 1;\nCREATE INDEX ON u (zz);\n",
     StatusCode::kInvalidArgument,
     "line 2: index DDL is not allowed in a workload trace"},
    {"TraceDoubleSemicolon", Input::kTrace,
     "SELECT a FROM t WHERE a = 1;;\n",
     StatusCode::kParseError,
     "line 1: trailing input after statement at offset 28 (got ';')"},
    {"TraceMixedCaseNamesBind", Input::kTrace,
     "SELECT A FROM T WHERE B BETWEEN 1 AND 2;\nUpdate T set C = 3 where D = 4;\nINSERT INTO T VALUES (5, 6, 7, 8);\n",
     StatusCode::kOk,
     ""},
};

class ErrorCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(ErrorCorpusTest, StatusIsPinned) {
  const CorpusCase& c = GetParam();
  const Schema schema = MakePaperSchema();
  Status status;
  switch (c.input) {
    case Input::kStatement:
      status = ParseStatement(c.text).status();
      break;
    case Input::kScript:
      status = ParseScript(c.text).status();
      break;
    case Input::kTrace:
      status = ReadTrace(schema, c.text).status();
      break;
  }
  EXPECT_EQ(status.code(), c.code) << status;
  EXPECT_EQ(status.message(), c.message);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ErrorCorpusTest, ::testing::ValuesIn(kCorpus),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cdpd
