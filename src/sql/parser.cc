#include "sql/parser.h"

#include <algorithm>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace cdpd {

namespace {

/// Token cursor with the small helpers the grammar needs. Identifier
/// reads return views into the statement text.
class Cursor {
 public:
  explicit Cursor(const std::vector<Token>& tokens) : tokens_(tokens) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().type == TokenType::kIdentifier &&
           EqualsIgnoreCase(Peek().text, keyword);
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Error("expected keyword '" + std::string(keyword) + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<std::string_view> ExpectIdentifier(std::string_view what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected " + std::string(what));
    }
    return Advance().text;
  }

  Result<int64_t> ExpectInteger(std::string_view what) {
    if (Peek().type != TokenType::kInteger) {
      return Error("expected integer " + std::string(what));
    }
    return Advance().value;
  }

  Status ExpectSymbol(TokenType type, std::string_view symbol) {
    if (Peek().type != type) {
      return Error("expected '" + std::string(symbol) + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ExpectEnd() {
    if (Peek().type == TokenType::kSemicolon) Advance();
    if (!AtEnd()) return Error("trailing input after statement");
    return Status::OK();
  }

  Status Error(std::string message) const {
    message += " at offset " + std::to_string(Peek().position);
    if (!Peek().text.empty()) {
      message += " (got '";
      message += Peek().text;
      message += "')";
    }
    return Status::ParseError(std::move(message));
  }

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

Result<StatementAst> ParseSelect(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("SELECT"));
  SelectAst ast;
  CDPD_ASSIGN_OR_RETURN(ast.select_column,
                        cur->ExpectIdentifier("select column"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("FROM"));
  CDPD_ASSIGN_OR_RETURN(ast.table, cur->ExpectIdentifier("table name"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("WHERE"));
  CDPD_ASSIGN_OR_RETURN(ast.where_column,
                        cur->ExpectIdentifier("predicate column"));
  if (cur->PeekKeyword("BETWEEN")) {
    cur->Advance();
    ast.is_range = true;
    CDPD_ASSIGN_OR_RETURN(ast.where_lo, cur->ExpectInteger("lower bound"));
    CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("AND"));
    CDPD_ASSIGN_OR_RETURN(ast.where_hi, cur->ExpectInteger("upper bound"));
    if (ast.where_lo > ast.where_hi) {
      return cur->Error("BETWEEN bounds out of order");
    }
  } else {
    CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kEquals, "="));
    CDPD_ASSIGN_OR_RETURN(ast.where_value, cur->ExpectInteger("literal"));
  }
  CDPD_RETURN_IF_ERROR(cur->ExpectEnd());
  return StatementAst(std::move(ast));
}

Result<StatementAst> ParseUpdate(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("UPDATE"));
  UpdateAst ast;
  CDPD_ASSIGN_OR_RETURN(ast.table, cur->ExpectIdentifier("table name"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("SET"));
  CDPD_ASSIGN_OR_RETURN(ast.set_column, cur->ExpectIdentifier("set column"));
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kEquals, "="));
  CDPD_ASSIGN_OR_RETURN(ast.set_value, cur->ExpectInteger("literal"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("WHERE"));
  CDPD_ASSIGN_OR_RETURN(ast.where_column,
                        cur->ExpectIdentifier("predicate column"));
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kEquals, "="));
  CDPD_ASSIGN_OR_RETURN(ast.where_value, cur->ExpectInteger("literal"));
  CDPD_RETURN_IF_ERROR(cur->ExpectEnd());
  return StatementAst(std::move(ast));
}

Result<StatementAst> ParseInsert(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("INSERT"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("INTO"));
  InsertAst ast;
  CDPD_ASSIGN_OR_RETURN(ast.table, cur->ExpectIdentifier("table name"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("VALUES"));
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kLeftParen, "("));
  for (;;) {
    CDPD_ASSIGN_OR_RETURN(int64_t value, cur->ExpectInteger("value"));
    ast.values.push_back(value);
    if (cur->Peek().type == TokenType::kComma) {
      cur->Advance();
      continue;
    }
    break;
  }
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kRightParen, ")"));
  CDPD_RETURN_IF_ERROR(cur->ExpectEnd());
  return StatementAst(std::move(ast));
}

Result<std::vector<std::string>> ParseColumnList(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kLeftParen, "("));
  std::vector<std::string> columns;
  for (;;) {
    CDPD_ASSIGN_OR_RETURN(std::string_view column,
                          cur->ExpectIdentifier("column name"));
    columns.emplace_back(column);
    if (cur->Peek().type == TokenType::kComma) {
      cur->Advance();
      continue;
    }
    break;
  }
  CDPD_RETURN_IF_ERROR(cur->ExpectSymbol(TokenType::kRightParen, ")"));
  return columns;
}

Result<StatementAst> ParseCreateIndex(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("CREATE"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("INDEX"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("ON"));
  CreateIndexAst ast;
  CDPD_ASSIGN_OR_RETURN(ast.table, cur->ExpectIdentifier("table name"));
  CDPD_ASSIGN_OR_RETURN(ast.columns, ParseColumnList(cur));
  CDPD_RETURN_IF_ERROR(cur->ExpectEnd());
  return StatementAst(std::move(ast));
}

Result<StatementAst> ParseDropIndex(Cursor* cur) {
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("DROP"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("INDEX"));
  CDPD_RETURN_IF_ERROR(cur->ExpectKeyword("ON"));
  DropIndexAst ast;
  CDPD_ASSIGN_OR_RETURN(ast.table, cur->ExpectIdentifier("table name"));
  CDPD_ASSIGN_OR_RETURN(ast.columns, ParseColumnList(cur));
  CDPD_RETURN_IF_ERROR(cur->ExpectEnd());
  return StatementAst(std::move(ast));
}

Result<StatementAst> ParseOne(Cursor* cur) {
  if (cur->PeekKeyword("SELECT")) return ParseSelect(cur);
  if (cur->PeekKeyword("UPDATE")) return ParseUpdate(cur);
  if (cur->PeekKeyword("INSERT")) return ParseInsert(cur);
  if (cur->PeekKeyword("CREATE")) return ParseCreateIndex(cur);
  if (cur->PeekKeyword("DROP")) return ParseDropIndex(cur);
  return cur->Error("expected SELECT, UPDATE, INSERT, CREATE or DROP");
}

}  // namespace

Result<StatementAst> ParseStatement(std::string_view sql) {
  // Lexing is eager, so a lexical error anywhere in the statement is
  // reported before any grammar error. The buffer holds no strings and
  // is reused by every call on this thread; its views into `sql` go
  // stale when this returns and are never read again, because
  // Tokenize() clears the buffer first.
  thread_local std::vector<Token> tokens;
  CDPD_RETURN_IF_ERROR(Tokenize(sql, &tokens));
  Cursor cur(tokens);
  if (cur.AtEnd()) return Status::ParseError("empty statement");
  return ParseOne(&cur);
}

Result<std::vector<StatementAst>> ParseScript(std::string_view sql) {
  std::vector<StatementAst> statements;
  size_t begin = 0;
  while (begin <= sql.size()) {
    const size_t semicolon = std::min(sql.find(';', begin), sql.size());
    const std::string_view piece = sql.substr(begin, semicolon - begin);
    begin = semicolon + 1;
    if (Trim(piece).empty()) continue;
    CDPD_ASSIGN_OR_RETURN(StatementAst ast, ParseStatement(piece));
    statements.push_back(std::move(ast));
  }
  return statements;
}

}  // namespace cdpd
