#include "sql/parser.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace cdpd {

namespace {

using Kind = StatementView::Kind;

/// Token cursor with the small helpers the grammar needs. Each Expect*
/// helper returns false on a mismatch after recording the error; the
/// grammar stops at the first one, so that is the one reported. Error
/// text is built only on that path.
class Cursor {
 public:
  explicit Cursor(const std::vector<Token>& tokens) : tokens_(tokens) {}

  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  /// Consumes the next token if it has type `type`.
  bool Accept(TokenType type) {
    if (Peek().type != type) return false;
    ++pos_;
    return true;
  }

  /// Consumes the next token if it is the keyword `keyword`.
  bool AcceptKeyword(std::string_view keyword) {
    if (Peek().type != TokenType::kIdentifier ||
        !EqualsIgnoreCase(Peek().text, keyword)) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool ExpectKeyword(std::string_view keyword) {
    return AcceptKeyword(keyword) ||
           Fail("expected keyword '" + std::string(keyword) + "'");
  }

  bool ExpectIdentifier(std::string_view what, std::string_view* out) {
    if (Peek().type != TokenType::kIdentifier) {
      return Fail("expected " + std::string(what));
    }
    *out = tokens_[pos_++].text;
    return true;
  }

  bool ExpectInteger(std::string_view what, int64_t* out) {
    if (Peek().type != TokenType::kInteger) {
      return Fail("expected integer " + std::string(what));
    }
    *out = tokens_[pos_++].value;
    return true;
  }

  bool ExpectSymbol(TokenType type, std::string_view symbol) {
    return Accept(type) || Fail("expected '" + std::string(symbol) + "'");
  }

  bool ExpectEnd() {
    Accept(TokenType::kSemicolon);
    return AtEnd() || Fail("trailing input after statement");
  }

  /// Records "<message> at offset N (got '<token>')" at the next token
  /// and returns false.
  bool Fail(std::string message) {
    message += " at offset " + std::to_string(Peek().position);
    if (!Peek().text.empty()) {
      message += " (got '";
      message += Peek().text;
      message += "')";
    }
    error_ = Status::ParseError(std::move(message));
    return false;
  }

  Status TakeError() { return std::move(error_); }

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  Status error_;
};

// The productions run after their leading keyword has been consumed.

bool ParseSelect(Cursor* cur, StatementView* v) {
  if (!(cur->ExpectIdentifier("select column", &v->select_column) &&
        cur->ExpectKeyword("FROM") &&
        cur->ExpectIdentifier("table name", &v->table) &&
        cur->ExpectKeyword("WHERE") &&
        cur->ExpectIdentifier("predicate column", &v->where_column))) {
    return false;
  }
  v->is_range = cur->AcceptKeyword("BETWEEN");
  if (!v->is_range) {
    return cur->ExpectSymbol(TokenType::kEquals, "=") &&
           cur->ExpectInteger("literal", &v->where_value) && cur->ExpectEnd();
  }
  if (!(cur->ExpectInteger("lower bound", &v->where_lo) &&
        cur->ExpectKeyword("AND") &&
        cur->ExpectInteger("upper bound", &v->where_hi))) {
    return false;
  }
  if (v->where_lo > v->where_hi) {
    return cur->Fail("BETWEEN bounds out of order");
  }
  return cur->ExpectEnd();
}

bool ParseUpdate(Cursor* cur, StatementView* v) {
  return cur->ExpectIdentifier("table name", &v->table) &&
         cur->ExpectKeyword("SET") &&
         cur->ExpectIdentifier("set column", &v->set_column) &&
         cur->ExpectSymbol(TokenType::kEquals, "=") &&
         cur->ExpectInteger("literal", &v->set_value) &&
         cur->ExpectKeyword("WHERE") &&
         cur->ExpectIdentifier("predicate column", &v->where_column) &&
         cur->ExpectSymbol(TokenType::kEquals, "=") &&
         cur->ExpectInteger("literal", &v->where_value) && cur->ExpectEnd();
}

bool ParseInsert(Cursor* cur, StatementView* v) {
  if (!(cur->ExpectKeyword("INTO") &&
        cur->ExpectIdentifier("table name", &v->table) &&
        cur->ExpectKeyword("VALUES") &&
        cur->ExpectSymbol(TokenType::kLeftParen, "("))) {
    return false;
  }
  do {
    if (!cur->ExpectInteger("value", &v->values.emplace_back())) return false;
  } while (cur->Accept(TokenType::kComma));
  return cur->ExpectSymbol(TokenType::kRightParen, ")") && cur->ExpectEnd();
}

/// INDEX ON ident '(' ident (',' ident)* ')', after CREATE or DROP.
bool ParseIndexDdl(Cursor* cur, StatementView* v) {
  if (!(cur->ExpectKeyword("INDEX") && cur->ExpectKeyword("ON") &&
        cur->ExpectIdentifier("table name", &v->table) &&
        cur->ExpectSymbol(TokenType::kLeftParen, "("))) {
    return false;
  }
  do {
    if (!cur->ExpectIdentifier("column name", &v->columns.emplace_back())) {
      return false;
    }
  } while (cur->Accept(TokenType::kComma));
  return cur->ExpectSymbol(TokenType::kRightParen, ")") && cur->ExpectEnd();
}

bool ParseOne(Cursor* cur, StatementView* v) {
  v->values.clear();
  v->columns.clear();
  if (cur->AcceptKeyword("SELECT")) {
    v->kind = Kind::kSelect;
    return ParseSelect(cur, v);
  }
  if (cur->AcceptKeyword("UPDATE")) {
    v->kind = Kind::kUpdate;
    return ParseUpdate(cur, v);
  }
  if (cur->AcceptKeyword("INSERT")) {
    v->kind = Kind::kInsert;
    return ParseInsert(cur, v);
  }
  if (cur->AcceptKeyword("CREATE")) {
    v->kind = Kind::kCreateIndex;
    return ParseIndexDdl(cur, v);
  }
  if (cur->AcceptKeyword("DROP")) {
    v->kind = Kind::kDropIndex;
    return ParseIndexDdl(cur, v);
  }
  return cur->Fail("expected SELECT, UPDATE, INSERT, CREATE or DROP");
}

StatementAst ToAst(const StatementView& v) {
  switch (v.kind) {
    case Kind::kSelect: {
      SelectAst ast;
      ast.table = v.table;
      ast.select_column = v.select_column;
      ast.where_column = v.where_column;
      ast.is_range = v.is_range;
      if (v.is_range) {
        ast.where_lo = v.where_lo;
        ast.where_hi = v.where_hi;
      } else {
        ast.where_value = v.where_value;
      }
      return ast;
    }
    case Kind::kUpdate:
      return UpdateAst{std::string(v.table), std::string(v.set_column),
                       v.set_value, std::string(v.where_column),
                       v.where_value};
    case Kind::kInsert:
      return InsertAst{std::string(v.table), v.values};
    case Kind::kCreateIndex:
    case Kind::kDropIndex: {
      std::vector<std::string> columns(v.columns.begin(), v.columns.end());
      if (v.kind == Kind::kCreateIndex) {
        return CreateIndexAst{std::string(v.table), std::move(columns)};
      }
      return DropIndexAst{std::string(v.table), std::move(columns)};
    }
  }
  return {};
}

}  // namespace

Status ParseStatement(std::string_view sql, StatementView* view) {
  // The buffer holds no strings and is reused by every call on this
  // thread; its views into `sql` go stale when this returns and are
  // never read again, because Tokenize() clears the buffer first.
  thread_local std::vector<Token> tokens;
  CDPD_RETURN_IF_ERROR(Tokenize(sql, &tokens));
  Cursor cur(tokens);
  if (cur.AtEnd()) return Status::ParseError("empty statement");
  if (!ParseOne(&cur, view)) return cur.TakeError();
  return Status::OK();
}

Result<StatementAst> ParseStatement(std::string_view sql) {
  StatementView view;
  CDPD_RETURN_IF_ERROR(ParseStatement(sql, &view));
  return ToAst(view);
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
