#ifndef CDPD_SQL_AST_H_
#define CDPD_SQL_AST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cdpd {

/// SELECT <col> FROM <table> WHERE <col> = <int>
///   or  ... WHERE <col> BETWEEN <int> AND <int>
struct SelectAst {
  std::string table;
  std::string select_column;
  std::string where_column;
  bool is_range = false;
  int64_t where_value = 0;  // Point predicate.
  int64_t where_lo = 0;     // Inclusive range bounds.
  int64_t where_hi = 0;

  bool operator==(const SelectAst&) const = default;
};

/// UPDATE <table> SET <col> = <int> WHERE <col> = <int>
struct UpdateAst {
  std::string table;
  std::string set_column;
  int64_t set_value = 0;
  std::string where_column;
  int64_t where_value = 0;

  bool operator==(const UpdateAst&) const = default;
};

/// INSERT INTO <table> VALUES (<int>, ...)
struct InsertAst {
  std::string table;
  std::vector<int64_t> values;

  bool operator==(const InsertAst&) const = default;
};

/// CREATE INDEX ON <table> (<col>, ...)
struct CreateIndexAst {
  std::string table;
  std::vector<std::string> columns;

  bool operator==(const CreateIndexAst&) const = default;
};

/// DROP INDEX ON <table> (<col>, ...)
struct DropIndexAst {
  std::string table;
  std::vector<std::string> columns;

  bool operator==(const DropIndexAst&) const = default;
};

/// A parsed statement of the dialect. DML (select/update/insert) binds
/// to a BoundStatement for execution; DDL (create/drop index) maps to
/// catalog operations — the physical actions of a design transition.
using StatementAst = std::variant<SelectAst, UpdateAst, InsertAst,
                                  CreateIndexAst, DropIndexAst>;

/// The same statement as views into its text: what the grammar fills
/// (sql/parser.h) and the binder reads (sql/binder.h). The names are
/// valid only while the text lives. Only the fields of `kind` are set:
/// `values` for INSERT, `columns` for CREATE/DROP INDEX, and `where_lo`/
/// `where_hi` or `where_value` as `is_range` says. The two vectors keep
/// their capacity, so a view reused across statements stops allocating
/// once it has held the longest one.
struct StatementView {
  enum class Kind { kSelect, kUpdate, kInsert, kCreateIndex, kDropIndex };

  Kind kind = Kind::kSelect;
  std::string_view table;
  std::string_view select_column;  // SELECT.
  std::string_view set_column;     // UPDATE.
  std::string_view where_column;   // SELECT, UPDATE.
  bool is_range = false;           // SELECT ... BETWEEN.
  int64_t where_value = 0;
  int64_t where_lo = 0;
  int64_t where_hi = 0;
  int64_t set_value = 0;
  std::vector<int64_t> values;
  std::vector<std::string_view> columns;

  bool is_ddl() const {
    return kind == Kind::kCreateIndex || kind == Kind::kDropIndex;
  }
};

/// Renders a statement back to canonical SQL text.
std::string AstToString(const StatementAst& ast);

}  // namespace cdpd

#endif  // CDPD_SQL_AST_H_
