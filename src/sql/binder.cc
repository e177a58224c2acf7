#include "sql/binder.h"

#include <string>

#include "common/string_util.h"

namespace cdpd {

namespace {

using Kind = StatementView::Kind;

Status CheckTable(const Schema& schema, std::string_view table) {
  if (!EqualsIgnoreCase(schema.table_name(), table)) {
    return Status::InvalidArgument("unknown table '" + std::string(table) +
                                   "' (schema is '" + schema.table_name() +
                                   "')");
  }
  return Status::OK();
}

/// Views of an AST's fields, for the binder.
struct ViewOf {
  StatementView* v;

  void operator()(const SelectAst& s) const {
    v->kind = Kind::kSelect;
    v->table = s.table;
    v->select_column = s.select_column;
    v->where_column = s.where_column;
    v->is_range = s.is_range;
    v->where_value = s.where_value;
    v->where_lo = s.where_lo;
    v->where_hi = s.where_hi;
  }
  void operator()(const UpdateAst& s) const {
    v->kind = Kind::kUpdate;
    v->table = s.table;
    v->set_column = s.set_column;
    v->set_value = s.set_value;
    v->where_column = s.where_column;
    v->where_value = s.where_value;
  }
  void operator()(const InsertAst& s) const {
    v->kind = Kind::kInsert;
    v->table = s.table;
    v->values = s.values;
  }
  void operator()(const CreateIndexAst& s) const {
    v->kind = Kind::kCreateIndex;
    v->table = s.table;
  }
  void operator()(const DropIndexAst& s) const {
    v->kind = Kind::kDropIndex;
    v->table = s.table;
  }
};

}  // namespace

Status BindStatement(const Schema& schema, const StatementView& view,
                     BoundStatement* out) {
  if (view.is_ddl()) {
    return Status::InvalidArgument(
        "statement is DDL; bind it with BindIndexDdl");
  }
  CDPD_RETURN_IF_ERROR(CheckTable(schema, view.table));
  if (view.kind == Kind::kInsert) {
    if (static_cast<int32_t>(view.values.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT supplies " + std::to_string(view.values.size()) +
          " values; table has " + std::to_string(schema.num_columns()) +
          " columns");
    }
    *out = BoundStatement::Insert({view.values.begin(), view.values.end()});
    return Status::OK();
  }
  // SELECT binds (selected, predicate) columns, UPDATE (set, predicate).
  const std::string_view first =
      view.kind == Kind::kSelect ? view.select_column : view.set_column;
  const ColumnId first_col = schema.ColumnIndex(first);
  if (first_col < 0) return schema.FindColumn(first).status();
  const ColumnId where_col = schema.ColumnIndex(view.where_column);
  if (where_col < 0) return schema.FindColumn(view.where_column).status();
  if (view.kind == Kind::kUpdate) {
    *out = BoundStatement::UpdatePoint(first_col, view.set_value, where_col,
                                       view.where_value);
  } else if (view.is_range) {
    *out = BoundStatement::SelectRange(first_col, where_col, view.where_lo,
                                       view.where_hi);
  } else {
    *out = BoundStatement::SelectPoint(first_col, where_col, view.where_value);
  }
  return Status::OK();
}

Result<BoundStatement> BindStatement(const Schema& schema,
                                     const StatementAst& ast) {
  StatementView view;
  std::visit(ViewOf{&view}, ast);
  BoundStatement bound;
  CDPD_RETURN_IF_ERROR(BindStatement(schema, view, &bound));
  return bound;
}

Result<IndexDef> BindIndexDdl(const Schema& schema, const StatementAst& ast,
                              bool* create) {
  if (const auto* create_ast = std::get_if<CreateIndexAst>(&ast)) {
    CDPD_RETURN_IF_ERROR(CheckTable(schema, create_ast->table));
    *create = true;
    return IndexDef::FromColumnNames(schema, create_ast->columns);
  }
  if (const auto* drop_ast = std::get_if<DropIndexAst>(&ast)) {
    CDPD_RETURN_IF_ERROR(CheckTable(schema, drop_ast->table));
    *create = false;
    return IndexDef::FromColumnNames(schema, drop_ast->columns);
  }
  return Status::InvalidArgument("statement is not CREATE/DROP INDEX");
}

}  // namespace cdpd
