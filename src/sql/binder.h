#ifndef CDPD_SQL_BINDER_H_
#define CDPD_SQL_BINDER_H_

#include "common/result.h"
#include "index/index_def.h"
#include "sql/ast.h"
#include "storage/schema.h"
#include "workload/statement.h"

namespace cdpd {

/// Resolves a DML statement (SELECT/UPDATE/INSERT) against `schema`
/// into the executable BoundStatement form, overwriting `*out`. Checks
/// the table, then the columns in statement order (SELECT: selected,
/// then predicate; UPDATE: set, then predicate), then INSERT's arity,
/// and reports the first failure: InvalidArgument for an unknown table,
/// an arity mismatch or DDL input (DDL is bound with BindIndexDdl
/// instead), NotFound for an unknown column. Error text is built only
/// on failure; on failure `*out` is unspecified.
Status BindStatement(const Schema& schema, const StatementView& view,
                     BoundStatement* out);

/// The same binder over an owning AST.
Result<BoundStatement> BindStatement(const Schema& schema,
                                     const StatementAst& ast);

/// Resolves CREATE/DROP INDEX DDL to the IndexDef it refers to.
/// `create` is set to true for CREATE, false for DROP.
Result<IndexDef> BindIndexDdl(const Schema& schema, const StatementAst& ast,
                              bool* create);

}  // namespace cdpd

#endif  // CDPD_SQL_BINDER_H_
