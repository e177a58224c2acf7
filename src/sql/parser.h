#ifndef CDPD_SQL_PARSER_H_
#define CDPD_SQL_PARSER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace cdpd {

/// Recursive-descent parser for the SQL dialect of the paper's
/// workloads plus the DDL used by design transitions:
///
///   statement  := select | update | insert | create_index | drop_index
///   select     := SELECT ident FROM ident WHERE ident
///                 ('=' int | BETWEEN int AND int)
///   update     := UPDATE ident SET ident '=' int WHERE ident '=' int
///   insert     := INSERT INTO ident VALUES '(' int (',' int)* ')'
///   create_index := CREATE INDEX ON ident '(' ident (',' ident)* ')'
///   drop_index   := DROP INDEX ON ident '(' ident (',' ident)* ')'
///
/// Keywords are case-insensitive; statements may end with ';'.
///
/// Error contract (every entry point, and ReadTrace() through them):
/// lexing is eager, so a lexical error anywhere in the statement is
/// reported before any grammar error; an empty statement is
/// "empty statement"; otherwise the grammar stops at its first
/// mismatch with "expected <what> at offset N (got '<token>')" (no
/// "(got …)" at the end of input), and "BETWEEN bounds out of order"
/// is a grammar error at the token after the upper bound. All are
/// ParseError. Names are not checked here; the binder reports those.

/// Tokenizes `sql` and runs the grammar over it, filling `*view` with
/// views into `sql`. Allocates nothing once `view`'s vectors and this
/// thread's token buffer have grown to the longest statement seen.
/// On error `*view` is unspecified.
Status ParseStatement(std::string_view sql, StatementView* view);

/// The same grammar, materialised into an owning AST.
Result<StatementAst> ParseStatement(std::string_view sql);

/// Parses a ';'-separated script (blank statements are skipped).
Result<std::vector<StatementAst>> ParseScript(std::string_view sql);

}  // namespace cdpd

#endif  // CDPD_SQL_PARSER_H_
