#ifndef CDPD_SQL_LEXER_H_
#define CDPD_SQL_LEXER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cdpd {

/// Token categories of the SQL subset (see sql/parser.h for the
/// grammar).
enum class TokenType {
  kIdentifier,   // column / table / index names (also keywords, which
                 // the parser matches case-insensitively by text)
  kInteger,      // [-]?[0-9]+
  kLeftParen,    // (
  kRightParen,   // )
  kComma,        // ,
  kEquals,       // =
  kStar,         // *
  kSemicolon,    // ;
  kEnd,          // end of input sentinel
};

struct Token {
  TokenType type = TokenType::kEnd;
  /// The token's spelling: a view into the text passed to Tokenize(),
  /// valid only while that text lives. Empty for kEnd.
  std::string_view text;
  int64_t value = 0;    // For kInteger.
  size_t position = 0;  // Byte offset in the input, for error messages.

  bool operator==(const Token& other) const = default;
};

/// Tokenizes `sql` into `*tokens`, replacing its contents; the buffer's
/// capacity is kept, so one buffer serves any number of statements
/// without allocating. On success the tokens end with a kEnd token.
/// Returns ParseError on any character outside the dialect (the
/// dialect is ASCII: whitespace, letters, digits, '_' and "()-,=*;")
/// or an out-of-range integer literal; the buffer's contents are then
/// unspecified.
Status Tokenize(std::string_view sql, std::vector<Token>* tokens);

}  // namespace cdpd

#endif  // CDPD_SQL_LEXER_H_
