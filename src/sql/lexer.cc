#include "sql/lexer.h"

#include <array>
#include <limits>
#include <string>

#include "common/string_util.h"

namespace cdpd {

namespace {

enum class CharClass : uint8_t {
  kInvalid,
  kSpace,
  kDigit,
  kIdentStart,  // A letter or '_'.
  kMinus,
  kSymbol,      // A single-character token; see kSymbols.
};

struct Symbol {
  char c;
  TokenType type;
};

constexpr Symbol kSymbols[] = {
    {'(', TokenType::kLeftParen}, {')', TokenType::kRightParen},
    {',', TokenType::kComma},     {'=', TokenType::kEquals},
    {'*', TokenType::kStar},      {';', TokenType::kSemicolon},
};

struct CharTable {
  std::array<CharClass, 256> cls{};
  std::array<TokenType, 256> symbol{};
};

constexpr CharTable MakeCharTable() {
  CharTable table;
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    if (IsAsciiSpace(c)) table.cls[i] = CharClass::kSpace;
    if (c >= '0' && c <= '9') table.cls[i] = CharClass::kDigit;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
      table.cls[i] = CharClass::kIdentStart;
    }
  }
  table.cls['-'] = CharClass::kMinus;
  for (const Symbol& s : kSymbols) {
    const auto i = static_cast<unsigned char>(s.c);
    table.cls[i] = CharClass::kSymbol;
    table.symbol[i] = s.type;
  }
  return table;
}

constexpr CharTable kChars = MakeCharTable();

CharClass ClassOf(char c) { return kChars.cls[static_cast<unsigned char>(c)]; }

bool IsDigit(char c) { return ClassOf(c) == CharClass::kDigit; }

bool IsIdentChar(char c) {
  const CharClass cls = ClassOf(c);
  return cls == CharClass::kIdentStart || cls == CharClass::kDigit;
}

}  // namespace

Status Tokenize(std::string_view sql, std::vector<Token>* tokens) {
  tokens->clear();
  const size_t n = sql.size();
  size_t i = 0;
  while (i < n) {
    const char c = sql[i];
    switch (ClassOf(c)) {
      case CharClass::kSpace:
        ++i;
        continue;
      case CharClass::kSymbol:
        tokens->push_back({kChars.symbol[static_cast<unsigned char>(c)],
                           sql.substr(i, 1), 0, i});
        ++i;
        continue;
      case CharClass::kMinus:
      case CharClass::kDigit: {
        const bool negative = c == '-';
        size_t j = i + (negative ? 1 : 0);
        if (j >= n || !IsDigit(sql[j])) {
          return Status::ParseError("stray '-' at offset " +
                                    std::to_string(i));
        }
        constexpr auto kMax =
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
        const uint64_t limit = negative ? kMax + 1 : kMax;
        uint64_t magnitude = 0;
        while (j < n && IsDigit(sql[j])) {
          const auto digit = static_cast<uint64_t>(sql[j] - '0');
          if (magnitude > (limit - digit) / 10) {
            return Status::ParseError(
                "integer literal out of range at offset " + std::to_string(i));
          }
          magnitude = magnitude * 10 + digit;
          ++j;
        }
        // Two's complement: -(2^63) is the negated magnitude 2^63.
        const int64_t value = negative
                                  ? static_cast<int64_t>(0 - magnitude)
                                  : static_cast<int64_t>(magnitude);
        tokens->push_back({TokenType::kInteger, sql.substr(i, j - i), value, i});
        i = j;
        continue;
      }
      case CharClass::kIdentStart: {
        size_t j = i + 1;
        while (j < n && IsIdentChar(sql[j])) ++j;
        tokens->push_back({TokenType::kIdentifier, sql.substr(i, j - i), 0, i});
        i = j;
        continue;
      }
      case CharClass::kInvalid:
        break;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(i));
  }
  tokens->push_back({TokenType::kEnd, {}, 0, n});
  return Status::OK();
}

}  // namespace cdpd
