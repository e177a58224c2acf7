#ifndef CDPD_COMMON_STRING_UTIL_H_
#define CDPD_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace cdpd {

/// Joins the elements of `parts` with `sep` between them.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep`; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char sep);

/// ASCII whitespace: ' ', '\t', '\n', '\v', '\f' and '\r' (the "C"
/// locale's set; no other locale is consulted).
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Maps 'A'..'Z' to 'a'..'z'; every other byte is returned unchanged.
constexpr char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// Case-insensitive ASCII comparison. Inline: the SQL grammar runs it
/// once per keyword it matches.
constexpr bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

/// Formats `value` with `decimals` digits after the point (no locale).
std::string FormatDouble(double value, int decimals);

/// Formats a ratio as a percentage string, e.g. 0.143 -> "14.3%".
std::string FormatPercent(double ratio, int decimals = 1);

}  // namespace cdpd

#endif  // CDPD_COMMON_STRING_UTIL_H_
