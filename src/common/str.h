// Small string helpers shared across modules.
#ifndef CITUSX_COMMON_STR_H_
#define CITUSX_COMMON_STR_H_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace citusx {

/// printf-style formatting into a std::string.
inline std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(static_cast<size_t>(n), '\0');
  vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

inline std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

inline std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (auto& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

inline std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); i++) {
    if (i == s.size() || s[i] == sep) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

inline std::string JoinStrings(const std::vector<std::string>& parts,
                               std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); i++) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// SQL string literal quoting: abc -> 'abc', with '' doubling.
inline std::string QuoteSqlLiteral(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

}  // namespace citusx

#endif  // CITUSX_COMMON_STR_H_
