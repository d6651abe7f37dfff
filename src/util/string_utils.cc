#include "src/util/string_utils.h"

#include <cctype>

namespace aiql {
namespace {

// ASCII case fold. Identical to std::tolower in the "C" locale, which the
// program never leaves (nothing calls setlocale); bytes >= 0x80 (UTF-8
// sequences) are left as they are.
inline char FoldCase(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos;  // position after last '%'
  size_t star_t = 0;                       // text position when '%' was seen
  while (t < text.size()) {
    // '%' is a wildcard even where the text holds a '%' too.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = ++p;
      star_t = t;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || FoldCase(pattern[p]) == FoldCase(text[t]))) {
      ++t;
      ++p;
    } else if (star_p != std::string_view::npos) {
      p = star_p;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') {
    ++p;
  }
  return p == pattern.size();
}

bool HasLikeWildcards(std::string_view pattern) {
  return pattern.find('%') != std::string_view::npos ||
         pattern.find('_') != std::string_view::npos;
}

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(FoldCase(c));
  }
  return out;
}

void ToLowerInto(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (char c : s) {
    out->push_back(FoldCase(c));
  }
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) {
      return false;
    }
  }
  return true;
}

size_t CountWords(std::string_view s) {
  size_t words = 0;
  bool in_word = false;
  for (char c : s) {
    bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
    if (!space && !in_word) {
      ++words;
    }
    in_word = !space;
  }
  return words;
}

size_t CountNonSpaceChars(std::string_view s) {
  size_t n = 0;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      ++n;
    }
  }
  return n;
}

}  // namespace aiql
