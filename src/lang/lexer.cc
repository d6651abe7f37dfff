#include "src/lang/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace aiql {

std::string PositionPrefix(int line, int col) {
  return "line " + std::to_string(line) + ", col " + std::to_string(col) + ": ";
}

namespace {

// Every operator and punctuation mark with its spelling, two-character
// spellings first so the lexer takes the longest match.
struct Punctuation {
  std::string_view spelling;
  TokenType type;
};
constexpr Punctuation kPunctuation[] = {
    {"&&", TokenType::kAndAnd}, {"||", TokenType::kOrOr},    {"!=", TokenType::kNe},
    {"<=", TokenType::kLe},     {">=", TokenType::kGe},      {"->", TokenType::kArrow},
    {"<-", TokenType::kLArrow}, {"(", TokenType::kLParen},   {")", TokenType::kRParen},
    {"[", TokenType::kLBracket}, {"]", TokenType::kRBracket}, {",", TokenType::kComma},
    {".", TokenType::kDot},     {":", TokenType::kColon},    {"=", TokenType::kEq},
    {"<", TokenType::kLt},      {">", TokenType::kGt},       {"!", TokenType::kBang},
    {"+", TokenType::kPlus},    {"-", TokenType::kMinus},    {"*", TokenType::kStar},
    {"/", TokenType::kSlash},
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::string TokenTypeName(TokenType t) {
  switch (t) {
    case TokenType::kIdent:
      return "identifier";
    case TokenType::kString:
      return "string";
    case TokenType::kNumber:
      return "number";
    case TokenType::kParam:
      return "parameter";
    case TokenType::kEof:
      return "end of input";
    default:
      for (const Punctuation& p : kPunctuation) {
        if (p.type == t) {
          return "'" + std::string(p.spelling) + "'";
        }
      }
      return "?";
  }
}

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  size_t i = 0;
  const size_t n = input.size();

  auto push = [&](TokenType type, std::string text, int tline, int tcol) {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.line = tline;
    t.col = tcol;
    out.push_back(std::move(t));
  };

  while (i < n) {
    char c = input[i];
    int tline = line, tcol = col;
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      ++col;
      continue;
    }
    // '//' line comment
    if (c == '/' && i + 1 < n && input[i + 1] == '/') {
      while (i < n && input[i] != '\n') {
        ++i;
      }
      continue;
    }
    if (c == '"') {
      std::string s;
      ++i;
      ++col;
      bool closed = false;
      while (i < n) {
        char d = input[i];
        if (d == '"') {
          closed = true;
          ++i;
          ++col;
          break;
        }
        if (d == '\\' && i + 1 < n) {
          // Escapes: \" and \\; anything else kept verbatim (Windows paths).
          char e = input[i + 1];
          if (e == '"' || e == '\\') {
            s.push_back(e);
            i += 2;
            col += 2;
            continue;
          }
        }
        if (d == '\n') {
          ++line;
          col = 0;
        }
        s.push_back(d);
        ++i;
        ++col;
      }
      if (!closed) {
        return Result<std::vector<Token>>::Error(PositionPrefix(tline, tcol) +
                                                 "unterminated string literal");
      }
      push(TokenType::kString, std::move(s), tline, tcol);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) || input[i] == '.')) {
        // Stop at '..' or a dot not followed by a digit (member access).
        if (input[i] == '.' &&
            (i + 1 >= n || !std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
          break;
        }
        ++i;
        ++col;
      }
      std::string text = input.substr(start, i - start);
      Token t;
      t.type = TokenType::kNumber;
      t.text = text;
      t.number = std::strtod(text.c_str(), nullptr);
      t.line = tline;
      t.col = tcol;
      out.push_back(std::move(t));
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(input[i])) {
        ++i;
        ++col;
      }
      push(TokenType::kIdent, input.substr(start, i - start), tline, tcol);
      continue;
    }
    // $name — a query parameter placeholder (PreparedQuery::Bind).
    if (c == '$') {
      if (i + 1 >= n || !IsIdentStart(input[i + 1])) {
        return Result<std::vector<Token>>::Error(PositionPrefix(tline, tcol) +
                                                 "expected a parameter name after '$'");
      }
      ++i;
      ++col;
      size_t start = i;
      while (i < n && IsIdentChar(input[i])) {
        ++i;
        ++col;
      }
      push(TokenType::kParam, input.substr(start, i - start), tline, tcol);
      continue;
    }
    const std::string_view rest = std::string_view(input).substr(i);
    const Punctuation* punct = nullptr;
    for (const Punctuation& p : kPunctuation) {
      if (rest.starts_with(p.spelling)) {
        punct = &p;
        break;
      }
    }
    if (punct == nullptr) {
      return Result<std::vector<Token>>::Error(
          PositionPrefix(tline, tcol) + "unexpected character '" + std::string(1, c) + "'");
    }
    push(punct->type, std::string(punct->spelling), tline, tcol);
    i += punct->spelling.size();
    col += static_cast<int>(punct->spelling.size());
  }
  push(TokenType::kEof, "", line, col);
  return out;
}

}  // namespace aiql
