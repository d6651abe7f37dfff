// Tokenizer for AIQL. Supports '//' line comments (the paper's queries are
// annotated with them), double-quoted string literals, numbers, identifiers,
// and the operator/punctuation set of Grammar 1.
#ifndef AIQL_SRC_LANG_LEXER_H_
#define AIQL_SRC_LANG_LEXER_H_

#include <string>
#include <vector>

#include "src/util/result.h"

namespace aiql {

enum class TokenType : uint8_t {
  kIdent,
  kString,
  kNumber,
  kParam,  // $name — a query parameter (text holds the name without '$')
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kColon,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAndAnd,
  kOrOr,
  kBang,
  kArrow,    // ->
  kLArrow,   // <-
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEof,
};

// "identifier", "end of input", or the quoted spelling: "'->'".
std::string TokenTypeName(TokenType t);

struct Token {
  TokenType type = TokenType::kEof;
  std::string text;    // identifier text / string contents / number literal
  double number = 0;   // valid for kNumber
  int line = 1;
  int col = 1;
};

// "line N, col C: ", the prefix of every lexer and parser error.
std::string PositionPrefix(int line, int col);

// Tokenizes the whole input. Fails on unterminated strings or bytes outside
// the language's alphabet, with line/column in the message.
Result<std::vector<Token>> Tokenize(const std::string& input);

}  // namespace aiql

#endif  // AIQL_SRC_LANG_LEXER_H_
