#include "src/lang/parser.h"

#include <array>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "src/lang/lexer.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

using ast::Query;

// <entity_type> spellings.
std::optional<EntityType> EntityTypeOf(const std::string& s) {
  static constexpr std::pair<const char*, EntityType> kNames[] = {
      {"proc", EntityType::kProcess}, {"process", EntityType::kProcess},
      {"file", EntityType::kFile},    {"ip", EntityType::kNetwork},
      {"net", EntityType::kNetwork},  {"network", EntityType::kNetwork},
      {"conn", EntityType::kNetwork},
  };
  for (const auto& [name, type] : kNames) {
    if (EqualsIgnoreCase(s, name)) {
      return type;
    }
  }
  return std::nullopt;
}

// Words that may never be consumed as entity/event identifiers.
bool IsReservedWord(const std::string& s) {
  static const char* kReserved[] = {
      "as",     "with",   "return", "before", "after",  "within", "forward",
      "backward", "group", "having", "sort",  "top",    "from",   "to",
      "at",     "in",     "not",    "by",     "asc",    "desc",   "distinct",
      "count",  "window", "step",
  };
  for (const char* w : kReserved) {
    if (EqualsIgnoreCase(s, w)) {
      return true;
    }
  }
  return ParseOperation(s).has_value() || EntityTypeOf(s).has_value();
}

// A comparison token, read as a constraint/relationship operator (CmpOp) or
// as an expression operator (BinOp).
struct Comparison {
  TokenType token;
  CmpOp cmp;
  BinOp bop;
};
constexpr Comparison kComparisons[] = {
    {TokenType::kEq, CmpOp::kEq, BinOp::kEq}, {TokenType::kNe, CmpOp::kNe, BinOp::kNe},
    {TokenType::kLt, CmpOp::kLt, BinOp::kLt}, {TokenType::kLe, CmpOp::kLe, BinOp::kLe},
    {TokenType::kGt, CmpOp::kGt, BinOp::kGt}, {TokenType::kGe, CmpOp::kGe, BinOp::kGe},
};

const Comparison* ComparisonOf(TokenType t) {
  for (const Comparison& c : kComparisons) {
    if (c.token == t) {
      return &c;
    }
  }
  return nullptr;
}

// One infix operator of a grammar: its token, its binding strength (higher
// binds tighter; equal strengths associate left) and what it builds. A
// non-chaining operator takes one operand on each side: `a > 1 > 2` stops
// before the second '>'.
struct InfixOp {
  TokenType token;
  int prec;
  BinOp op;
  bool chains = true;
};

// Attribute constraints: ',' is an And looser than '||', read only directly
// inside '[...]' (paper Query 3: proc p1["%/bin/cp%", agentid = 2]).
constexpr int kAttrListPrec = 1;
constexpr InfixOp kAttrOps[] = {
    {TokenType::kComma, kAttrListPrec, BinOp::kAnd},
    {TokenType::kOrOr, 2, BinOp::kOr},
    {TokenType::kAndAnd, 3, BinOp::kAnd},
};

// Operation sets: '||' unions masks, '&&' intersects them.
constexpr InfixOp kOpSetOps[] = {
    {TokenType::kOrOr, 1, BinOp::kOr},
    {TokenType::kAndAnd, 2, BinOp::kAnd},
};

// Return, group-by, having and sort expressions: '||', '&&', the
// comparisons, '+ -', '* /'.
constexpr auto kExprOps = [] {
  std::array<InfixOp, 6 + std::size(kComparisons)> ops = {{
      {TokenType::kOrOr, 1, BinOp::kOr},
      {TokenType::kAndAnd, 2, BinOp::kAnd},
      {TokenType::kPlus, 4, BinOp::kAdd},
      {TokenType::kMinus, 4, BinOp::kSub},
      {TokenType::kStar, 5, BinOp::kMul},
      {TokenType::kSlash, 5, BinOp::kDiv},
  }};
  for (size_t i = 0; i < std::size(kComparisons); ++i) {
    ops[6 + i] = {kComparisons[i].token, 3, kComparisons[i].bop, /*chains=*/false};
  }
  return ops;
}();

const InfixOp* InfixOpOf(std::span<const InfixOp> ops, TokenType t) {
  for (const InfixOp& op : ops) {
    if (op.token == t) {
      return &op;
    }
  }
  return nullptr;
}

PredExpr Combine(BinOp op, PredExpr lhs, PredExpr rhs) {
  return op == BinOp::kOr ? PredExpr::Or(std::move(lhs), std::move(rhs))
                          : PredExpr::And(std::move(lhs), std::move(rhs));
}

OpMask Combine(BinOp op, OpMask lhs, OpMask rhs) {
  return static_cast<OpMask>(op == BinOp::kOr ? lhs | rhs : lhs & rhs);
}

Expr Combine(BinOp op, Expr lhs, Expr rhs) {
  return Expr::Binary(op, std::move(lhs), std::move(rhs));
}

// True when `d` truncates to a value of I, i.e. the cast is defined.
template <typename I>
bool FitsIn(double d) {
  constexpr double kLimit = -static_cast<double>(std::numeric_limits<I>::min());
  return d >= -kLimit && d < kLimit;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse(const std::string& text) {
    Query q;
    q.text = text;
    Status s = ParseGlobalConstraints(&q.global);
    if (!s.ok()) {
      return Result<Query>(s);
    }
    // Decide multievent vs dependency.
    if (IsIdent("forward") || IsIdent("backward")) {
      q.kind = ast::QueryKind::kDependency;
      s = ParseDependency(&q.dependency);
    } else if (CurEntityType().has_value()) {
      // Look ahead: an entity followed by '->' or '<-' starts a dependency
      // path; anything else is a multievent pattern.
      size_t save = pos_;
      ast::EntityRef probe;
      Status probe_status = ParseEntity(&probe);
      bool dependency = probe_status.ok() && (Cur().type == TokenType::kArrow ||
                                              Cur().type == TokenType::kLArrow);
      pos_ = save;
      if (dependency) {
        q.kind = ast::QueryKind::kDependency;
        s = ParseDependency(&q.dependency);
      } else {
        s = ParseMultievent(&q.multievent);
        q.kind = q.global.window.has_value() ? ast::QueryKind::kAnomaly
                                             : ast::QueryKind::kMultievent;
      }
    } else {
      return Err("expected an event pattern or dependency path");
    }
    if (!s.ok()) {
      return Result<Query>(s);
    }
    if (Cur().type != TokenType::kEof) {
      return Err("unexpected trailing input");
    }
    if (q.kind == ast::QueryKind::kAnomaly && !q.global.step.has_value()) {
      q.global.step = q.global.window;  // tumbling window by default
    }
    return q;
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool IsIdent(const char* word) const {
    return Cur().type == TokenType::kIdent && EqualsIgnoreCase(Cur().text, word);
  }
  bool AcceptIdent(const char* word) {
    if (IsIdent(word)) {
      Advance();
      return true;
    }
    return false;
  }
  // The entity type Cur() spells, if it is an identifier naming one.
  std::optional<EntityType> CurEntityType() const {
    return Cur().type == TokenType::kIdent ? EntityTypeOf(Cur().text) : std::nullopt;
  }
  // `attr [not] in (...)`: the token after the attribute is 'in' or 'not'.
  bool PeekIsIn() const {
    return Peek().type == TokenType::kIdent &&
           (EqualsIgnoreCase(Peek().text, "in") || EqualsIgnoreCase(Peek().text, "not"));
  }
  bool Accept(TokenType t) {
    if (Cur().type == t) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* context) {
    if (Cur().type != t) {
      return ErrStatus(std::string("expected ") + TokenTypeName(t) + " in " + context);
    }
    Advance();
    return Status::Ok();
  }
  static std::string Describe(const Token& t) {
    if (t.type == TokenType::kIdent || t.type == TokenType::kNumber) {
      return "'" + t.text + "'";
    }
    if (t.type == TokenType::kParam) {
      return "'$" + t.text + "'";
    }
    if (t.type == TokenType::kString) {
      return "string \"" + t.text + "\"";
    }
    return TokenTypeName(t.type);
  }
  // Every parse error: the offending token's position, the message, and the
  // token itself.
  Status ErrStatus(const std::string& message) const {
    return Status::Error(PositionPrefix(Cur().line, Cur().col) + message + ", found " +
                         Describe(Cur()));
  }
  Result<Query> Err(const std::string& message) const {
    return Result<Query>(ErrStatus(message));
  }

  static Value TokenValue(const Token& t) {
    if (t.type == TokenType::kNumber) {
      // Integral literals become integers; those beyond int64 stay doubles.
      if (FitsIn<int64_t>(t.number) && t.number == static_cast<int64_t>(t.number)) {
        return Value(static_cast<int64_t>(t.number));
      }
      return Value(t.number);
    }
    if (t.type == TokenType::kParam) {
      return Value::Param(t.text, t.line);
    }
    return Value(t.text);
  }

  // Token types usable as a constraint value: literal or $parameter.
  static bool IsValueToken(const Token& t) {
    return t.type == TokenType::kString || t.type == TokenType::kNumber ||
           t.type == TokenType::kParam;
  }

  // Equality against a wildcard string means LIKE (paper queries write
  // p1["%cmd.exe"] and dstip = "XXX.129" with the same '=' surface syntax).
  static AttrPredicate MakeLeaf(std::string attr, CmpOp op, std::vector<Value> values) {
    if ((op == CmpOp::kEq || op == CmpOp::kNe) && values.size() == 1 && values[0].is_string() &&
        HasLikeWildcards(values[0].as_string())) {
      op = op == CmpOp::kEq ? CmpOp::kLike : CmpOp::kNotLike;
    }
    AttrPredicate p;
    p.attr = std::move(attr);
    p.op = op;
    p.values = std::move(values);
    return p;
  }

  // --- global constraints --------------------------------------------------
  Status ParseGlobalConstraints(ast::GlobalConstraints* out) {
    for (;;) {
      if (AtTimeWindow()) {
        ast::TimeWindowSpec spec;
        Status s = ParseTimeWindow("time window", &spec);
        if (!s.ok()) {
          return s;
        }
        out->time_windows.push_back(std::move(spec));
        continue;
      }
      if ((IsIdent("window") || IsIdent("step")) && Peek().type == TokenType::kEq) {
        std::optional<DurationMs>* length = IsIdent("window") ? &out->window : &out->step;
        Advance();
        Advance();
        Status s = ParseDurationTokens(length);
        if (!s.ok()) {
          return s;
        }
        Accept(TokenType::kComma);
        continue;
      }
      // Plain constraint: ident bop value | ident [not] in (...).
      if (Cur().type == TokenType::kIdent && !CurEntityType().has_value() &&
          !IsIdent("forward") && !IsIdent("backward")) {
        if (ComparisonOf(Peek().type) == nullptr && !PeekIsIn()) {
          return ErrStatus("unrecognized global constraint");
        }
        PredExpr leaf;
        Status s = ParseConstraintLeaf(&leaf);
        if (!s.ok()) {
          return s;
        }
        out->constraint = PredExpr::And(std::move(out->constraint), std::move(leaf));
        continue;
      }
      return Status::Ok();
    }
  }

  // The datetime string or $parameter after 'at', 'from' or 'to': `parse`
  // reads the string into `fixed`, a parameter's name goes to `param`.
  template <typename V>
  Status ParseTimeEndpoint(const char* after, Result<V> (*parse)(const std::string&),
                           std::optional<V>* fixed, std::string* param) {
    if (Cur().type == TokenType::kParam) {
      *param = Cur().text;
    } else if (Cur().type != TokenType::kString) {
      return ErrStatus(std::string("expected a datetime string or $parameter after '") + after +
                       "'");
    } else {
      Result<V> t = parse(Cur().text);
      if (!t.ok()) {
        return ErrStatus(t.error());
      }
      *fixed = t.value();
    }
    Advance();
    return Status::Ok();
  }

  // '(' followed by 'at' or 'from' opens a time window.
  bool AtTimeWindow() const {
    return Cur().type == TokenType::kLParen && Peek().type == TokenType::kIdent &&
           (EqualsIgnoreCase(Peek().text, "at") || EqualsIgnoreCase(Peek().text, "from"));
  }

  // <twind> in parentheses, at AtTimeWindow(); `context` names the window
  // in a missing-')' error.
  Status ParseTimeWindow(const char* context, ast::TimeWindowSpec* out) {
    Advance();  // '('
    out->line = Cur().line;
    Status s;
    if (AcceptIdent("at")) {
      s = ParseTimeEndpoint("at", &ParseDateTimeRange, &out->fixed, &out->at_param);
    } else {
      AcceptIdent("from");
      s = ParseTimeEndpoint("from", &ParseDateTime, &out->from_fixed, &out->from_param);
      if (!s.ok()) {
        return s;
      }
      if (!AcceptIdent("to")) {
        return ErrStatus("expected 'to' in time window");
      }
      s = ParseTimeEndpoint("to", &ParseDateTime, &out->to_fixed, &out->to_param);
      if (out->from_fixed.has_value() && out->to_fixed.has_value()) {
        out->fixed = TimeRange{*out->from_fixed, *out->to_fixed};
      }
    }
    return s.ok() ? Expect(TokenType::kRParen, context) : s;
  }

  Status ParseDurationTokens(std::optional<DurationMs>* out) {
    if (Cur().type != TokenType::kNumber) {
      return ErrStatus("expected a number in duration");
    }
    double amount = Cur().number;
    Advance();
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected a time unit in duration");
    }
    Result<DurationMs> d = ParseDuration(amount, Cur().text);
    if (!d.ok()) {
      return ErrStatus(d.error());
    }
    Advance();
    *out = d.value();
    return Status::Ok();
  }

  // --- infix grammars -------------------------------------------------------
  // Precedence climbing over one grammar's operator table: an operand, then
  // each operator binding at least `min_prec` with its right operand, parsed
  // one level tighter. After each operator, `max_prec` caps the next at that
  // operator's strength (one below it, for a non-chaining one): a tighter
  // operator there is one the right operand refused, such as a second
  // comparison.
  template <typename T>
  Status ParseInfix(std::span<const InfixOp> ops, Status (Parser::*operand)(T*), int min_prec,
                    T* out) {
    Status s = (this->*operand)(out);
    int max_prec = std::numeric_limits<int>::max();
    while (s.ok()) {
      const InfixOp* op = InfixOpOf(ops, Cur().type);
      if (op == nullptr || op->prec < min_prec || op->prec > max_prec) {
        break;
      }
      Advance();
      T rhs{};
      s = ParseInfix(ops, operand, op->prec + 1, &rhs);
      *out = Combine(op->op, std::move(*out), std::move(rhs));
      max_prec = op->chains ? op->prec : op->prec - 1;
    }
    return s;
  }

  // --- attribute constraints ----------------------------------------------
  // <cstr> ::= <attr> <bop> <val> | '!'? <val> | <attr> 'not'? 'in' '(' ... ')'
  Status ParseConstraintLeaf(PredExpr* out) {
    if (Cur().type == TokenType::kIdent && !EqualsIgnoreCase(Cur().text, "not")) {
      std::string attr = ToLower(Cur().text);
      // attr bop val
      if (const Comparison* cmp = ComparisonOf(Peek().type); cmp != nullptr) {
        Advance();
        Advance();
        if (!IsValueToken(Cur())) {
          return ErrStatus("expected a value after comparison operator");
        }
        *out = PredExpr::Leaf(MakeLeaf(std::move(attr), cmp->cmp, {TokenValue(Cur())}));
        Advance();
        return Status::Ok();
      }
      // attr [not] in ( v, v, ... )
      if (PeekIsIn()) {
        Advance();
        bool negated = AcceptIdent("not");
        if (!AcceptIdent("in")) {
          return ErrStatus("expected 'in' after 'not'");
        }
        Status s = Expect(TokenType::kLParen, "IN list");
        if (!s.ok()) {
          return s;
        }
        std::vector<Value> values;
        do {
          if (!IsValueToken(Cur())) {
            return ErrStatus("expected a value in IN list");
          }
          values.push_back(TokenValue(Cur()));
          Advance();
        } while (Accept(TokenType::kComma));
        s = Expect(TokenType::kRParen, "IN list");
        if (!s.ok()) {
          return s;
        }
        AttrPredicate p;
        p.attr = std::move(attr);
        p.op = negated ? CmpOp::kNotIn : CmpOp::kIn;
        p.values = std::move(values);
        *out = PredExpr::Leaf(std::move(p));
        return Status::Ok();
      }
      return ErrStatus("expected a comparison or IN after attribute '" + attr + "'");
    }
    // Bare value => default attribute (inference fills the attr name).
    if (IsValueToken(Cur())) {
      *out = PredExpr::Leaf(MakeLeaf("", CmpOp::kEq, {TokenValue(Cur())}));
      Advance();
      return Status::Ok();
    }
    return ErrStatus("expected an attribute constraint");
  }

  // <attr_cstr>; `min_prec` = kAttrListPrec admits ',' (inside '[...]').
  Status ParseAttrs(int min_prec, PredExpr* out) {
    return ParseInfix(kAttrOps, &Parser::ParseAttrUnary, min_prec, out);
  }

  Status ParseAttrUnary(PredExpr* out) {
    if (Accept(TokenType::kBang)) {
      PredExpr inner;
      Status s = ParseAttrUnary(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = PredExpr::Not(std::move(inner));
      return Status::Ok();
    }
    if (Cur().type == TokenType::kLParen) {
      Advance();
      Status s = ParseAttrs(kAttrListPrec + 1, out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "attribute constraint");
    }
    return ParseConstraintLeaf(out);
  }

  // An optional '[' <attr_cstr> ']' after an entity or event; `context`
  // names it in a missing-']' error.
  Status ParseOptionalAttrs(const char* context, PredExpr* out) {
    if (!Accept(TokenType::kLBracket)) {
      return Status::Ok();
    }
    Status s = ParseAttrs(kAttrListPrec, out);
    if (!s.ok()) {
      return s;
    }
    return Expect(TokenType::kRBracket, context);
  }

  // --- operation expressions -----------------------------------------------
  // <op_exp>
  Status ParseOps(OpMask* out) {
    return ParseInfix(kOpSetOps, &Parser::ParseOpUnary, 1, out);
  }

  Status ParseOpUnary(OpMask* out) {
    if (Accept(TokenType::kBang)) {
      OpMask inner = 0;
      Status s = ParseOpUnary(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = static_cast<OpMask>(~inner & kAllOps);
      return Status::Ok();
    }
    if (Cur().type == TokenType::kLParen) {
      Advance();
      Status s = ParseOps(out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "operation expression");
    }
    if (Cur().type == TokenType::kIdent) {
      std::optional<Operation> op = ParseOperation(Cur().text);
      if (!op.has_value()) {
        return ErrStatus("unknown operation");
      }
      Advance();
      *out = OpBit(*op);
      return Status::Ok();
    }
    return ErrStatus("expected an operation");
  }

  // --- entities and patterns -----------------------------------------------
  Status ParseEntity(ast::EntityRef* out) {
    const std::optional<EntityType> type = CurEntityType();
    if (!type.has_value()) {
      return ErrStatus("expected an entity type (proc/file/ip)");
    }
    out->type = *type;
    out->line = Cur().line;
    Advance();
    if (Cur().type == TokenType::kIdent && !IsReservedWord(Cur().text)) {
      out->id = Cur().text;
      Advance();
    }
    return ParseOptionalAttrs("entity constraint", &out->constraint);
  }

  Status ParseEventPattern(ast::EventPattern* out) {
    out->line = Cur().line;
    Status s = ParseEntity(&out->subject);
    if (!s.ok()) {
      return s;
    }
    s = ParseOps(&out->ops);
    if (!s.ok()) {
      return s;
    }
    s = ParseEntity(&out->object);
    if (!s.ok()) {
      return s;
    }
    if (AcceptIdent("as")) {
      if (Cur().type != TokenType::kIdent || IsReservedWord(Cur().text)) {
        return ErrStatus("expected an event identifier after 'as'");
      }
      out->evt_id = Cur().text;
      Advance();
      s = ParseOptionalAttrs("event constraint", &out->evt_constraint);
      if (!s.ok()) {
        return s;
      }
    }
    if (AtTimeWindow()) {
      s = ParseTimeWindow("pattern time window", &out->time_window.emplace());
    }
    return s;
  }

  // --- relationships ---------------------------------------------------------
  // <id> ('.' <attr>)?; `missing` is the error when no identifier comes.
  Status ParseRef(const char* missing, std::string* id, std::string* attr) {
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus(missing);
    }
    *id = Cur().text;
    Advance();
    if (Accept(TokenType::kDot)) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an attribute after '.'");
      }
      *attr = ToLower(Cur().text);
      Advance();
    }
    return Status::Ok();
  }

  Status ParseRelationship(ast::MultieventQuery* out) {
    const int line = Cur().line;
    std::string left, left_attr;
    Status s = ParseRef("expected a relationship", &left, &left_attr);
    if (!s.ok()) {
      return s;
    }
    if (IsIdent("before") || IsIdent("after") || IsIdent("within")) {
      ast::TempRel rel;
      rel.line = line;
      rel.left_evt = left;
      if (!left_attr.empty()) {
        return ErrStatus("temporal relationships take event IDs, not attributes");
      }
      if (AcceptIdent("before")) {
        rel.order = ast::TempOrder::kBefore;
      } else if (AcceptIdent("after")) {
        rel.order = ast::TempOrder::kAfter;
      } else {
        AcceptIdent("within");
        rel.order = ast::TempOrder::kWithin;
      }
      if (Accept(TokenType::kLBracket)) {
        // [lo - hi unit]
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number in temporal range");
        }
        double lo = Cur().number;
        Advance();
        s = Expect(TokenType::kMinus, "temporal range");
        if (!s.ok()) {
          return s;
        }
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number in temporal range");
        }
        double hi = Cur().number;
        Advance();
        if (Cur().type != TokenType::kIdent) {
          return ErrStatus("expected a time unit in temporal range");
        }
        Result<DurationMs> lo_ms = ParseDuration(lo, Cur().text);
        Result<DurationMs> hi_ms = ParseDuration(hi, Cur().text);
        if (!lo_ms.ok()) {
          return ErrStatus(lo_ms.error());
        }
        if (!hi_ms.ok()) {
          return ErrStatus(hi_ms.error());
        }
        Advance();
        s = Expect(TokenType::kRBracket, "temporal range");
        if (!s.ok()) {
          return s;
        }
        rel.lo = lo_ms.value();
        rel.hi = hi_ms.value();
      }
      if (Cur().type != TokenType::kIdent || IsReservedWord(Cur().text)) {
        return ErrStatus("expected an event identifier after temporal operator");
      }
      rel.right_evt = Cur().text;
      Advance();
      out->temp_rels.push_back(std::move(rel));
      return Status::Ok();
    }
    const Comparison* cmp = ComparisonOf(Cur().type);
    if (cmp == nullptr) {
      return ErrStatus("expected a comparison or temporal operator in relationship");
    }
    Advance();
    ast::AttrRel rel;
    rel.line = line;
    rel.left_id = left;
    rel.left_attr = left_attr;
    rel.op = cmp->cmp;
    s = ParseRef("expected an identifier on the right side of the relationship", &rel.right_id,
                 &rel.right_attr);
    if (s.ok()) {
      out->attr_rels.push_back(std::move(rel));
    }
    return s;
  }

  // --- expressions -----------------------------------------------------------
  Status ParseExpr(Expr* out) {
    return ParseInfix(kExprOps, &Parser::ParseUnaryExpr, 1, out);
  }

  Status ParseUnaryExpr(Expr* out) {
    if (Cur().type == TokenType::kBang || Cur().type == TokenType::kMinus) {
      const char op = Cur().type == TokenType::kBang ? '!' : '-';
      Advance();
      Expr inner;
      Status s = ParseUnaryExpr(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Unary(op, std::move(inner));
      return Status::Ok();
    }
    return ParsePrimaryExpr(out);
  }

  Status ParsePrimaryExpr(Expr* out) {
    if (Cur().type == TokenType::kNumber) {
      *out = Expr::Number(Cur().number);
      Advance();
      return Status::Ok();
    }
    if (Cur().type == TokenType::kString) {
      *out = Expr::String(Cur().text);
      Advance();
      return Status::Ok();
    }
    if (Cur().type == TokenType::kParam) {
      *out = Expr::Param(Cur().text, Cur().line);
      Advance();
      return Status::Ok();
    }
    if (Accept(TokenType::kLParen)) {
      Status s = ParseExpr(out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "expression");
    }
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected an expression");
    }
    if (Peek().type == TokenType::kLParen) {
      // Function call; count(distinct x) becomes count_distinct(x).
      std::string func = ToLower(Cur().text);
      Advance();
      Advance();
      if (EqualsIgnoreCase(func, "count") && AcceptIdent("distinct")) {
        func = "count_distinct";
      }
      std::vector<Expr> args;
      if (Cur().type != TokenType::kRParen) {
        do {
          Expr arg;
          Status s = ParseExpr(&arg);
          if (!s.ok()) {
            return s;
          }
          args.push_back(std::move(arg));
        } while (Accept(TokenType::kComma));
      }
      *out = Expr::Call(std::move(func), std::move(args));
      return Expect(TokenType::kRParen, "function call");
    }
    if (Peek().type == TokenType::kLBracket && Peek(2).type == TokenType::kNumber) {
      // History reference: alias[k].
      std::string name = Cur().text;
      Advance();
      Advance();
      if (!FitsIn<int>(Cur().number)) {
        return ErrStatus("history offset out of range");
      }
      *out = Expr::Hist(std::move(name), static_cast<int>(Cur().number));
      Advance();
      return Expect(TokenType::kRBracket, "history reference");
    }
    std::string name, attr;
    Status s = ParseRef("expected an expression", &name, &attr);
    *out = Expr::Var(std::move(name), std::move(attr));
    return s;
  }

  // --- return and filters ----------------------------------------------------
  Status ParseReturnItem(ast::ReturnItem* out) {
    Status s = ParseExpr(&out->expr);
    if (!s.ok()) {
      return s;
    }
    if (AcceptIdent("as")) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an alias after 'as'");
      }
      out->rename = Cur().text;
      Advance();
    }
    return Status::Ok();
  }

  // <res> (',' <res>)*
  Status ParseReturnItems(std::vector<ast::ReturnItem>* out) {
    do {
      Status s = ParseReturnItem(&out->emplace_back());
      if (!s.ok()) {
        return s;
      }
    } while (Accept(TokenType::kComma));
    return Status::Ok();
  }

  // <return> <filter>*: the tail of every query body.
  Status ParseReturnAndFilters(ast::ReturnClause* ret, ast::Filters* filters) {
    Status s = ParseReturnClause(ret);
    if (!s.ok()) {
      return s;
    }
    return ParseFilters(filters);
  }

  Status ParseReturnClause(ast::ReturnClause* out) {
    if (!AcceptIdent("return")) {
      return ErrStatus("expected 'return'");
    }
    if (IsIdent("count") && Peek().type != TokenType::kLParen) {
      out->count_all = true;
      Advance();
    }
    if (AcceptIdent("distinct")) {
      out->distinct = true;
    }
    return ParseReturnItems(&out->items);
  }

  Status ParseFilters(ast::Filters* out) {
    for (;;) {
      if (IsIdent("group")) {
        Advance();
        if (!AcceptIdent("by")) {
          return ErrStatus("expected 'by' after 'group'");
        }
        Status s = ParseReturnItems(&out->group_by);
        if (!s.ok()) {
          return s;
        }
        continue;
      }
      if (IsIdent("having")) {
        Advance();
        Expr e;
        Status s = ParseExpr(&e);
        if (!s.ok()) {
          return s;
        }
        out->having = std::move(e);
        continue;
      }
      if (IsIdent("sort")) {
        Advance();
        if (!AcceptIdent("by")) {
          return ErrStatus("expected 'by' after 'sort'");
        }
        do {
          ast::SortKey key;
          const int line = Cur().line;
          Status s = ParseExpr(&key.expr);
          if (!s.ok()) {
            return s;
          }
          key.expr.line = line;
          out->sort_by.push_back(std::move(key));
        } while (Accept(TokenType::kComma));
        if (AcceptIdent("desc")) {
          for (auto& k : out->sort_by) {
            k.ascending = false;
          }
        } else {
          AcceptIdent("asc");
        }
        continue;
      }
      if (IsIdent("top")) {
        Advance();
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number after 'top'");
        }
        if (!FitsIn<int64_t>(Cur().number)) {
          return ErrStatus("'top' count out of range");
        }
        out->top = static_cast<int64_t>(Cur().number);
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  // --- query bodies ----------------------------------------------------------
  Status ParseMultievent(ast::MultieventQuery* out) {
    while (CurEntityType().has_value()) {
      ast::EventPattern pattern;
      Status s = ParseEventPattern(&pattern);
      if (!s.ok()) {
        return s;
      }
      out->patterns.push_back(std::move(pattern));
    }
    if (out->patterns.empty()) {
      return ErrStatus("a multievent query needs at least one event pattern");
    }
    if (AcceptIdent("with")) {
      do {
        Status s = ParseRelationship(out);
        if (!s.ok()) {
          return s;
        }
      } while (Accept(TokenType::kComma));
    }
    return ParseReturnAndFilters(&out->ret, &out->filters);
  }

  Status ParseDependency(ast::DependencyQuery* out) {
    if (IsIdent("forward") || IsIdent("backward")) {
      out->forward = IsIdent("forward");
      Advance();
      Status s = Expect(TokenType::kColon, "dependency direction");
      if (!s.ok()) {
        return s;
      }
    }
    ast::EntityRef first;
    Status s = ParseEntity(&first);
    if (!s.ok()) {
      return s;
    }
    out->nodes.push_back(std::move(first));
    while (Cur().type == TokenType::kArrow || Cur().type == TokenType::kLArrow) {
      ast::DependencyEdge edge;
      edge.points_right = Cur().type == TokenType::kArrow;
      Advance();
      s = Expect(TokenType::kLBracket, "dependency edge");
      if (!s.ok()) {
        return s;
      }
      s = ParseOps(&edge.ops);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRBracket, "dependency edge");
      if (!s.ok()) {
        return s;
      }
      ast::EntityRef node;
      s = ParseEntity(&node);
      if (!s.ok()) {
        return s;
      }
      out->edges.push_back(edge);
      out->nodes.push_back(std::move(node));
    }
    if (out->edges.empty()) {
      return ErrStatus("a dependency query needs at least one edge");
    }
    return ParseReturnAndFilters(&out->ret, &out->filters);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ast::Query> ParseQuery(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) {
    return Result<ast::Query>(tokens.status());
  }
  Parser parser(tokens.take());
  return parser.Parse(text);
}

}  // namespace aiql
