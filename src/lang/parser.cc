#include "src/lang/parser.h"

#include <optional>
#include <utility>

#include "src/lang/lexer.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

using ast::Query;

bool IsEntityTypeName(const std::string& s) {
  return EqualsIgnoreCase(s, "proc") || EqualsIgnoreCase(s, "process") ||
         EqualsIgnoreCase(s, "file") || EqualsIgnoreCase(s, "ip") ||
         EqualsIgnoreCase(s, "net") || EqualsIgnoreCase(s, "network") ||
         EqualsIgnoreCase(s, "conn");
}

EntityType EntityTypeFromName(const std::string& s) {
  if (EqualsIgnoreCase(s, "file")) {
    return EntityType::kFile;
  }
  if (EqualsIgnoreCase(s, "proc") || EqualsIgnoreCase(s, "process")) {
    return EntityType::kProcess;
  }
  return EntityType::kNetwork;
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
  return ParseOperation(s).has_value() || IsEntityTypeName(s);
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
    } else if (Cur().type == TokenType::kIdent && IsEntityTypeName(Cur().text)) {
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

  static std::optional<CmpOp> CmpFromToken(TokenType t) {
    switch (t) {
      case TokenType::kEq:
        return CmpOp::kEq;
      case TokenType::kNe:
        return CmpOp::kNe;
      case TokenType::kLt:
        return CmpOp::kLt;
      case TokenType::kLe:
        return CmpOp::kLe;
      case TokenType::kGt:
        return CmpOp::kGt;
      case TokenType::kGe:
        return CmpOp::kGe;
      default:
        return std::nullopt;
    }
  }

  static Value TokenValue(const Token& t) {
    if (t.type == TokenType::kNumber) {
      if (t.number == static_cast<int64_t>(t.number)) {
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
      if (Cur().type == TokenType::kLParen &&
          (Peek().type == TokenType::kIdent &&
           (EqualsIgnoreCase(Peek().text, "at") || EqualsIgnoreCase(Peek().text, "from")))) {
        Advance();  // '('
        ast::TimeWindowSpec spec;
        Status s = ParseTimeWindow(&spec);
        if (!s.ok()) {
          return s;
        }
        out->time_windows.push_back(std::move(spec));
        s = Expect(TokenType::kRParen, "time window");
        if (!s.ok()) {
          return s;
        }
        continue;
      }
      if (IsIdent("window") && Peek().type == TokenType::kEq) {
        Advance();
        Advance();
        Status s = ParseDurationTokens(&out->window);
        if (!s.ok()) {
          return s;
        }
        Accept(TokenType::kComma);
        continue;
      }
      if (IsIdent("step") && Peek().type == TokenType::kEq) {
        Advance();
        Advance();
        Status s = ParseDurationTokens(&out->step);
        if (!s.ok()) {
          return s;
        }
        Accept(TokenType::kComma);
        continue;
      }
      // Plain constraint: ident bop value | ident [not] in (...).
      if (Cur().type == TokenType::kIdent && !IsEntityTypeName(Cur().text) &&
          !IsIdent("forward") && !IsIdent("backward")) {
        bool is_cstr = CmpFromToken(Peek().type).has_value() ||
                       (Peek().type == TokenType::kIdent &&
                        (EqualsIgnoreCase(Peek().text, "in") ||
                         EqualsIgnoreCase(Peek().text, "not")));
        if (!is_cstr) {
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

  // One endpoint of a from..to window: a datetime string or a $parameter.
  Status ParseTimeEndpoint(const char* after, std::optional<TimestampMs>* fixed,
                           std::string* param) {
    if (Cur().type == TokenType::kParam) {
      *param = Cur().text;
      Advance();
      return Status::Ok();
    }
    if (Cur().type != TokenType::kString) {
      return ErrStatus(std::string("expected a datetime string or $parameter after '") + after +
                       "'");
    }
    Result<TimestampMs> t = ParseDateTime(Cur().text);
    if (!t.ok()) {
      return ErrStatus(t.error());
    }
    Advance();
    *fixed = t.value();
    return Status::Ok();
  }

  Status ParseTimeWindow(ast::TimeWindowSpec* out) {
    out->line = Cur().line;
    if (AcceptIdent("at")) {
      if (Cur().type == TokenType::kParam) {
        out->at_param = Cur().text;
        Advance();
        return Status::Ok();
      }
      if (Cur().type != TokenType::kString) {
        return ErrStatus("expected a datetime string or $parameter after 'at'");
      }
      Result<TimeRange> r = ParseDateTimeRange(Cur().text);
      if (!r.ok()) {
        return ErrStatus(r.error());
      }
      Advance();
      out->fixed = r.value();
      return Status::Ok();
    }
    if (AcceptIdent("from")) {
      Status s = ParseTimeEndpoint("from", &out->from_fixed, &out->from_param);
      if (!s.ok()) {
        return s;
      }
      if (!AcceptIdent("to")) {
        return ErrStatus("expected 'to' in time window");
      }
      s = ParseTimeEndpoint("to", &out->to_fixed, &out->to_param);
      if (!s.ok()) {
        return s;
      }
      if (out->from_fixed.has_value() && out->to_fixed.has_value()) {
        out->fixed = TimeRange{*out->from_fixed, *out->to_fixed};
      }
      return Status::Ok();
    }
    return ErrStatus("expected 'at' or 'from' in time window");
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

  // --- attribute constraints ----------------------------------------------
  // <cstr> ::= <attr> <bop> <val> | '!'? <val> | <attr> 'not'? 'in' '(' ... ')'
  Status ParseConstraintLeaf(PredExpr* out) {
    if (Cur().type == TokenType::kIdent && !EqualsIgnoreCase(Cur().text, "not")) {
      std::string attr = ToLower(Cur().text);
      // attr bop val
      if (auto cmp = CmpFromToken(Peek().type); cmp.has_value()) {
        Advance();
        Advance();
        if (!IsValueToken(Cur())) {
          return ErrStatus("expected a value after comparison operator");
        }
        *out = PredExpr::Leaf(MakeLeaf(std::move(attr), *cmp, {TokenValue(Cur())}));
        Advance();
        return Status::Ok();
      }
      // attr [not] in ( v, v, ... )
      if (Peek().type == TokenType::kIdent &&
          (EqualsIgnoreCase(Peek().text, "in") || EqualsIgnoreCase(Peek().text, "not"))) {
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
      Status s = ParseAttrOr(out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "attribute constraint");
    }
    return ParseConstraintLeaf(out);
  }

  Status ParseAttrAnd(PredExpr* out) {
    PredExpr lhs;
    Status s = ParseAttrUnary(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kAndAnd)) {
      PredExpr rhs;
      s = ParseAttrUnary(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = PredExpr::And(std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  Status ParseAttrOr(PredExpr* out) {
    PredExpr lhs;
    Status s = ParseAttrAnd(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kOrOr)) {
      PredExpr rhs;
      s = ParseAttrAnd(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = PredExpr::Or(std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  // Entity constraints allow comma-separated conjuncts, as in the paper's
  // Query 3: proc p1["%/bin/cp%", agentid = 2]. Comma binds loosest.
  Status ParseAttrList(PredExpr* out) {
    PredExpr lhs;
    Status s = ParseAttrOr(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kComma)) {
      PredExpr rhs;
      s = ParseAttrOr(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = PredExpr::And(std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  // --- operation expressions -----------------------------------------------
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
      Status s = ParseOpOr(out);
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

  Status ParseOpAnd(OpMask* out) {
    OpMask lhs = 0;
    Status s = ParseOpUnary(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kAndAnd)) {
      OpMask rhs = 0;
      s = ParseOpUnary(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = static_cast<OpMask>(lhs & rhs);
    }
    *out = lhs;
    return Status::Ok();
  }

  Status ParseOpOr(OpMask* out) {
    OpMask lhs = 0;
    Status s = ParseOpAnd(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kOrOr)) {
      OpMask rhs = 0;
      s = ParseOpAnd(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = static_cast<OpMask>(lhs | rhs);
    }
    *out = lhs;
    return Status::Ok();
  }

  // --- entities and patterns -----------------------------------------------
  Status ParseEntity(ast::EntityRef* out) {
    if (Cur().type != TokenType::kIdent || !IsEntityTypeName(Cur().text)) {
      return ErrStatus("expected an entity type (proc/file/ip)");
    }
    out->type = EntityTypeFromName(Cur().text);
    out->line = Cur().line;
    Advance();
    if (Cur().type == TokenType::kIdent && !IsReservedWord(Cur().text)) {
      out->id = Cur().text;
      Advance();
    }
    if (Accept(TokenType::kLBracket)) {
      Status s = ParseAttrList(&out->constraint);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRBracket, "entity constraint");
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  Status ParseEventPattern(ast::EventPattern* out) {
    out->line = Cur().line;
    Status s = ParseEntity(&out->subject);
    if (!s.ok()) {
      return s;
    }
    s = ParseOpOr(&out->ops);
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
      if (Accept(TokenType::kLBracket)) {
        s = ParseAttrList(&out->evt_constraint);
        if (!s.ok()) {
          return s;
        }
        s = Expect(TokenType::kRBracket, "event constraint");
        if (!s.ok()) {
          return s;
        }
      }
    }
    if (Cur().type == TokenType::kLParen && Peek().type == TokenType::kIdent &&
        (EqualsIgnoreCase(Peek().text, "at") || EqualsIgnoreCase(Peek().text, "from"))) {
      Advance();
      ast::TimeWindowSpec spec;
      s = ParseTimeWindow(&spec);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRParen, "pattern time window");
      if (!s.ok()) {
        return s;
      }
      out->time_window = std::move(spec);
    }
    return Status::Ok();
  }

  // --- relationships ---------------------------------------------------------
  Status ParseRelationship(ast::MultieventQuery* out) {
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected a relationship");
    }
    int line = Cur().line;
    std::string left = Cur().text;
    Advance();
    std::string left_attr;
    if (Accept(TokenType::kDot)) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an attribute after '.'");
      }
      left_attr = ToLower(Cur().text);
      Advance();
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
        Status s = Expect(TokenType::kMinus, "temporal range");
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
        if (!lo_ms.ok() || !hi_ms.ok()) {
          return ErrStatus("bad time unit");
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
    auto cmp = CmpFromToken(Cur().type);
    if (!cmp.has_value()) {
      return ErrStatus("expected a comparison or temporal operator in relationship");
    }
    Advance();
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected an identifier on the right side of the relationship");
    }
    ast::AttrRel rel;
    rel.line = line;
    rel.left_id = left;
    rel.left_attr = left_attr;
    rel.op = *cmp;
    rel.right_id = Cur().text;
    Advance();
    if (Accept(TokenType::kDot)) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an attribute after '.'");
      }
      rel.right_attr = ToLower(Cur().text);
      Advance();
    }
    out->attr_rels.push_back(std::move(rel));
    return Status::Ok();
  }

  // --- expressions -----------------------------------------------------------
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
    if (Cur().type == TokenType::kIdent) {
      std::string name = Cur().text;
      Advance();
      if (Accept(TokenType::kLParen)) {
        // Function call; count(distinct x) becomes count_distinct(x).
        std::string func = ToLower(name);
        bool distinct = false;
        if (EqualsIgnoreCase(func, "count") && IsIdent("distinct")) {
          Advance();
          distinct = true;
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
        Status s = Expect(TokenType::kRParen, "function call");
        if (!s.ok()) {
          return s;
        }
        if (distinct) {
          func = "count_distinct";
        }
        *out = Expr::Call(std::move(func), std::move(args));
        return Status::Ok();
      }
      if (Cur().type == TokenType::kLBracket && Peek().type == TokenType::kNumber) {
        // History reference: alias[k].
        Advance();
        int offset = static_cast<int>(Cur().number);
        Advance();
        Status s = Expect(TokenType::kRBracket, "history reference");
        if (!s.ok()) {
          return s;
        }
        *out = Expr::Hist(std::move(name), offset);
        return Status::Ok();
      }
      if (Accept(TokenType::kDot)) {
        if (Cur().type != TokenType::kIdent) {
          return ErrStatus("expected an attribute after '.'");
        }
        std::string attr = ToLower(Cur().text);
        Advance();
        *out = Expr::Var(std::move(name), std::move(attr));
        return Status::Ok();
      }
      *out = Expr::Var(std::move(name));
      return Status::Ok();
    }
    return ErrStatus("expected an expression");
  }

  Status ParseUnaryExpr(Expr* out) {
    if (Accept(TokenType::kBang)) {
      Expr inner;
      Status s = ParseUnaryExpr(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Unary('!', std::move(inner));
      return Status::Ok();
    }
    if (Accept(TokenType::kMinus)) {
      Expr inner;
      Status s = ParseUnaryExpr(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Unary('-', std::move(inner));
      return Status::Ok();
    }
    return ParsePrimaryExpr(out);
  }

  Status ParseMulExpr(Expr* out) {
    Expr lhs;
    Status s = ParseUnaryExpr(&lhs);
    if (!s.ok()) {
      return s;
    }
    for (;;) {
      BinOp op;
      if (Cur().type == TokenType::kStar) {
        op = BinOp::kMul;
      } else if (Cur().type == TokenType::kSlash) {
        op = BinOp::kDiv;
      } else {
        break;
      }
      Advance();
      Expr rhs;
      s = ParseUnaryExpr(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  Status ParseAddExpr(Expr* out) {
    Expr lhs;
    Status s = ParseMulExpr(&lhs);
    if (!s.ok()) {
      return s;
    }
    for (;;) {
      BinOp op;
      if (Cur().type == TokenType::kPlus) {
        op = BinOp::kAdd;
      } else if (Cur().type == TokenType::kMinus) {
        op = BinOp::kSub;
      } else {
        break;
      }
      Advance();
      Expr rhs;
      s = ParseMulExpr(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  Status ParseCmpExpr(Expr* out) {
    Expr lhs;
    Status s = ParseAddExpr(&lhs);
    if (!s.ok()) {
      return s;
    }
    BinOp op;
    switch (Cur().type) {
      case TokenType::kEq:
        op = BinOp::kEq;
        break;
      case TokenType::kNe:
        op = BinOp::kNe;
        break;
      case TokenType::kLt:
        op = BinOp::kLt;
        break;
      case TokenType::kLe:
        op = BinOp::kLe;
        break;
      case TokenType::kGt:
        op = BinOp::kGt;
        break;
      case TokenType::kGe:
        op = BinOp::kGe;
        break;
      default:
        *out = std::move(lhs);
        return Status::Ok();
    }
    Advance();
    Expr rhs;
    s = ParseAddExpr(&rhs);
    if (!s.ok()) {
      return s;
    }
    *out = Expr::Binary(op, std::move(lhs), std::move(rhs));
    return Status::Ok();
  }

  Status ParseAndExpr(Expr* out) {
    Expr lhs;
    Status s = ParseCmpExpr(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kAndAnd)) {
      Expr rhs;
      s = ParseCmpExpr(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
  }

  Status ParseExpr(Expr* out) {
    Expr lhs;
    Status s = ParseAndExpr(&lhs);
    if (!s.ok()) {
      return s;
    }
    while (Accept(TokenType::kOrOr)) {
      Expr rhs;
      s = ParseAndExpr(&rhs);
      if (!s.ok()) {
        return s;
      }
      lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    *out = std::move(lhs);
    return Status::Ok();
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
    do {
      ast::ReturnItem item;
      Status s = ParseReturnItem(&item);
      if (!s.ok()) {
        return s;
      }
      out->items.push_back(std::move(item));
    } while (Accept(TokenType::kComma));
    return Status::Ok();
  }

  Status ParseFilters(ast::Filters* out) {
    for (;;) {
      if (IsIdent("group")) {
        Advance();
        if (!AcceptIdent("by")) {
          return ErrStatus("expected 'by' after 'group'");
        }
        do {
          ast::ReturnItem item;
          Status s = ParseReturnItem(&item);
          if (!s.ok()) {
            return s;
          }
          out->group_by.push_back(std::move(item));
        } while (Accept(TokenType::kComma));
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
          Status s = ParseExpr(&key.expr);
          if (!s.ok()) {
            return s;
          }
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
        out->top = static_cast<int64_t>(Cur().number);
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  // --- query bodies ----------------------------------------------------------
  Status ParseMultievent(ast::MultieventQuery* out) {
    while (Cur().type == TokenType::kIdent && IsEntityTypeName(Cur().text)) {
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
    Status s = ParseReturnClause(&out->ret);
    if (!s.ok()) {
      return s;
    }
    return ParseFilters(&out->filters);
  }

  Status ParseDependency(ast::DependencyQuery* out) {
    if (AcceptIdent("forward")) {
      out->forward = true;
      Status s = Expect(TokenType::kColon, "dependency direction");
      if (!s.ok()) {
        return s;
      }
    } else if (AcceptIdent("backward")) {
      out->forward = false;
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
      s = ParseOpOr(&edge.ops);
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
    s = ParseReturnClause(&out->ret);
    if (!s.ok()) {
      return s;
    }
    return ParseFilters(&out->filters);
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
