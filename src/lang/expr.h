// Expression AST shared by return clauses, group-by keys, and having filters.
//
// Covers the arithmetic/comparison expressions of anomaly queries (paper
// §4.3), including history-state references (`freq[1]` = value one sliding
// window back) and the built-in moving averages SMA/CMA/WMA/EWMA, as well as
// the simple column references of multievent return clauses.
#ifndef AIQL_SRC_LANG_EXPR_H_
#define AIQL_SRC_LANG_EXPR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace aiql {

struct AttrDef;  // src/storage/schema.h

// Where a resolved variable reference points.
enum class RefSide : uint8_t { kSubject, kObject, kEvent, kAlias };

struct ResolvedRef {
  size_t pattern = 0;   // event-pattern index (unused for kAlias)
  RefSide side = RefSide::kSubject;
  const AttrDef* attr = nullptr;  // the attribute read (kSubject/kObject/kEvent)
  std::string alias;              // the return alias (kAlias)
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* BinOpName(BinOp op);

struct Expr {
  enum class Kind : uint8_t {
    kNumber,   // numeric literal
    kString,   // string literal
    kParam,    // $name: unbound query parameter (replaced by Bind)
    kVarRef,   // name or name.attr
    kHistRef,  // name[k]: aggregation alias k windows back
    kCall,     // func(args...): count/sum/avg/min/max/count_distinct/SMA/...
    kBinary,
    kUnary,    // '!' or '-'
  };

  Kind kind = Kind::kNumber;
  double number = 0;
  std::string str;
  int line = 0;  // source line; set for kParam and sort-key roots (diagnostics)

  // kVarRef / kHistRef / kParam
  std::string name;
  std::string attr;          // empty => infer default attribute
  int hist_offset = 0;       // kHistRef
  std::optional<ResolvedRef> resolved;  // filled by the inference pass

  // kCall
  std::string func;          // lower-cased function name

  // kBinary / kUnary / kCall arguments
  BinOp bop = BinOp::kAdd;
  char uop = '!';
  std::vector<Expr> children;

  static Expr Number(double v);
  static Expr String(std::string v);
  static Expr Param(std::string name, int line);
  static Expr Var(std::string name, std::string attr = "");
  static Expr Hist(std::string name, int offset);
  static Expr Call(std::string func, std::vector<Expr> args);
  static Expr Binary(BinOp op, Expr lhs, Expr rhs);
  static Expr Unary(char op, Expr operand);

  bool IsAggregateCall() const;
  bool IsMovingAverageCall() const;

  // True if any node in the tree satisfies `pred`.
  template <typename Pred>
  bool Any(const Pred& pred) const {
    if (pred(*this)) {
      return true;
    }
    for (const Expr& c : children) {
      if (c.Any(pred)) {
        return true;
      }
    }
    return false;
  }

  // Renders roughly the original AIQL surface syntax (for error messages and
  // derived column names).
  std::string ToString() const;
};

// Aggregate function names recognized in return clauses.
bool IsAggregateFunc(const std::string& lower_name);
// Moving-average builtins (paper §4.3): sma, cma, wma, ewma.
bool IsMovingAverageFunc(const std::string& lower_name);

}  // namespace aiql

#endif  // AIQL_SRC_LANG_EXPR_H_
