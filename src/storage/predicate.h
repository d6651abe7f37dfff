// Attribute predicates and boolean predicate expressions.
//
// AIQL attribute constraints (<attr_cstr> in Grammar 1) compile to a tree of
// atomic comparisons combined with &&, ||, and !. The same representation is
// used for entity constraints (evaluated over the entity catalog to produce
// candidate sets) and event-level constraints (evaluated per event).
#ifndef AIQL_SRC_STORAGE_PREDICATE_H_
#define AIQL_SRC_STORAGE_PREDICATE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/util/value.h"

namespace aiql {

enum class CmpOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLike,
  kNotLike,
  kIn,
  kNotIn,
};

const char* CmpOpName(CmpOp op);

// One atomic comparison: attr <op> value (or value list for IN).
struct AttrPredicate {
  std::string attr;
  CmpOp op = CmpOp::kEq;
  std::vector<Value> values;  // 1 element except for kIn / kNotIn
  // Optional hash set mirroring `values`, for large IN lists (pushed-down
  // candidate sets from the relationship-based scheduler).
  std::shared_ptr<std::unordered_set<Value, ValueHash>> value_set;

  // Builds an IN predicate, materializing the hash set when beneficial.
  static AttrPredicate In(std::string attr, std::vector<Value> values);

  bool Eval(const Value& actual) const;
  std::string ToString() const;
};

// Source of attribute values by name during evaluation: the property-graph
// baseline's per-edge property lookup. The storage engine resolves names once
// per query instead (ResolvedPred in schema.h).
using AttrSource = std::function<std::optional<Value>(std::string_view)>;

// Boolean combination tree over atomic predicates.
class PredExpr {
 public:
  enum class Kind : uint8_t { kTrue, kLeaf, kAnd, kOr, kNot };

  PredExpr() : kind_(Kind::kTrue) {}

  static PredExpr True() { return PredExpr(); }
  static PredExpr Leaf(AttrPredicate pred);
  static PredExpr And(PredExpr lhs, PredExpr rhs);
  static PredExpr Or(PredExpr lhs, PredExpr rhs);
  static PredExpr Not(PredExpr inner);

  Kind kind() const { return kind_; }
  bool is_true() const { return kind_ == Kind::kTrue; }
  const AttrPredicate& leaf() const { return leaf_; }
  const std::vector<PredExpr>& children() const { return children_; }

  // Mutable access for the inference pass (default-attribute resolution).
  AttrPredicate* mutable_leaf() { return &leaf_; }
  std::vector<PredExpr>* mutable_children() { return &children_; }

  bool Eval(const AttrSource& source) const;

  // Number of atomic predicates (the pruning-score input of Algorithm 1).
  size_t CountConstraints() const;

  // If the whole expression is a conjunction containing an equality (or
  // non-wildcard LIKE) on `attr`, returns those values — usable for index
  // lookup. Disjunctions at the top level return values only when every
  // branch constrains `attr` by equality.
  std::vector<Value> EqualityValuesFor(std::string_view attr) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kTrue;
  AttrPredicate leaf_;
  std::vector<PredExpr> children_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_PREDICATE_H_
