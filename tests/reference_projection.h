// Reference projection: the straightforward interpreter of return items,
// group keys, aggregates and having clauses, and the multievent projection
// built on it. This is the test oracle for the compiled projector
// (src/core/compiled_projector.h): every row builds a RowAccessor, every
// expression is walked recursively with name-keyed alias maps, and every
// aggregate re-evaluates its argument over the group's rows (std::map of
// rendered group keys, std::set of rendered values for count(distinct x)).
// It shares no evaluation code with src/core/projector.cc, including the
// result tail (distinct, return count, sort by, top).
#ifndef AIQL_TESTS_REFERENCE_PROJECTION_H_
#define AIQL_TESTS_REFERENCE_PROJECTION_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/eval.h"
#include "src/core/result_table.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"

namespace aiql::reference {

// Alias environment for having/sort expressions: alias name -> value, plus
// history lookups alias[k] for anomaly queries.
struct AliasEnv {
  std::function<std::optional<Value>(const std::string&)> lookup;
  std::function<std::optional<Value>(const std::string&, int)> history;  // alias, k back
};

// Row accessor: evaluates resolved refs against a joined tuple row.
class RowAccessor {
 public:
  // `row[i]` is the matched event of pattern `pattern_order[i]`.
  RowAccessor(const std::vector<EventView>& row, const std::vector<size_t>& pattern_order,
              const EntityCatalog& catalog);

  std::optional<Value> Get(const ResolvedRef& ref) const;

 private:
  const std::vector<EventView>& row_;
  std::vector<int> pattern_to_col_;  // pattern index -> column in row_
  const EntityCatalog& catalog_;
};

inline RowAccessor::RowAccessor(const std::vector<EventView>& row,
                                const std::vector<size_t>& pattern_order,
                                const EntityCatalog& catalog)
    : row_(row), catalog_(catalog) {
  size_t max_pattern = 0;
  for (size_t p : pattern_order) {
    max_pattern = std::max(max_pattern, p);
  }
  pattern_to_col_.assign(max_pattern + 1, -1);
  for (size_t i = 0; i < pattern_order.size(); ++i) {
    pattern_to_col_[pattern_order[i]] = static_cast<int>(i);
  }
}

inline std::optional<Value> RowAccessor::Get(const ResolvedRef& ref) const {
  if (ref.side == RefSide::kAlias) {
    return std::nullopt;
  }
  if (ref.pattern >= pattern_to_col_.size()) {
    return std::nullopt;
  }
  int col = pattern_to_col_[ref.pattern];
  if (col < 0 || static_cast<size_t>(col) >= row_.size() || !row_[col].valid()) {
    return std::nullopt;
  }
  return EndpointValue(row_[col], ref.side, ref.attr, catalog_);
}

// Boolean coercion: numbers != 0, non-empty strings are true.
inline bool ValueTruthy(const Value& v) {
  if (v.is_string()) {
    return !v.as_string().empty();
  }
  return v.as_double() != 0.0;
}

// Evaluates a (resolved) expression. Aggregate/moving-average calls are NOT
// handled here: the projector computes those and exposes them via `env` as
// aliases. Returns nullopt on unresolved references.
inline std::optional<Value> EvalScalarExpr(const Expr& e, const RowAccessor* row,
                                           const AliasEnv* env) {
  switch (e.kind) {
    case Expr::Kind::kNumber: {
      if (e.number == std::floor(e.number) && std::abs(e.number) < 1e15) {
        return Value(static_cast<int64_t>(e.number));
      }
      return Value(e.number);
    }
    case Expr::Kind::kString:
      return Value(e.str);
    case Expr::Kind::kParam:
      // Unbound parameter: inference rejects these before execution, so this
      // is unreachable in practice; evaluate to null defensively.
      return std::nullopt;
    case Expr::Kind::kVarRef: {
      if (e.resolved.has_value() && e.resolved->side == RefSide::kAlias) {
        if (env != nullptr && env->lookup) {
          return env->lookup(e.resolved->alias);
        }
        return std::nullopt;
      }
      if (e.resolved.has_value() && row != nullptr) {
        return row->Get(*e.resolved);
      }
      // Fall back to alias lookup by surface name (projector output columns).
      if (env != nullptr && env->lookup) {
        return env->lookup(e.name);
      }
      return std::nullopt;
    }
    case Expr::Kind::kHistRef: {
      if (env != nullptr && env->history) {
        return env->history(e.name, e.hist_offset);
      }
      return std::nullopt;
    }
    case Expr::Kind::kCall: {
      // Aggregates/moving averages are computed by the projector; here they
      // resolve through the alias environment keyed by their rendered name.
      if (env != nullptr && env->lookup) {
        return env->lookup(e.ToString());
      }
      return std::nullopt;
    }
    case Expr::Kind::kUnary: {
      std::optional<Value> v = EvalScalarExpr(e.children[0], row, env);
      if (!v.has_value()) {
        return std::nullopt;
      }
      if (e.uop == '!') {
        return Value(static_cast<int64_t>(!ValueTruthy(*v)));
      }
      if (v->is_int()) {
        return Value(-v->as_int());
      }
      return Value(-v->as_double());
    }
    case Expr::Kind::kBinary: {
      std::optional<Value> lv = EvalScalarExpr(e.children[0], row, env);
      std::optional<Value> rv = EvalScalarExpr(e.children[1], row, env);
      if (!lv.has_value() || !rv.has_value()) {
        return std::nullopt;
      }
      auto arith = [&](auto f) -> Value {
        if (lv->is_int() && rv->is_int()) {
          return Value(static_cast<int64_t>(f(static_cast<double>(lv->as_int()),
                                              static_cast<double>(rv->as_int()))));
        }
        return Value(f(lv->as_double(), rv->as_double()));
      };
      switch (e.bop) {
        case BinOp::kAdd:
          return arith([](double a, double b) { return a + b; });
        case BinOp::kSub:
          return arith([](double a, double b) { return a - b; });
        case BinOp::kMul:
          return arith([](double a, double b) { return a * b; });
        case BinOp::kDiv: {
          double d = rv->as_double();
          if (d == 0) {
            return Value(0.0);
          }
          return Value(lv->as_double() / d);
        }
        case BinOp::kEq:
          return Value(static_cast<int64_t>(*lv == *rv));
        case BinOp::kNe:
          return Value(static_cast<int64_t>(*lv != *rv));
        case BinOp::kLt:
          return Value(static_cast<int64_t>(*lv < *rv));
        case BinOp::kLe:
          return Value(static_cast<int64_t>(*lv <= *rv));
        case BinOp::kGt:
          return Value(static_cast<int64_t>(*lv > *rv));
        case BinOp::kGe:
          return Value(static_cast<int64_t>(*lv >= *rv));
        case BinOp::kAnd:
          return Value(static_cast<int64_t>(ValueTruthy(*lv) && ValueTruthy(*rv)));
        case BinOp::kOr:
          return Value(static_cast<int64_t>(ValueTruthy(*lv) || ValueTruthy(*rv)));
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

inline void CollectAggsFromExpr(const Expr& e, std::vector<const Expr*>* out) {
  if (e.IsAggregateCall()) {
    // Aggregates do not nest; record and stop descending.
    out->push_back(&e);
    return;
  }
  for (const Expr& c : e.children) {
    CollectAggsFromExpr(c, out);
  }
}

inline bool ExprHasAggregate(const Expr& e) {
  return e.Any([](const Expr& x) { return x.IsAggregateCall(); });
}

inline std::string GroupKeyString(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += v.ToString();
    out.push_back('\x1f');
  }
  return out;
}

// The distinct aggregate calls of the items and having clause, keyed by their
// rendered names.
inline std::vector<const Expr*> CollectAggregateCalls(const QueryContext& ctx) {
  std::vector<const Expr*> calls;
  for (const OutputItem& item : ctx.items) {
    CollectAggsFromExpr(item.expr, &calls);
  }
  if (ctx.having.has_value()) {
    CollectAggsFromExpr(*ctx.having, &calls);
  }
  // Dedupe by rendered name.
  std::vector<const Expr*> out;
  std::unordered_set<std::string> seen;
  for (const Expr* c : calls) {
    if (seen.insert(c->ToString()).second) {
      out.push_back(c);
    }
  }
  return out;
}

// Computes one aggregate over a set of rows. `pattern_order` maps row columns
// to pattern ids.
inline Value ComputeAggregate(const Expr& call, const std::vector<std::vector<EventView>>& rows,
                              const std::vector<size_t>& pattern_order,
                              const EntityCatalog& catalog) {
  const std::string& func = call.func;
  if (func == "count" && call.children.empty()) {
    return Value(static_cast<int64_t>(rows.size()));
  }
  if (func == "count_distinct" || func == "count") {
    std::set<std::string> distinct;
    for (const auto& row : rows) {
      RowAccessor acc(row, pattern_order, catalog);
      std::optional<Value> v =
          call.children.empty() ? std::nullopt : EvalScalarExpr(call.children[0], &acc, nullptr);
      if (v.has_value()) {
        distinct.insert(v->ToString());
      }
    }
    if (func == "count_distinct") {
      return Value(static_cast<int64_t>(distinct.size()));
    }
    // count(x): counts rows where x is non-null.
    int64_t n = 0;
    for (const auto& row : rows) {
      RowAccessor acc(row, pattern_order, catalog);
      if (EvalScalarExpr(call.children[0], &acc, nullptr).has_value()) {
        ++n;
      }
    }
    return Value(n);
  }
  // Numeric aggregates.
  double sum = 0;
  double mn = 0, mx = 0;
  size_t n = 0;
  for (const auto& row : rows) {
    RowAccessor acc(row, pattern_order, catalog);
    if (call.children.empty()) {
      continue;
    }
    std::optional<Value> v = EvalScalarExpr(call.children[0], &acc, nullptr);
    if (!v.has_value()) {
      continue;
    }
    double x = v->as_double();
    if (n == 0) {
      mn = mx = x;
    } else {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    sum += x;
    ++n;
  }
  if (func == "sum") {
    return Value(sum);
  }
  if (func == "avg") {
    return Value(n == 0 ? 0.0 : sum / static_cast<double>(n));
  }
  if (func == "min") {
    return Value(mn);
  }
  if (func == "max") {
    return Value(mx);
  }
  return Value();
}

// Applies sort-by keys (by output column), falling back to lexicographic row
// order when the query has no sort clause; then applies top-k.
inline Status SortAndLimit(const QueryContext& ctx, ResultTable* table) {
  if (!ctx.sort_by.empty()) {
    struct Key {
      int col;
      bool asc;
    };
    std::vector<Key> keys;
    for (const ast::SortKey& k : ctx.sort_by) {
      std::string name = k.expr.kind == Expr::Kind::kVarRef && k.expr.attr.empty()
                             ? k.expr.name
                             : k.expr.ToString();
      int col = table->ColumnIndex(name);
      if (col < 0) {
        col = table->ColumnIndex(k.expr.ToString());
      }
      if (col < 0) {
        return Status::Error("sort key '" + name + "' is not a returned column");
      }
      keys.push_back({col, k.ascending});
    }
    std::stable_sort(table->mutable_rows()->begin(), table->mutable_rows()->end(),
                     [&](const std::vector<Value>& a, const std::vector<Value>& b) {
                       for (const Key& k : keys) {
                         const Value& va = a[k.col];
                         const Value& vb = b[k.col];
                         if (va < vb) {
                           return k.asc;
                         }
                         if (vb < va) {
                           return !k.asc;
                         }
                       }
                       return false;
                     });
  } else {
    table->SortRowsLexicographically();
  }
  if (ctx.top.has_value() && *ctx.top >= 0 &&
      table->num_rows() > static_cast<size_t>(*ctx.top)) {
    table->mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
  return Status::Ok();
}

// The result tail: distinct, then `return count`, then sort and top.
inline Result<ResultTable> FinishResults(const QueryContext& ctx, ResultTable table) {
  // DISTINCT before COUNT so `return count distinct x` counts distinct rows.
  if (ctx.distinct) {
    table.SortRowsLexicographically();
    auto* rows = table.mutable_rows();
    rows->erase(std::unique(rows->begin(), rows->end(),
                            [](const std::vector<Value>& a, const std::vector<Value>& b) {
                              if (a.size() != b.size()) {
                                return false;
                              }
                              for (size_t i = 0; i < a.size(); ++i) {
                                if (a[i] != b[i]) {
                                  return false;
                                }
                              }
                              return true;
                            }),
                rows->end());
  }
  if (ctx.count_all) {
    ResultTable count_table({"count"});
    count_table.AddRow({Value(static_cast<int64_t>(table.num_rows()))});
    return count_table;
  }

  Status s = SortAndLimit(ctx, &table);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  return table;
}

// Multievent projection over a tuple set.
inline Result<ResultTable> ProjectResults(const QueryContext& ctx, const TupleSet& tuples,
                                          const EntityCatalog& catalog) {
  const std::vector<size_t>& pattern_order = tuples.patterns();

  bool aggregated = !ctx.group_by.empty();
  for (const OutputItem& item : ctx.items) {
    aggregated = aggregated || ExprHasAggregate(item.expr);
  }

  std::vector<std::string> columns;
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  if (!aggregated) {
    // Row-wise projection.
    for (const auto& row : tuples.rows()) {
      RowAccessor acc(row, pattern_order, catalog);
      std::vector<Value> out_row;
      out_row.reserve(ctx.items.size());
      AliasEnv env;
      std::unordered_map<std::string, Value> computed;
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        std::optional<Value> v = EvalScalarExpr(ctx.items[i].expr, &acc, nullptr);
        out_row.push_back(v.value_or(Value()));
        computed[ctx.items[i].name] = out_row.back();
      }
      if (ctx.having.has_value()) {
        env.lookup = [&](const std::string& name) -> std::optional<Value> {
          auto it = computed.find(name);
          if (it != computed.end()) {
            return it->second;
          }
          return std::nullopt;
        };
        std::optional<Value> ok = EvalScalarExpr(*ctx.having, &acc, &env);
        if (!ok.has_value() || !ValueTruthy(*ok)) {
          continue;
        }
      }
      table.AddRow(std::move(out_row));
    }
  } else {
    // Group rows, compute aggregates per group.
    std::vector<const Expr*> agg_calls = CollectAggregateCalls(ctx);
    std::map<std::string, std::pair<std::vector<Value>, std::vector<std::vector<EventView>>>>
        groups;
    for (const auto& row : tuples.rows()) {
      RowAccessor acc(row, pattern_order, catalog);
      std::vector<Value> key;
      for (const OutputItem& g : ctx.group_by) {
        key.push_back(EvalScalarExpr(g.expr, &acc, nullptr).value_or(Value()));
      }
      auto& slot = groups[GroupKeyString(key)];
      if (slot.second.empty()) {
        slot.first = key;
      }
      slot.second.push_back(row);
    }
    // A query with aggregates but no group-by forms one global group, even
    // when there are no input rows (SQL semantics for global aggregates).
    if (ctx.group_by.empty() && groups.empty()) {
      groups[""] = {{}, {}};
    }

    for (auto& [key_str, slot] : groups) {
      const auto& rows = slot.second;
      std::unordered_map<std::string, Value> agg_values;
      for (const Expr* call : agg_calls) {
        agg_values[call->ToString()] =
            ComputeAggregate(*call, rows, pattern_order, catalog);
      }
      // Representative row gives the values of group keys / plain refs.
      std::vector<EventView> empty_row;
      const std::vector<EventView>& rep = rows.empty() ? empty_row : rows.front();
      RowAccessor acc(rep, pattern_order, catalog);

      std::unordered_map<std::string, Value> computed;
      AliasEnv env;
      env.lookup = [&](const std::string& name) -> std::optional<Value> {
        auto it = agg_values.find(name);
        if (it != agg_values.end()) {
          return it->second;
        }
        auto it2 = computed.find(name);
        if (it2 != computed.end()) {
          return it2->second;
        }
        return std::nullopt;
      };

      std::vector<Value> out_row;
      out_row.reserve(ctx.items.size());
      for (const OutputItem& item : ctx.items) {
        std::optional<Value> v = EvalScalarExpr(item.expr, rows.empty() ? nullptr : &acc, &env);
        out_row.push_back(v.value_or(Value()));
        computed[item.name] = out_row.back();
      }
      if (ctx.having.has_value()) {
        std::optional<Value> ok =
            EvalScalarExpr(*ctx.having, rows.empty() ? nullptr : &acc, &env);
        if (!ok.has_value() || !ValueTruthy(*ok)) {
          continue;
        }
      }
      table.AddRow(std::move(out_row));
    }
  }
  return reference::FinishResults(ctx, std::move(table));
}

// --- comparison ----------------------------------------------------------------

// Same type and same value; doubles compared bit for bit.
inline bool SameValue(const Value& a, const Value& b) {
  if (a.is_int() != b.is_int() || a.is_double() != b.is_double() ||
      a.is_string() != b.is_string()) {
    return false;
  }
  if (a.is_double()) {
    return std::bit_cast<uint64_t>(a.as_double()) == std::bit_cast<uint64_t>(b.as_double());
  }
  return a.is_int() ? a.as_int() == b.as_int() : a.as_string() == b.as_string();
}

inline std::string Describe(const Value& v) {
  return std::string(v.is_int() ? "int:" : v.is_double() ? "double:" : "string:") + v.ToString();
}

// Empty when the two tables have the same columns and the same rows in the
// same order, values of the same type and doubles bit-equal; otherwise the
// first difference.
inline std::string TableDiff(const ResultTable& want, const ResultTable& got) {
  if (want.columns() != got.columns()) {
    return "columns differ";
  }
  if (want.num_rows() != got.num_rows()) {
    return "reference has " + std::to_string(want.num_rows()) + " rows, compiled " +
           std::to_string(got.num_rows());
  }
  for (size_t r = 0; r < want.num_rows(); ++r) {
    const std::vector<Value>& wr = want.rows()[r];
    const std::vector<Value>& gr = got.rows()[r];
    if (wr.size() != gr.size()) {
      return "row " + std::to_string(r) + " width differs";
    }
    for (size_t c = 0; c < wr.size(); ++c) {
      if (!SameValue(wr[c], gr[c])) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) + ": reference " +
               Describe(wr[c]) + ", compiled " + Describe(gr[c]);
      }
    }
  }
  return "";
}

}  // namespace aiql::reference

#endif  // AIQL_TESTS_REFERENCE_PROJECTION_H_
