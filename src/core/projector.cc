#include "src/core/projector.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "src/core/compiled_projector.h"
#include "src/core/exec_session.h"
#include "src/util/time_utils.h"

namespace aiql {
namespace {

void CollectAggsFromExpr(const Expr& e, std::vector<const Expr*>* out) {
  if (e.IsAggregateCall()) {
    // Aggregates do not nest; record and stop descending.
    out->push_back(&e);
    return;
  }
  for (const Expr& c : e.children) {
    CollectAggsFromExpr(c, out);
  }
}

// The distinct aggregate calls of the return items and having clause, keyed
// by their rendered names.
std::vector<const Expr*> CollectAggregateCalls(const QueryContext& ctx) {
  std::vector<const Expr*> calls;
  for (const OutputItem& item : ctx.items) {
    CollectAggsFromExpr(item.expr, &calls);
  }
  if (ctx.having.has_value()) {
    CollectAggsFromExpr(*ctx.having, &calls);
  }
  std::vector<const Expr*> out;
  std::unordered_set<std::string> seen;
  for (const Expr* c : calls) {
    if (seen.insert(c->ToString()).second) {
      out.push_back(c);
    }
  }
  return out;
}

// --- Scalar operations (Value semantics, int/double/string typing) ---------

// Numbers are true when non-zero, strings when non-empty.
bool Truthy(const Scalar& v) { return v.is_string() ? !v.s->empty() : v.AsDouble() != 0.0; }

bool Equal(const Scalar& a, const Scalar& b) {
  if (a.is_string() && b.is_string()) {
    return a.i == b.i;  // one value table: equal strings share an id
  }
  if (a.numeric() && b.numeric()) {
    return a.is_int() && b.is_int() ? a.i == b.i : a.AsDouble() == b.AsDouble();
  }
  return a.ToValue() == b.ToValue();  // string vs number: rendered comparison
}

bool Less(const Scalar& a, const Scalar& b) {
  if (a.is_string() && b.is_string()) {
    return *a.s < *b.s;
  }
  if (a.numeric() && b.numeric()) {
    return a.is_int() && b.is_int() ? a.i < b.i : a.AsDouble() < b.AsDouble();
  }
  return a.numeric();  // numbers sort before strings
}

// Folded into every copy of the evaluation loop: as a call per operator it
// costs ~25% of a sliding-window query's window loop.
[[gnu::always_inline]] inline Scalar Binary(BinOp op, const Scalar& l, const Scalar& r) {
  auto arith = [&](auto f) {
    if (l.is_int() && r.is_int()) {
      return Scalar::Int(
          static_cast<int64_t>(f(static_cast<double>(l.i), static_cast<double>(r.i))));
    }
    return Scalar::Double(f(l.AsDouble(), r.AsDouble()));
  };
  auto flag = [](bool b) { return Scalar::Int(static_cast<int64_t>(b)); };
  switch (op) {
    case BinOp::kAdd:
      return arith([](double a, double b) { return a + b; });
    case BinOp::kSub:
      return arith([](double a, double b) { return a - b; });
    case BinOp::kMul:
      return arith([](double a, double b) { return a * b; });
    case BinOp::kDiv: {
      double d = r.AsDouble();
      return Scalar::Double(d == 0 ? 0.0 : l.AsDouble() / d);
    }
    case BinOp::kEq:
      return flag(Equal(l, r));
    case BinOp::kNe:
      return flag(!Equal(l, r));
    case BinOp::kLt:
      return flag(Less(l, r));
    case BinOp::kLe:
      return flag(Less(l, r) || Equal(l, r));
    case BinOp::kGt:
      return flag(!(Less(l, r) || Equal(l, r)));
    case BinOp::kGe:
      return flag(!Less(l, r));
    case BinOp::kAnd:
      return flag(Truthy(l) && Truthy(r));
    case BinOp::kOr:
      return flag(Truthy(l) || Truthy(r));
  }
  return Scalar();
}

// Appends the Value::ToString rendering of `v` (null renders as Value()).
void AppendRendered(const Scalar& v, std::string* out) {
  if (v.is_string()) {
    out->append(*v.s);
  } else {
    out->append(v.ToValue().ToString());
  }
}

// `sorted`: the rows are already in lexicographic order (after `distinct`).
Status SortAndLimit(const QueryContext& ctx, bool sorted, ResultTable* table) {
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
  } else if (!sorted) {
    table->SortRowsLexicographically();
  }
  if (ctx.top.has_value() && *ctx.top >= 0 &&
      table->num_rows() > static_cast<size_t>(*ctx.top)) {
    table->mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
  return Status::Ok();
}

}  // namespace

Result<ResultTable> FinishResults(const QueryContext& ctx, ResultTable table) {
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
  Status s = SortAndLimit(ctx, /*sorted=*/ctx.distinct, &table);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  return table;
}

// --- compiler ----------------------------------------------------------------

CompiledProjector::CompiledProjector(const QueryContext& ctx, const EntityCatalog& catalog,
                                     RowSource rows, Mode mode, size_t num_windows)
    : ctx_(ctx), catalog_(catalog), rows_(rows), mode_(mode) {
  std::vector<const Expr*> agg_calls;
  if (mode_ != Mode::kRows) {
    agg_calls = CollectAggregateCalls(ctx_);
  }
  CompilePrograms(agg_calls, num_windows);
  if (mode_ != Mode::kRows) {
    IndexRows();
  }
}

uint32_t CompiledProjector::ComputedSlot(const std::string& name, const Scope& scope) const {
  for (size_t k = scope.pos; k-- > 0;) {
    if (ctx_.items[k].name == name) {
      return item_base_ + static_cast<uint32_t>(k);
    }
  }
  if (!scope.present) {
    // A group without rows in the window exposes its stored key under the
    // group-by names.
    for (size_t g = ctx_.group_by.size(); g-- > 0;) {
      if (ctx_.group_by[g].name == name) {
        return key_base_ + static_cast<uint32_t>(g);
      }
    }
  }
  return 0;  // the null slot
}

// Alias names resolve statically: moving averages (having only), then
// aggregates, then evaluated items, then stored key columns.
void CompiledProjector::EmitLookup(const std::string& name, const Scope& scope, Program* out) {
  Op op;
  if (!scope.lookups) {
    out->push_back(op);  // null
    return;
  }
  if (scope.having) {
    auto ma = ma_by_name_.find(name);
    if (ma != ma_by_name_.end()) {
      op.code = Op::Code::kMovingAvg;
      op.a = ma->second;
      op.b = ComputedSlot(mas_[ma->second].alias, scope);
      out->push_back(op);
      return;
    }
  }
  auto agg = agg_by_name_.find(name);
  op.a = agg != agg_by_name_.end() ? agg->second : ComputedSlot(name, scope);
  out->push_back(op);
}

// Series are keyed by name: every item name has one; a name no item carries
// never receives a value.
uint32_t CompiledProjector::SeriesFor(const std::string& name) {
  auto [it, fresh] =
      series_by_name_.emplace(name, static_cast<uint32_t>(series_by_name_.size()));
  if (fresh) {
    ring_capacity_.push_back(0);
    folds_of_series_.emplace_back();
  }
  return it->second;
}

uint32_t CompiledProjector::RowColumnFor(uint32_t col, const ResolvedRef& ref) {
  for (size_t i = 0; i < row_columns_.size(); ++i) {
    const RowColumn& c = row_columns_[i];
    if (c.col == col && c.side == ref.side && c.attr == ref.attr) {
      return static_cast<uint32_t>(i);
    }
  }
  RowColumn& c = row_columns_.emplace_back();
  c.col = col;
  c.side = ref.side;
  c.attr = ref.attr;
  return static_cast<uint32_t>(row_columns_.size() - 1);
}

Scalar CompiledProjector::InternString(std::string_view s) {
  Scalar out;
  out.tag = Scalar::Tag::kString;
  out.i = values_.Intern(s);
  out.s = &values_.At(static_cast<uint32_t>(out.i));
  return out;
}

Scalar CompiledProjector::Intern(const Value& v) {
  if (v.is_string()) {
    return InternString(v.as_string());
  }
  return v.is_int() ? Scalar::Int(v.as_int()) : Scalar::Double(v.as_double());
}

uint32_t CompiledProjector::RenderedId(const Scalar& v) {
  return static_cast<uint32_t>(v.is_string() ? v.i : values_.Intern(v.ToValue().ToString()));
}

void CompiledProjector::Compile(const Expr& e, const Scope& scope, Program* out) {
  Op op;
  switch (e.kind) {
    case Expr::Kind::kNumber:
      op.a = AddConst(e.number == std::floor(e.number) && std::abs(e.number) < 1e15
                          ? Scalar::Int(static_cast<int64_t>(e.number))
                          : Scalar::Double(e.number));
      out->push_back(op);
      return;
    case Expr::Kind::kString:
      op.a = AddConst(InternString(e.str));
      out->push_back(op);
      return;
    case Expr::Kind::kParam:
      // Unbound parameter: inference rejects these before execution.
      out->push_back(op);  // null
      return;
    case Expr::Kind::kVarRef:
      if (e.resolved.has_value() && e.resolved->side == RefSide::kAlias) {
        EmitLookup(e.resolved->alias, scope, out);
      } else if (e.resolved.has_value() && scope.present) {
        // A pattern the rows do not bind reads null.
        const int col = rows_.ColumnOf(e.resolved->pattern);
        if (col >= 0) {
          op.code = Op::Code::kRowRef;
          op.a = RowColumnFor(static_cast<uint32_t>(col), *e.resolved);
        }
        out->push_back(op);
      } else {
        // A group without rows reads plain references by their surface name.
        EmitLookup(e.name, scope, out);
      }
      return;
    case Expr::Kind::kHistRef:
      if (!scope.lookups || mode_ != Mode::kWindows) {
        out->push_back(op);  // no history outside sliding windows
        return;
      }
      op.code = Op::Code::kHist;
      op.a = SeriesFor(e.name);
      op.b = static_cast<uint32_t>(e.hist_offset);
      op.c = ComputedSlot(e.name, scope);
      ring_capacity_[op.a] = std::max<size_t>(ring_capacity_[op.a], op.b);
      out->push_back(op);
      return;
    case Expr::Kind::kCall:
      EmitLookup(e.ToString(), scope, out);
      return;
    case Expr::Kind::kUnary:
      Compile(e.children[0], scope, out);
      op.code = e.uop == '!' ? Op::Code::kNot : Op::Code::kNeg;
      out->push_back(op);
      return;
    case Expr::Kind::kBinary:
      Compile(e.children[0], scope, out);
      Compile(e.children[1], scope, out);
      op.code = Op::Code::kBinary;
      op.bop = e.bop;
      out->push_back(op);
      return;
  }
}

Program CompiledProjector::CompileRoot(const Expr& e, const Scope& scope) {
  Program prog;
  Compile(e, scope, &prog);
  stack_.resize(std::max(stack_.size(), prog.size()));
  return prog;
}

void CompiledProjector::CompilePrograms(const std::vector<const Expr*>& agg_calls,
                                        size_t num_windows) {
  const size_t num_items = ctx_.items.size();
  agg_base_ = 1;
  item_base_ = agg_base_ + static_cast<uint32_t>(agg_calls.size());
  key_base_ = item_base_ + static_cast<uint32_t>(num_items);
  slots_.assign(key_base_ + ctx_.group_by.size(), Scalar());

  // Group keys and aggregate arguments are evaluated once per row, before any
  // alias exists: alias, history and call references in them read null.
  const Scope per_row{.lookups = false};
  for (const OutputItem& g : ctx_.group_by) {
    keys_.push_back(CompileRoot(g.expr, per_row));
  }
  aggs_.resize(agg_calls.size());
  for (size_t a = 0; a < agg_calls.size(); ++a) {
    const Expr& call = *agg_calls[a];
    agg_by_name_.emplace(call.ToString(), agg_base_ + static_cast<uint32_t>(a));
    AggSpec& spec = aggs_[a];
    if (call.func == "count") {
      spec.kind = call.children.empty() ? AggKind::kRows : AggKind::kNonNull;
    } else if (call.func == "count_distinct") {
      spec.kind = AggKind::kDistinct;
    } else if (call.func == "sum") {
      spec.kind = AggKind::kSum;
    } else if (call.func == "avg") {
      spec.kind = AggKind::kAvg;
    } else if (call.func == "min") {
      spec.kind = AggKind::kMin;
    } else {
      spec.kind = AggKind::kMax;
    }
    if (spec.kind != AggKind::kRows && !call.children.empty()) {
      spec.arg = CompileRoot(call.children[0], per_row);
    }
  }

  if (mode_ == Mode::kRows) {
    // Items see no aliases; having sees every item.
    for (const OutputItem& item : ctx_.items) {
      items_[0].push_back(CompileRoot(item.expr, per_row));
    }
    if (ctx_.having.has_value()) {
      having_[0] = CompileRoot(*ctx_.having, Scope{.pos = num_items});
    }
    return;
  }

  if (mode_ == Mode::kWindows) {
    // Every item appends the value of the last item carrying its name.
    for (size_t i = 0; i < num_items; ++i) {
      appends_.emplace_back(SeriesFor(ctx_.items[i].name),
                            ComputedSlot(ctx_.items[i].name, Scope{.pos = num_items}));
    }
    // Moving averages of the having clause, deduplicated by rendered call.
    if (ctx_.having.has_value()) {
      ctx_.having->Any([&](const Expr& e) {
        if (!e.IsMovingAverageCall() || e.children.empty() ||
            ma_by_name_.count(e.ToString()) > 0) {
          return false;
        }
        MaSpec ma;
        ma.alias = e.children[0].name;
        double param = e.children.size() > 1 ? e.children[1].number : 0;
        ma.series = SeriesFor(ma.alias);
        if (e.func == "sma" || e.func == "wma") {
          ma.kind = e.func == "sma" ? MaKind::kSma : MaKind::kWma;
          ma.n = param > 0 ? static_cast<size_t>(param) : 3;
          // The current value is always present in having: n - 1 history
          // values complete the lookback.
          ring_capacity_[ma.series] =
              std::max(ring_capacity_[ma.series], ma.n > 0 ? ma.n - 1 : 0);
        } else if (e.func == "cma") {
          ma.kind = MaKind::kCma;
          ma.fold = static_cast<uint32_t>(num_cma_++);
        } else {
          ma.kind = MaKind::kEwma;
          ma.alpha = param > 0 ? param : 0.9;
          ma.fold = static_cast<uint32_t>(num_ewma_++);
        }
        uint32_t id = static_cast<uint32_t>(mas_.size());
        if (ma.kind == MaKind::kCma || ma.kind == MaKind::kEwma) {
          folds_of_series_[ma.series].push_back(id);
        }
        mas_.push_back(ma);
        ma_by_name_.emplace(e.ToString(), id);
        return false;  // keep traversing
      });
    }
  }

  for (int absent = 0; absent < 2; ++absent) {
    for (size_t i = 0; i < num_items; ++i) {
      items_[absent].push_back(CompileRoot(ctx_.items[i].expr, Scope{absent == 0, i}));
    }
    if (ctx_.having.has_value()) {
      having_[absent] = CompileRoot(*ctx_.having, Scope{absent == 0, num_items, true});
    }
  }

  // A series never holds more than one value per window per item of its name.
  std::vector<size_t> appends_per_window(ring_capacity_.size(), 0);
  for (const auto& [series, slot] : appends_) {
    ++appends_per_window[series];
  }
  for (size_t s = 0; s < ring_capacity_.size(); ++s) {
    ring_capacity_[s] = std::min(ring_capacity_[s], num_windows * appends_per_window[s]);
  }
}

// The pre-pass: every row's group id and aggregate inputs, once. Rows are
// keyed by their packed key scalars; each distinct packed tuple renders its
// key string once, and tuples whose key strings are equal form one group
// (int 1 and string "1" group together, as they did when rows were keyed by
// their key strings). A count(distinct x) input is likewise rendered once per
// distinct packed x.
void CompiledProjector::IndexRows() {
  const size_t n = rows_.size();
  const size_t num_keys = keys_.size();
  FlatKeyTable tuples(2 * num_keys);
  std::vector<Scalar> tuple_values;  // num_keys per packed tuple
  std::vector<uint32_t> tuple_of(n);
  std::vector<uint64_t> packed(2 * std::max<size_t>(num_keys, 1));
  std::vector<Scalar> key(num_keys);
  // Per count(distinct) aggregate: packed x -> id, and each id's rendered id.
  std::vector<FlatKeyTable> xs(aggs_.size(), FlatKeyTable(2));
  std::vector<std::vector<uint32_t>> x_rendered(aggs_.size());
  for (AggSpec& spec : aggs_) {
    if (spec.kind != AggKind::kRows) {
      spec.has.assign(n, 0);
    }
    if (spec.kind >= AggKind::kSum) {
      spec.x.assign(n, 0);
    }
    if (spec.kind == AggKind::kDistinct) {
      spec.pair.assign(n, -1);
    }
  }
  bool fresh = false;
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < num_keys; ++k) {
      key[k] = Run(keys_[k], nullptr, r);
      key[k].Pack(packed.data() + 2 * k);
    }
    tuple_of[r] = tuples.Insert(packed.data(), &fresh);
    if (fresh) {
      tuple_values.insert(tuple_values.end(), key.begin(), key.end());
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggSpec& spec = aggs_[a];
      if (spec.arg.empty()) {
        continue;
      }
      const Scalar v = Run(spec.arg, nullptr, r);
      if (v.null()) {
        continue;
      }
      spec.has[r] = 1;
      if (spec.kind >= AggKind::kSum) {
        spec.x[r] = v.AsDouble();
      } else if (spec.kind == AggKind::kDistinct) {
        v.Pack(packed.data());
        const uint32_t x = xs[a].Insert(packed.data(), &fresh);
        if (fresh) {
          x_rendered[a].push_back(RenderedId(v));
        }
        spec.pair[r] = static_cast<int32_t>(x_rendered[a][x]);  // paired below
      }
    }
  }

  // One key string per packed tuple; equal strings merge.
  std::unordered_map<std::string, uint32_t> by_string;
  std::vector<const std::string*> key_strings;
  std::vector<uint32_t> merged(tuples.size());
  std::string key_string;
  for (uint32_t t = 0; t < tuples.size(); ++t) {
    key_string.clear();
    for (size_t k = 0; k < num_keys; ++k) {
      AppendRendered(tuple_values[t * num_keys + k], &key_string);
      key_string.push_back('\x1f');
    }
    auto [it, added] =
        by_string.try_emplace(key_string, static_cast<uint32_t>(key_strings.size()));
    if (added) {
      key_strings.push_back(&it->first);
    }
    merged[t] = it->second;
  }

  // Dense ids in key-string order: groups are visited in this order.
  std::vector<uint32_t> order(key_strings.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return *key_strings[a] < *key_strings[b]; });
  std::vector<uint32_t> rank(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
  }
  group_of_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    group_of_[r] = rank[merged[tuple_of[r]]];
  }

  // count(distinct x) counts (rendered x, group) pairs.
  for (AggSpec& spec : aggs_) {
    if (spec.kind != AggKind::kDistinct) {
      continue;
    }
    FlatKeyTable pairs(1);
    for (size_t r = 0; r < n; ++r) {
      if (spec.has[r]) {
        const uint64_t pair = static_cast<uint64_t>(spec.pair[r]) << 32 | group_of_[r];
        spec.pair[r] = static_cast<int32_t>(pairs.Insert(&pair, &fresh));
      }
    }
    spec.pair_stamp.assign(pairs.size(), 0);
  }

  // A global aggregate over no rows still forms its one group (SQL
  // semantics); it is known from the start and has no rows.
  const bool global_group =
      mode_ == Mode::kGroups && ctx_.group_by.empty() && key_strings.empty();
  const size_t num_groups = global_group ? 1 : key_strings.size();
  groups_.resize(num_groups);
  known_.assign(num_groups, global_group ? 1 : 0);
  window_stamp_.assign(num_groups, 0);
  rep_.assign(num_groups, 0);
  rows_in_.assign(num_groups, 0);
  accs_.assign(num_groups * aggs_.size(), Acc());
}

// --- evaluation --------------------------------------------------------------

void CompiledProjector::ActivateGroup(uint32_t g, size_t row) {
  known_[g] = 1;
  GroupState& state = groups_[g];
  for (const Program& key : keys_) {
    state.key.push_back(Run(key, nullptr, row));
  }
  for (size_t capacity : ring_capacity_) {
    state.series.emplace_back(capacity);
  }
  state.ewma.resize(num_ewma_);
  state.cma.resize(num_cma_);
  for (const MaSpec& ma : mas_) {
    if (ma.kind == MaKind::kEwma) {
      state.ewma[ma.fold] = EwmaFold(ma.alpha);
    }
  }
}

inline Scalar CompiledProjector::RowValue(uint32_t col, size_t row) {
  RowColumn& c = row_columns_[col];
  const EventView& e = rows_.At(row, c.col);
  if (e == c.last) {
    return c.value;
  }
  if (!e.valid()) {
    return Scalar();
  }
  if (c.side == RefSide::kEvent) {
    c.value = Intern(EndpointValue(e, c.side, c.attr, catalog_));
  } else {
    // Only an entity not read yet touches the catalog.
    const uint64_t entity =
        c.side == RefSide::kSubject
            ? e.subject_idx()
            : static_cast<uint64_t>(e.object_type()) << 32 | e.object_idx();
    bool fresh = false;
    const uint32_t id = c.entities.Insert(&entity, &fresh);
    if (fresh) {
      c.entity_values.push_back(Intern(EndpointValue(e, c.side, c.attr, catalog_)));
    }
    c.value = c.entity_values[id];
  }
  c.last = e;
  return c.value;
}

inline Scalar CompiledProjector::History(const Op& op, const GroupState& state) const {
  if (state.series[op.a].size() == 0) {
    return Scalar::Double(0.0);
  }
  if (op.b == 0) {
    return slots_[op.c];
  }
  const SeriesRing& ring = state.series[op.a];
  if (ring.size() < op.b) {
    return Scalar::Double(0.0);
  }
  return Scalar::Double(ring.Back(op.b));
}

inline Scalar CompiledProjector::MovingAverage(const Op& op, const GroupState& state) const {
  const MaSpec& ma = mas_[op.a];
  const Scalar& cur_slot = slots_[op.b];
  double cur_value = cur_slot.AsDouble();
  const double* cur = cur_slot.null() ? nullptr : &cur_value;
  const SeriesRing& ring = state.series[ma.series];
  double out = 0;
  switch (ma.kind) {
    case MaKind::kSma:
      out = ring.Sma(ma.n, cur);
      break;
    case MaKind::kWma:
      out = ring.Wma(ma.n, cur);
      break;
    case MaKind::kCma:
      out = cur != nullptr ? state.cma[ma.fold].With(*cur) : state.cma[ma.fold].Get();
      break;
    case MaKind::kEwma:
      out = cur != nullptr ? state.ewma[ma.fold].With(*cur) : state.ewma[ma.fold].Get();
      break;
  }
  return Scalar::Double(out);
}

// `state` is null where no history op is compiled (per-row programs, kRows,
// kGroups).
inline Scalar CompiledProjector::Run(const Program& prog, const GroupState* state, size_t row) {
  Scalar* sp = stack_.data();
  for (const Op& op : prog) {
    switch (op.code) {
      case Op::Code::kLoad:
        *sp++ = slots_[op.a];
        break;
      case Op::Code::kRowRef:
        *sp++ = RowValue(op.a, row);
        break;
      case Op::Code::kHist:
        *sp++ = History(op, *state);
        break;
      case Op::Code::kMovingAvg:
        *sp++ = MovingAverage(op, *state);
        break;
      case Op::Code::kNot:
        if (!sp[-1].null()) {
          sp[-1] = Scalar::Int(static_cast<int64_t>(!Truthy(sp[-1])));
        }
        break;
      case Op::Code::kNeg:
        if (sp[-1].is_int()) {
          sp[-1] = Scalar::Int(-sp[-1].i);
        } else if (!sp[-1].null()) {
          sp[-1] = Scalar::Double(-sp[-1].AsDouble());
        }
        break;
      case Op::Code::kBinary: {
        const Scalar r = *--sp;
        Scalar& l = sp[-1];
        l = l.null() || r.null() ? Scalar() : Binary(op.bop, l, r);
        break;
      }
    }
  }
  return sp[-1];
}

// Evaluates the item programs into their slots (null returns Value()), then
// the having clause; true when the row passes.
inline bool CompiledProjector::EvalRow(bool absent, const GroupState* state, size_t row) {
  const std::vector<Program>& items = items_[absent];
  for (size_t i = 0; i < items.size(); ++i) {
    Scalar v = Run(items[i], state, row);
    slots_[item_base_ + i] = v.null() ? Scalar::Int(0) : v;
  }
  if (!ctx_.having.has_value()) {
    return true;
  }
  const Scalar ok = Run(having_[absent], state, row);
  return !ok.null() && Truthy(ok);
}

// Appends the item values to `out_row`, then the row to `table`.
void CompiledProjector::EmitRow(std::vector<Value> out_row, ResultTable* table) const {
  for (size_t i = 0; i < ctx_.items.size(); ++i) {
    out_row.push_back(slots_[item_base_ + i].ToValue());
  }
  table->AddRow(std::move(out_row));
}

// Under `distinct`, a row whose packed items equal an appended row's is
// dropped before it is rendered. Equal packed items are equal Values, and
// FinishResults' stable sort keeps the first of equal rows, so its
// value-level distinct would drop the row too and returns the same rows.
// NaN equals nothing and breaks the sort's order, so that argument needs
// every row NaN-free: a projection with a NaN item starts over without the
// pre-pass.
Status CompiledProjector::ProjectRows(const ScanContext& stop, ResultTable* table) {
  bool nan = false;
  Status s = EmitRows(stop, ctx_.distinct, table, &nan);
  if (s.ok() && nan) {
    table->mutable_rows()->clear();
    s = EmitRows(stop, /*dedupe=*/false, table, &nan);
  }
  return s;
}

Status CompiledProjector::EmitRows(const ScanContext& stop, bool dedupe, ResultTable* table,
                                   bool* nan) {
  const size_t num_items = ctx_.items.size();
  FlatKeyTable seen(2 * num_items);
  std::vector<uint64_t> packed(2 * num_items);
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (Status s = stop.StopStatus(); !s.ok()) {
      return s;
    }
    if (!EvalRow(/*absent=*/false, nullptr, r)) {
      continue;
    }
    if (dedupe) {
      for (size_t i = 0; i < num_items; ++i) {
        const Scalar& v = slots_[item_base_ + i];
        if (v.nan()) {
          *nan = true;
          return Status::Ok();
        }
        v.Pack(packed.data() + 2 * i);
      }
      bool fresh = false;
      seen.Insert(packed.data(), &fresh);
      if (!fresh) {
        continue;
      }
    }
    // Allocated before EmitRow renders the row's strings, so the row sits
    // next to them on the heap; the tail's sort over many rows is ~25%
    // slower when it does not.
    std::vector<Value> out_row;
    out_row.reserve(num_items);
    EmitRow(std::move(out_row), table);
  }
  return Status::Ok();
}

Status CompiledProjector::RunWindow(uint32_t w, std::optional<TimestampMs> window_start,
                                    size_t first, size_t last, const ScanContext* stop,
                                    ResultTable* table) {
  const uint32_t stamp = w + 1;
  const size_t num_aggs = aggs_.size();

  // Fold the window's rows into their groups' accumulators, in row order.
  for (size_t r = first; r < last; ++r) {
    const uint32_t g = group_of_[r];
    Acc* accs = accs_.data() + g * num_aggs;
    if (window_stamp_[g] != stamp) {
      window_stamp_[g] = stamp;
      rep_[g] = r;
      rows_in_[g] = 0;
      std::fill(accs, accs + num_aggs, Acc());
      if (!known_[g]) {
        ActivateGroup(g, r);
      }
    }
    ++rows_in_[g];
    for (size_t a = 0; a < num_aggs; ++a) {
      AggSpec& spec = aggs_[a];
      if (spec.kind == AggKind::kRows || !spec.has[r]) {
        continue;
      }
      Acc& acc = accs[a];
      if (spec.kind == AggKind::kNonNull) {
        ++acc.n;
        continue;
      }
      if (spec.kind == AggKind::kDistinct) {
        uint32_t& seen = spec.pair_stamp[static_cast<uint32_t>(spec.pair[r])];
        if (seen != stamp) {
          seen = stamp;
          ++acc.n;
        }
        continue;
      }
      const double x = spec.x[r];
      if (acc.n == 0) {
        acc.mn = acc.mx = x;
      } else {
        acc.mn = std::min(acc.mn, x);
        acc.mx = std::max(acc.mx, x);
      }
      acc.sum += x;
      ++acc.n;
    }
  }

  // Every known group is evaluated: under sliding windows a group without
  // events in this window still records its (zero) state so history offsets
  // stay aligned.
  static const Acc kZero;
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    if (!known_[g]) {
      continue;
    }
    if (stop != nullptr) {
      if (Status s = stop->StopStatus(); !s.ok()) {
        return s;
      }
    }
    GroupState& state = groups_[g];
    const bool present = window_stamp_[g] == stamp;
    const Acc* accs = present ? accs_.data() + g * num_aggs : nullptr;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Acc& acc = present ? accs[a] : kZero;
      Scalar& v = slots_[agg_base_ + a];
      switch (aggs_[a].kind) {
        case AggKind::kRows:
          v = Scalar::Int(present ? rows_in_[g] : 0);
          break;
        case AggKind::kNonNull:
        case AggKind::kDistinct:
          v = Scalar::Int(acc.n);
          break;
        case AggKind::kSum:
          v = Scalar::Double(acc.sum);
          break;
        case AggKind::kAvg:
          v = Scalar::Double(acc.n == 0 ? 0.0 : acc.sum / static_cast<double>(acc.n));
          break;
        case AggKind::kMin:
          v = Scalar::Double(acc.mn);
          break;
        case AggKind::kMax:
          v = Scalar::Double(acc.mx);
          break;
      }
    }
    if (!present) {
      std::copy(state.key.begin(), state.key.end(), slots_.begin() + key_base_);
    }

    // Without a having clause a group without rows emits only as the global
    // aggregate row (kGroups).
    const bool pass = EvalRow(!present, &state, rep_[g]);
    if (pass && (present || mode_ == Mode::kGroups || ctx_.having.has_value())) {
      std::vector<Value> out_row;
      out_row.reserve(ctx_.items.size() + 1);
      if (window_start.has_value()) {
        out_row.emplace_back(FormatTimestamp(*window_start));
      }
      EmitRow(std::move(out_row), table);
    }

    // Append the numeric item values to the state series.
    for (const auto& [series, slot] : appends_) {
      const Scalar& v = slots_[slot];
      if (v.is_string()) {
        continue;
      }
      const double x = v.AsDouble();
      state.series[series].Append(x);
      for (uint32_t id : folds_of_series_[series]) {
        const MaSpec& ma = mas_[id];
        if (ma.kind == MaKind::kEwma) {
          state.ewma[ma.fold].Append(x);
        } else {
          state.cma[ma.fold].Append(x);
        }
      }
    }
  }
  return Status::Ok();
}

Result<ResultTable> ProjectResults(const QueryContext& ctx, const TupleSet& tuples,
                                   const EntityCatalog& catalog,
                                   const ExecutionSession* session) {
  ScanContext stop;
  if (session != nullptr) {
    stop.cancel = &session->cancelled;
  }
  bool grouped = !ctx.group_by.empty();
  std::vector<std::string> columns;
  for (const OutputItem& item : ctx.items) {
    grouped = grouped || item.expr.Any([](const Expr& x) { return x.IsAggregateCall(); });
    columns.push_back(item.name);
  }
  ResultTable table(std::move(columns));
  CompiledProjector projector(ctx, catalog, RowSource(tuples),
                              grouped ? CompiledProjector::Mode::kGroups
                                      : CompiledProjector::Mode::kRows);
  Status s = grouped ? projector.RunWindow(0, std::nullopt, 0, tuples.num_rows(), &stop, &table)
                     : projector.ProjectRows(stop, &table);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  return FinishResults(ctx, std::move(table));
}

}  // namespace aiql
