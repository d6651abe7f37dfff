#include "src/core/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <string>
#include <unordered_map>

#include "src/core/eval.h"
#include "src/core/exec_session.h"
#include "src/core/projector.h"
#include "src/util/time_utils.h"

namespace aiql {
namespace {

// SMA/WMA over a series given newest-first: at(0) is the most recent value.
// Sums run oldest to newest (WMA: newest to oldest), the order every caller
// must share for bit-identical results.
template <typename At>
double SmaOf(size_t size, size_t n, const At& at) {
  if (size == 0 || n == 0) {
    return 0;
  }
  size_t take = std::min(n, size);
  double sum = 0;
  for (size_t k = take; k-- > 0;) {
    sum += at(k);
  }
  return sum / static_cast<double>(take);
}

template <typename At>
double WmaOf(size_t size, size_t n, const At& at) {
  if (size == 0 || n == 0) {
    return 0;
  }
  size_t take = std::min(n, size);
  double num = 0, den = 0;
  // Linear weights: the most recent value weighs `take`.
  for (size_t k = 0; k < take; ++k) {
    double w = static_cast<double>(take - k);
    num += w * at(k);
    den += w;
  }
  return num / den;
}

}  // namespace

double Sma(const std::vector<double>& series, size_t n) {
  return SmaOf(series.size(), n, [&](size_t k) { return series[series.size() - 1 - k]; });
}

double Cma(const std::vector<double>& series) {
  CmaFold fold;
  for (double x : series) {
    fold.Append(x);
  }
  return fold.Get();
}

double Wma(const std::vector<double>& series, size_t n) {
  return WmaOf(series.size(), n, [&](size_t k) { return series[series.size() - 1 - k]; });
}

double Ewma(const std::vector<double>& series, double alpha) {
  // S_0 = x_0 ; S_t = alpha * S_{t-1} + (1 - alpha) * x_t. With alpha = 0.9
  // the history dominates, matching the paper's EWMA(freq, 0.9) usage.
  EwmaFold fold(alpha);
  for (double x : series) {
    fold.Append(x);
  }
  return fold.Get();
}

double SeriesRing::Sma(size_t n, const double* cur) const {
  if (cur == nullptr) {
    return SmaOf(size_, n, [&](size_t k) { return Back(k + 1); });
  }
  return SmaOf(size_ + 1, n, [&](size_t k) { return k == 0 ? *cur : Back(k); });
}

double SeriesRing::Wma(size_t n, const double* cur) const {
  if (cur == nullptr) {
    return WmaOf(size_, n, [&](size_t k) { return Back(k + 1); });
  }
  return WmaOf(size_ + 1, n, [&](size_t k) { return k == 0 ? *cur : Back(k); });
}

namespace {

// A Value that owns nothing: strings point into the query context, a stored
// group key, or a memoized row value, all of which outlive the evaluation.
// Every operation below mirrors the Value / EvalScalarExpr semantics exactly
// (int/double/string typing included); kNull is EvalScalarExpr's nullopt.
struct Scalar {
  enum class Tag : uint8_t { kNull, kInt, kDouble, kString };
  Tag tag = Tag::kNull;
  int64_t i = 0;
  double d = 0;
  const std::string* s = nullptr;

  static Scalar Int(int64_t v) {
    Scalar out;
    out.tag = Tag::kInt;
    out.i = v;
    return out;
  }
  static Scalar Double(double v) {
    Scalar out;
    out.tag = Tag::kDouble;
    out.d = v;
    return out;
  }
  static Scalar Of(const Value& v) {
    if (v.is_string()) {
      Scalar out;
      out.tag = Tag::kString;
      out.s = &v.as_string();
      return out;
    }
    return v.is_int() ? Int(v.as_int()) : Double(v.as_double());
  }

  bool null() const { return tag == Tag::kNull; }
  bool is_int() const { return tag == Tag::kInt; }
  bool is_string() const { return tag == Tag::kString; }
  bool numeric() const { return tag == Tag::kInt || tag == Tag::kDouble; }

  double AsDouble() const {
    switch (tag) {
      case Tag::kInt:
        return static_cast<double>(i);
      case Tag::kDouble:
        return d;
      case Tag::kString: {
        char* end = nullptr;
        double out = std::strtod(s->c_str(), &end);
        return end == s->c_str() ? 0.0 : out;
      }
      case Tag::kNull:
        break;
    }
    return 0;
  }

  Value ToValue() const {
    switch (tag) {
      case Tag::kDouble:
        return Value(d);
      case Tag::kString:
        return Value(*s);
      case Tag::kInt:
        return Value(i);
      case Tag::kNull:
        break;
    }
    return Value();
  }
};

bool Truthy(const Scalar& v) { return v.is_string() ? !v.s->empty() : v.AsDouble() != 0.0; }

bool Equal(const Scalar& a, const Scalar& b) {
  if (a.is_string() && b.is_string()) {
    return *a.s == *b.s;
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

Scalar Binary(BinOp op, const Scalar& l, const Scalar& r) {
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

// One instruction of a compiled item/having program (postfix, evaluated on a
// fixed stack).
struct Op {
  enum class Code : uint8_t {
    kLoad,       // push slot `a`
    kRowRef,     // push row column `a` of the group's first event in the window
    kHist,       // push history of series `a` (or none), `b` windows back;
                 // back 0 reads slot `c`
    kMovingAvg,  // push moving average `a` with current value slot `b`
    kNot,
    kNeg,
    kBinary,
  };
  Code code = Code::kLoad;
  BinOp bop = BinOp::kAdd;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
};
using Program = std::vector<Op>;

constexpr uint32_t kNullSlot = 0;

// How one aggregate call folds the events of a (window, group).
enum class AggKind : uint8_t { kRows, kNonNull, kDistinct, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind = AggKind::kRows;
  std::vector<double> x;       // per event: numeric argument (kSum..kMax)
  std::vector<uint8_t> has;    // per event: argument is non-null
  std::vector<int32_t> pair;   // kDistinct, per event: (group, rendered) id or -1
  std::vector<uint32_t> pair_stamp;  // kDistinct: window that last counted a pair
};

struct Acc {
  double sum = 0, mn = 0, mx = 0;
  int64_t n = 0;
};

enum class MaKind : uint8_t { kSma, kCma, kWma, kEwma };

struct MaSpec {
  MaKind kind = MaKind::kSma;
  std::string alias;   // the averaged return alias
  size_t n = 3;        // SMA/WMA lookback
  double alpha = 0.9;  // EWMA smoothing
  uint32_t series = 0;
  uint32_t fold = 0;   // index into the group's folds (EWMA/CMA)
};

// A resolved reference evaluated on a group's first event in the window;
// values are computed once per event that is ever such a representative.
struct RowColumn {
  RefSide side = RefSide::kSubject;
  std::string attr;
  std::vector<uint32_t> memo;  // per event: 1 + index into `values`, 0 = not yet
  std::deque<Value> values;    // stable addresses for Scalar string pointers
};

struct GroupState {
  std::vector<Value> key;
  std::vector<SeriesRing> series;  // per series name (SeriesFor)
  std::vector<EwmaFold> ewma;      // per EWMA spec, in MaSpec::fold order
  std::vector<CmaFold> cma;        // per CMA spec
};

// Where the executor is within one (window, group) evaluation, which decides
// what an alias lookup resolves to (the reference evaluator's name lookups,
// made static).
struct Scope {
  bool present = true;  // the group has events in this window
  size_t pos = 0;       // items [0, pos) are already evaluated
  bool having = false;  // moving averages visible
};

class WindowExecutor {
 public:
  WindowExecutor(const QueryContext& ctx, const EntityCatalog& catalog,
                 const std::vector<EventView>& events)
      : ctx_(ctx), catalog_(catalog), events_(events) {}

  // Compiles the items and having clause, then runs the per-event pre-pass.
  void Prepare(size_t num_windows) {
    std::vector<const Expr*> agg_calls = CollectAggregateCalls(ctx_);
    CompilePrograms(agg_calls, num_windows);
    IndexEvents(agg_calls);
  }

  // Runs window `w` = [ws, we) over events [first, last) and appends its
  // rows to `table`.
  void RunWindow(uint32_t w, TimestampMs ws, size_t first, size_t last, ResultTable* table);

 private:
  void CompilePrograms(const std::vector<const Expr*>& agg_calls, size_t num_windows);
  void IndexEvents(const std::vector<const Expr*>& agg_calls);
  uint32_t AddConst(Scalar v) {
    slots_.push_back(v);
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  uint32_t ComputedSlot(const std::string& name, const Scope& scope) const;
  void EmitLookup(const std::string& name, const Scope& scope, Program* out);
  void Compile(const Expr& e, const Scope& scope, Program* out);
  Program CompileRoot(const Expr& e, const Scope& scope);
  uint32_t RowColumnFor(const ResolvedRef& ref);
  uint32_t SeriesFor(const std::string& name);

  void ActivateGroup(uint32_t g, size_t event);
  Scalar Run(const Program& prog, const GroupState& state, size_t rep);
  Scalar RowValue(uint32_t col, size_t rep);
  Scalar History(const Op& op, const GroupState& state) const;
  Scalar MovingAverage(const Op& op, const GroupState& state) const;

  const QueryContext& ctx_;
  const EntityCatalog& catalog_;
  const std::vector<EventView>& events_;

  // Slots: [0] null, then aggregates, items, group-key components, constants.
  std::vector<Scalar> slots_;
  uint32_t agg_base_ = 0, item_base_ = 0, key_base_ = 0;
  std::unordered_map<std::string, uint32_t> agg_by_name_;
  std::unordered_map<std::string, uint32_t> ma_by_name_;
  std::unordered_map<std::string, uint32_t> series_by_name_;

  std::vector<AggSpec> aggs_;
  std::vector<MaSpec> mas_;
  std::vector<RowColumn> row_columns_;
  std::vector<size_t> ring_capacity_;  // per series
  std::vector<std::vector<uint32_t>> folds_of_series_;  // MaSpec ids per series
  size_t num_ewma_ = 0, num_cma_ = 0;
  // Per item: series to append to and the slot whose value is appended (the
  // last item of that name, as the name-keyed reference evaluator does).
  std::vector<std::pair<uint32_t, uint32_t>> appends_;

  // [0] = group has events in the window, [1] = it does not.
  std::vector<Program> items_[2];
  Program having_[2];
  std::vector<Scalar> stack_;

  // Per event and per group.
  std::vector<uint32_t> group_of_;  // event -> dense group id (key order)
  std::vector<GroupState> groups_;
  std::vector<uint8_t> known_;          // the group has been in a window
  std::vector<uint32_t> window_stamp_;  // window + 1 that last touched a group
  std::vector<size_t> rep_;             // first event of the group in the window
  std::vector<int64_t> rows_;
  std::vector<Acc> accs_;               // group * aggs + agg
};

uint32_t WindowExecutor::ComputedSlot(const std::string& name, const Scope& scope) const {
  for (size_t k = scope.pos; k-- > 0;) {
    if (ctx_.items[k].name == name) {
      return item_base_ + static_cast<uint32_t>(k);
    }
  }
  if (!scope.present) {
    // A group without events in the window exposes its stored key under the
    // group-by names.
    for (size_t g = ctx_.group_by.size(); g-- > 0;) {
      if (ctx_.group_by[g].name == name) {
        return key_base_ + static_cast<uint32_t>(g);
      }
    }
  }
  return kNullSlot;
}

void WindowExecutor::EmitLookup(const std::string& name, const Scope& scope, Program* out) {
  Op op;
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

// Series are keyed by name like the reference evaluator's history map. Every
// item name has one; a name no item carries never receives a value.
uint32_t WindowExecutor::SeriesFor(const std::string& name) {
  auto [it, fresh] =
      series_by_name_.emplace(name, static_cast<uint32_t>(series_by_name_.size()));
  if (fresh) {
    ring_capacity_.push_back(0);
    folds_of_series_.emplace_back();
  }
  return it->second;
}

uint32_t WindowExecutor::RowColumnFor(const ResolvedRef& ref) {
  for (size_t i = 0; i < row_columns_.size(); ++i) {
    if (row_columns_[i].side == ref.side && row_columns_[i].attr == ref.attr) {
      return static_cast<uint32_t>(i);
    }
  }
  RowColumn col;
  col.side = ref.side;
  col.attr = ref.attr;
  col.memo.assign(events_.size(), 0);
  row_columns_.push_back(std::move(col));
  return static_cast<uint32_t>(row_columns_.size() - 1);
}

void WindowExecutor::Compile(const Expr& e, const Scope& scope, Program* out) {
  Op op;
  switch (e.kind) {
    case Expr::Kind::kNumber:
      op.a = AddConst(e.number == std::floor(e.number) && std::abs(e.number) < 1e15
                          ? Scalar::Int(static_cast<int64_t>(e.number))
                          : Scalar::Double(e.number));
      out->push_back(op);
      return;
    case Expr::Kind::kString: {
      Scalar s;
      s.tag = Scalar::Tag::kString;
      s.s = &e.str;
      op.a = AddConst(s);
      out->push_back(op);
      return;
    }
    case Expr::Kind::kParam:
      out->push_back(op);  // null
      return;
    case Expr::Kind::kVarRef:
      if (e.resolved.has_value() && e.resolved->side == RefSide::kAlias) {
        EmitLookup(e.resolved->attr, scope, out);
      } else if (e.resolved.has_value() && scope.present) {
        op.code = Op::Code::kRowRef;
        op.a = RowColumnFor(*e.resolved);
        out->push_back(op);
      } else {
        EmitLookup(e.name, scope, out);
      }
      return;
    case Expr::Kind::kHistRef:
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

Program WindowExecutor::CompileRoot(const Expr& e, const Scope& scope) {
  Program prog;
  Compile(e, scope, &prog);
  stack_.resize(std::max(stack_.size(), prog.size()));
  return prog;
}

void WindowExecutor::CompilePrograms(const std::vector<const Expr*>& agg_calls,
                                     size_t num_windows) {
  const size_t num_items = ctx_.items.size();
  agg_base_ = 1;
  item_base_ = agg_base_ + static_cast<uint32_t>(agg_calls.size());
  key_base_ = item_base_ + static_cast<uint32_t>(num_items);
  slots_.assign(key_base_ + ctx_.group_by.size(), Scalar());
  for (size_t a = 0; a < agg_calls.size(); ++a) {
    agg_by_name_.emplace(agg_calls[a]->ToString(), agg_base_ + static_cast<uint32_t>(a));
  }

  // Every item appends the value of the last item carrying its name.
  for (size_t i = 0; i < num_items; ++i) {
    appends_.emplace_back(SeriesFor(ctx_.items[i].name),
                          ComputedSlot(ctx_.items[i].name, Scope{true, num_items}));
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
        ring_capacity_[ma.series] = std::max(ring_capacity_[ma.series], ma.n > 0 ? ma.n - 1 : 0);
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

// The pre-pass: every event's group id and aggregate inputs, once.
void WindowExecutor::IndexEvents(const std::vector<const Expr*>& agg_calls) {
  std::vector<EventView> row(1);
  const std::vector<size_t> pattern_order{0};
  RowAccessor acc(row, pattern_order, catalog_);
  std::unordered_map<std::string, uint32_t> first_seen;  // key string -> temp id
  std::vector<std::string> key_strings;
  std::vector<uint32_t> temp_group(events_.size());
  aggs_.resize(agg_calls.size());
  std::vector<std::unordered_map<std::string, int32_t>> pairs(agg_calls.size());
  for (size_t a = 0; a < agg_calls.size(); ++a) {
    const Expr& call = *agg_calls[a];
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
    if (spec.kind != AggKind::kRows) {
      spec.has.assign(events_.size(), 0);
    }
    if (spec.kind >= AggKind::kSum) {
      spec.x.assign(events_.size(), 0);
    }
    if (spec.kind == AggKind::kDistinct) {
      spec.pair.assign(events_.size(), -1);
    }
  }
  std::string key_string;
  for (size_t e = 0; e < events_.size(); ++e) {
    row[0] = events_[e];
    key_string.clear();
    for (const OutputItem& g : ctx_.group_by) {
      key_string += EvalScalarExpr(g.expr, &acc, nullptr).value_or(Value()).ToString();
      key_string.push_back('\x1f');
    }
    auto [it, fresh] =
        first_seen.try_emplace(key_string, static_cast<uint32_t>(key_strings.size()));
    if (fresh) {
      key_strings.push_back(key_string);
    }
    temp_group[e] = it->second;
    for (size_t a = 0; a < agg_calls.size(); ++a) {
      AggSpec& spec = aggs_[a];
      const Expr& call = *agg_calls[a];
      if (spec.kind == AggKind::kRows || call.children.empty()) {
        continue;
      }
      std::optional<Value> v = EvalScalarExpr(call.children[0], &acc, nullptr);
      if (!v.has_value()) {
        continue;
      }
      spec.has[e] = 1;
      if (spec.kind >= AggKind::kSum) {
        spec.x[e] = v->as_double();
      } else if (spec.kind == AggKind::kDistinct) {
        std::string pair_key = v->ToString();
        pair_key.append(reinterpret_cast<const char*>(&temp_group[e]), sizeof(uint32_t));
        const int32_t next = static_cast<int32_t>(pairs[a].size());
        spec.pair[e] = pairs[a].try_emplace(std::move(pair_key), next).first->second;
      }
    }
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    aggs_[a].pair_stamp.assign(pairs[a].size(), 0);
  }

  // Dense ids in key-string order: groups are visited in this order.
  std::vector<uint32_t> order(key_strings.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return key_strings[a] < key_strings[b]; });
  std::vector<uint32_t> rank(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
  }
  group_of_.resize(events_.size());
  for (size_t e = 0; e < events_.size(); ++e) {
    group_of_[e] = rank[temp_group[e]];
  }

  const size_t num_groups = key_strings.size();
  groups_.resize(num_groups);
  known_.assign(num_groups, 0);
  window_stamp_.assign(num_groups, 0);
  rep_.assign(num_groups, 0);
  rows_.assign(num_groups, 0);
  accs_.assign(num_groups * aggs_.size(), Acc());
}

void WindowExecutor::ActivateGroup(uint32_t g, size_t event) {
  known_[g] = 1;
  GroupState& state = groups_[g];
  std::vector<EventView> row{events_[event]};
  RowAccessor acc(row, {0}, catalog_);
  for (const OutputItem& item : ctx_.group_by) {
    state.key.push_back(EvalScalarExpr(item.expr, &acc, nullptr).value_or(Value()));
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

Scalar WindowExecutor::RowValue(uint32_t col, size_t rep) {
  RowColumn& c = row_columns_[col];
  uint32_t& memo = c.memo[rep];
  if (memo == 0) {
    c.values.push_back(EndpointValue(events_[rep], c.side, c.attr, catalog_));
    memo = static_cast<uint32_t>(c.values.size());
  }
  return Scalar::Of(c.values[memo - 1]);
}

Scalar WindowExecutor::History(const Op& op, const GroupState& state) const {
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

Scalar WindowExecutor::MovingAverage(const Op& op, const GroupState& state) const {
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

Scalar WindowExecutor::Run(const Program& prog, const GroupState& state, size_t rep) {
  Scalar* sp = stack_.data();
  for (const Op& op : prog) {
    switch (op.code) {
      case Op::Code::kLoad:
        *sp++ = slots_[op.a];
        break;
      case Op::Code::kRowRef:
        *sp++ = RowValue(op.a, rep);
        break;
      case Op::Code::kHist:
        *sp++ = History(op, state);
        break;
      case Op::Code::kMovingAvg:
        *sp++ = MovingAverage(op, state);
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

void WindowExecutor::RunWindow(uint32_t w, TimestampMs ws, size_t first, size_t last,
                               ResultTable* table) {
  const uint32_t stamp = w + 1;
  const size_t num_aggs = aggs_.size();

  // Fold the window's events into their groups' accumulators, in event order.
  for (size_t e = first; e < last; ++e) {
    const uint32_t g = group_of_[e];
    Acc* accs = accs_.data() + g * num_aggs;
    if (window_stamp_[g] != stamp) {
      window_stamp_[g] = stamp;
      rep_[g] = e;
      rows_[g] = 0;
      std::fill(accs, accs + num_aggs, Acc());
      if (!known_[g]) {
        ActivateGroup(g, e);
      }
    }
    ++rows_[g];
    for (size_t a = 0; a < num_aggs; ++a) {
      AggSpec& spec = aggs_[a];
      if (spec.kind == AggKind::kRows || !spec.has[e]) {
        continue;
      }
      Acc& acc = accs[a];
      if (spec.kind == AggKind::kNonNull) {
        ++acc.n;
        continue;
      }
      if (spec.kind == AggKind::kDistinct) {
        uint32_t& seen = spec.pair_stamp[static_cast<uint32_t>(spec.pair[e])];
        if (seen != stamp) {
          seen = stamp;
          ++acc.n;
        }
        continue;
      }
      const double x = spec.x[e];
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

  // Every known group is evaluated: a group without events in this window
  // still records its (zero) state so history offsets stay aligned.
  static const Acc kZero;
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    if (!known_[g]) {
      continue;
    }
    GroupState& state = groups_[g];
    const bool present = window_stamp_[g] == stamp;
    const Acc* accs = present ? accs_.data() + g * num_aggs : nullptr;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Acc& acc = present ? accs[a] : kZero;
      Scalar& v = slots_[agg_base_ + a];
      switch (aggs_[a].kind) {
        case AggKind::kRows:
          v = Scalar::Int(present ? rows_[g] : 0);
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
      for (size_t k = 0; k < state.key.size(); ++k) {
        slots_[key_base_ + k] = Scalar::Of(state.key[k]);
      }
    }

    const int mode = present ? 0 : 1;
    const size_t rep = rep_[g];
    const std::vector<Program>& items = items_[mode];
    for (size_t i = 0; i < items.size(); ++i) {
      Scalar v = Run(items[i], state, rep);
      slots_[item_base_ + i] = v.null() ? Scalar::Int(0) : v;
    }
    bool emit = present;
    if (ctx_.having.has_value()) {
      Scalar ok = Run(having_[mode], state, rep);
      emit = !ok.null() && Truthy(ok);
    }
    if (emit) {
      std::vector<Value> out_row;
      out_row.reserve(items.size() + 1);
      out_row.emplace_back(FormatTimestamp(ws));
      for (size_t i = 0; i < items.size(); ++i) {
        out_row.push_back(slots_[item_base_ + i].ToValue());
      }
      table->AddRow(std::move(out_row));
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
}

}  // namespace

Result<ResultTable> ExecuteAnomaly(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session) {
  if (ctx.patterns.size() != 1 || !ctx.window.has_value()) {
    return Result<ResultTable>::Error("not an anomaly query context");
  }
  const DurationMs window = *ctx.window;
  const DurationMs step = ctx.step.value_or(window);
  if (window <= 0 || step <= 0) {
    return Result<ResultTable>::Error("window and step must be positive");
  }

  ExecutionSession local;
  if (session == nullptr) {
    session = &local;
  }
  ExecStats* st = &session->stats;
  st->pattern_matches.assign(1, 0);
  ScanContext scan_ctx;
  scan_ctx.cancel = &session->cancelled;
  scan_ctx.ArmDeadline(options.time_budget_ms);
  scan_ctx.pins = &session->pins;
  std::vector<EventView> events =
      FetchDataQuery(db, ctx.patterns[0].query, options, pool, session, &scan_ctx);
  if (Status s = scan_ctx.StopStatus(); !s.ok()) {
    return Result<ResultTable>(s);
  }
  st->pattern_matches[0] = events.size();
  // Intra-pattern attribute relationships filter single events.
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.IsIntraPattern()) {
      size_t w = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        if (CheckAttrRel(rel, events[i], events[i], db.catalog())) {
          events[w++] = events[i];
        }
      }
      events.resize(w);
    }
  }

  // Windows are anchored at the query's declared time window (inference
  // guarantees it is bounded); anchoring at the data's first event would make
  // window alignment depend on unrelated events. Events outside it fall in no
  // window. Events are sorted by start_time.
  const TimeRange range = ctx.global_time;
  auto by_time = [](const EventView& e, TimestampMs t) { return e.start_time() < t; };
  events.erase(std::lower_bound(events.begin(), events.end(), range.end, by_time),
               events.end());
  events.erase(events.begin(),
               std::lower_bound(events.begin(), events.end(), range.begin, by_time));
  std::vector<TimestampMs> times(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    times[i] = events[i].start_time();
  }

  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  const uint64_t span = static_cast<uint64_t>(range.end) - static_cast<uint64_t>(range.begin);
  const size_t num_windows =
      range.end > range.begin ? (span - 1) / static_cast<uint64_t>(step) + 1 : 0;
  WindowExecutor exec(ctx, db.catalog(), events);
  exec.Prepare(num_windows);

  size_t first = 0, last = 0;
  uint32_t w = 0;
  for (TimestampMs ws = range.begin; ws < range.end; ws += step, ++w) {
    if (Status s = scan_ctx.StopStatus(); !s.ok()) {
      return Result<ResultTable>(s);
    }
    const TimestampMs we = std::min<TimestampMs>(ws + window, range.end);
    while (first < times.size() && times[first] < ws) {
      ++first;
    }
    last = std::max(last, first);
    while (last < times.size() && times[last] < we) {
      ++last;
    }
    exec.RunWindow(w, ws, first, last, &table);
  }

  if (ctx.top.has_value() && table.num_rows() > static_cast<size_t>(*ctx.top)) {
    table.mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
  return table;
}

}  // namespace aiql
