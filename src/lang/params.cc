#include "src/lang/params.h"

#include <set>
#include <unordered_map>

#include "src/util/string_utils.h"

namespace aiql {

const char* ParamTypeName(ParamType t) {
  switch (t) {
    case ParamType::kValue:
      return "value";
    case ParamType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

namespace {

std::string LinePrefix(int line) { return "line " + std::to_string(line) + ": "; }

const AttrPredicate& LeafOf(const PredExpr& p) { return p.leaf(); }
AttrPredicate& LeafOf(PredExpr& p) { return *p.mutable_leaf(); }
const std::vector<PredExpr>& ChildrenOf(const PredExpr& p) { return p.children(); }
std::vector<PredExpr>& ChildrenOf(PredExpr& p) { return *p.mutable_children(); }

// The one traversal of a query's parameter sites, shared by the collector
// and the binder so both see parameters in the same first-occurrence order:
// global constraint, global time windows, then the query body's predicates,
// pattern windows, and return/filter expressions. Visiting both bodies is
// harmless: the inactive one is default-constructed and holds no
// parameters. `Query` is ast::Query or const ast::Query, and the visitor's
// Leaf(AttrPredicate&), Window(TimeWindowSpec&) and Param(Expr&) hooks get
// the same constness; the first hook to return an error ends the walk.
template <typename Visitor>
class ParamWalk {
 public:
  explicit ParamWalk(Visitor* visitor) : visitor_(visitor) {}

  template <typename Query>
  Status Run(Query& q) {
    Pred(q.global.constraint);
    for (auto& w : q.global.time_windows) {
      Window(w);
    }
    for (auto& p : q.multievent.patterns) {
      Pred(p.subject.constraint);
      Pred(p.object.constraint);
      Pred(p.evt_constraint);
      if (p.time_window.has_value()) {
        Window(*p.time_window);
      }
    }
    ReturnAndFilters(q.multievent.ret, q.multievent.filters);
    for (auto& node : q.dependency.nodes) {
      Pred(node.constraint);
    }
    ReturnAndFilters(q.dependency.ret, q.dependency.filters);
    return status_;
  }

 private:
  template <typename P>
  void Pred(P& p) {
    if (!status_.ok()) {
      return;
    }
    if (p.kind() == PredExpr::Kind::kLeaf) {
      status_ = visitor_->Leaf(LeafOf(p));
      return;
    }
    for (auto& child : ChildrenOf(p)) {
      Pred(child);
    }
  }

  template <typename W>
  void Window(W& w) {
    if (status_.ok()) {
      status_ = visitor_->Window(w);
    }
  }

  template <typename E>
  void ExprWalk(E& e) {
    if (!status_.ok()) {
      return;
    }
    if (e.kind == Expr::Kind::kParam) {
      status_ = visitor_->Param(e);
      return;
    }
    for (auto& c : e.children) {
      ExprWalk(c);
    }
  }

  template <typename Ret, typename Filters>
  void ReturnAndFilters(Ret& ret, Filters& filters) {
    for (auto& item : ret.items) {
      ExprWalk(item.expr);
    }
    for (auto& item : filters.group_by) {
      ExprWalk(item.expr);
    }
    if (filters.having.has_value()) {
      ExprWalk(*filters.having);
    }
    for (auto& key : filters.sort_by) {
      ExprWalk(key.expr);
    }
  }

  Visitor* visitor_;
  Status status_;
};

class Collector {
 public:
  Status Leaf(const AttrPredicate& leaf) {
    for (const Value& v : leaf.values) {
      if (v.is_param()) {
        Add(v.param().name, ParamType::kValue, v.param().line);
      }
    }
    return Status::Ok();
  }

  Status Window(const ast::TimeWindowSpec& w) {
    if (!w.at_param.empty()) {
      Add(w.at_param, ParamType::kTimestamp, w.line);
    }
    if (!w.from_param.empty()) {
      Add(w.from_param, ParamType::kTimestamp, w.line);
    }
    if (!w.to_param.empty()) {
      Add(w.to_param, ParamType::kTimestamp, w.line);
    }
    return Status::Ok();
  }

  Status Param(const Expr& e) {
    Add(e.name, ParamType::kValue, e.line);
    return Status::Ok();
  }

  std::vector<ParamInfo> out;

 private:
  void Add(const std::string& name, ParamType type, int line) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = out.size();
      out.push_back(ParamInfo{name, type, line});
      return;
    }
    // A name used both ways keeps the stricter timestamp typing.
    if (type == ParamType::kTimestamp) {
      out[it->second].type = ParamType::kTimestamp;
    }
  }

  std::unordered_map<std::string, size_t> index_;
};

class Binder {
 public:
  explicit Binder(const ParamSet& params) : params_(params) {}

  Status Leaf(AttrPredicate& leaf) {
    bool substituted = false;
    for (Value& v : leaf.values) {
      if (!v.is_param()) {
        continue;
      }
      const Value* bound = nullptr;
      Status s = Lookup(v.param().name, v.param().line, &bound);
      if (!s.ok()) {
        return s;
      }
      v = *bound;
      substituted = true;
    }
    // Deferred wildcard promotion: '=' against a bound string containing
    // LIKE wildcards means LIKE, matching the parser's handling of literal
    // values (p1["%osql%"]).
    if (substituted && (leaf.op == CmpOp::kEq || leaf.op == CmpOp::kNe) &&
        leaf.values.size() == 1 && leaf.values[0].is_string() &&
        HasLikeWildcards(leaf.values[0].as_string())) {
      leaf.op = leaf.op == CmpOp::kEq ? CmpOp::kLike : CmpOp::kNotLike;
    }
    return Status::Ok();
  }

  Status Window(ast::TimeWindowSpec& w) {
    Status s = Endpoint(&w.at_param, w.line, /*range=*/true, nullptr, &w.fixed);
    if (!s.ok()) {
      return s;
    }
    s = Endpoint(&w.from_param, w.line, /*range=*/false, &w.from_fixed, nullptr);
    if (!s.ok()) {
      return s;
    }
    s = Endpoint(&w.to_param, w.line, /*range=*/false, &w.to_fixed, nullptr);
    if (!s.ok()) {
      return s;
    }
    if (!w.fixed.has_value() && w.from_fixed.has_value() && w.to_fixed.has_value()) {
      w.fixed = TimeRange{*w.from_fixed, *w.to_fixed};
    }
    return Status::Ok();
  }

  Status Param(Expr& e) {
    const Value* bound = nullptr;
    Status s = Lookup(e.name, e.line, &bound);
    if (!s.ok()) {
      return s;
    }
    if (bound->is_string()) {
      e = Expr::String(bound->as_string());
    } else {
      e = Expr::Number(bound->as_double());
    }
    return Status::Ok();
  }

 private:
  Status Lookup(const std::string& name, int line, const Value** out) {
    const Value* bound = params_.Find(name);
    if (bound == nullptr) {
      return Status::Error(LinePrefix(line) + "unbound parameter $" + name +
                           " — supply it via PreparedQuery::Bind");
    }
    *out = bound;
    return Status::Ok();
  }

  // Binds one parameterized endpoint to a datetime. `range` selects whether
  // the bound string parses as a range (at $p) or an instant (from/to $p).
  Status Endpoint(std::string* param, int line, bool range, std::optional<TimestampMs>* instant,
                  std::optional<TimeRange>* out_range) {
    if (param->empty()) {
      return Status::Ok();
    }
    const Value* bound = nullptr;
    Status s = Lookup(*param, line, &bound);
    if (!s.ok()) {
      return s;
    }
    if (!bound->is_string()) {
      return Status::Error(LinePrefix(line) + "parameter $" + *param +
                           " is a time-window endpoint and expects a datetime string, got " +
                           bound->ToString());
    }
    if (range) {
      Result<TimeRange> r = ParseDateTimeRange(bound->as_string());
      if (!r.ok()) {
        return Status::Error(LinePrefix(line) + "parameter $" + *param + ": " + r.error());
      }
      *out_range = r.value();
    } else {
      Result<TimestampMs> t = ParseDateTime(bound->as_string());
      if (!t.ok()) {
        return Status::Error(LinePrefix(line) + "parameter $" + *param + ": " + t.error());
      }
      *instant = t.value();
    }
    param->clear();
    return Status::Ok();
  }

  const ParamSet& params_;
};

}  // namespace

std::vector<ParamInfo> CollectParams(const ast::Query& query) {
  Collector collector;
  ParamWalk<Collector>(&collector).Run(query);
  return std::move(collector.out);
}

Status BindParams(ast::Query* query, const ParamSet& params) {
  std::vector<ParamInfo> declared = CollectParams(*query);
  std::set<std::string> names;
  for (const ParamInfo& p : declared) {
    names.insert(p.name);
  }
  for (const auto& [name, value] : params.values()) {
    if (names.count(name) == 0) {
      std::string known;
      for (const ParamInfo& p : declared) {
        known += known.empty() ? "$" + p.name : ", $" + p.name;
      }
      return Status::Error("unknown parameter $" + name + ": the query declares " +
                           (known.empty() ? "no parameters" : known));
    }
  }
  Binder binder(params);
  return ParamWalk<Binder>(&binder).Run(*query);
}

Result<TimeRange> ResolveTimeWindow(const ast::TimeWindowSpec& spec) {
  if (spec.parameterized()) {
    const std::string& p = !spec.at_param.empty()    ? spec.at_param
                           : !spec.from_param.empty() ? spec.from_param
                                                      : spec.to_param;
    return Result<TimeRange>::Error(LinePrefix(spec.line) + "unbound parameter $" + p +
                                    " in time window — prepare the query and supply it via "
                                    "PreparedQuery::Bind");
  }
  if (spec.fixed.has_value()) {
    return *spec.fixed;
  }
  // Unreachable today (every endpoint is literal or parameterized), kept for
  // robustness: a half-bound from..to resolves to the bounded side only.
  TimeRange out;
  if (spec.from_fixed.has_value()) {
    out.begin = *spec.from_fixed;
  }
  if (spec.to_fixed.has_value()) {
    out.end = *spec.to_fixed;
  }
  return out;
}

}  // namespace aiql
