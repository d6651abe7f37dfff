#include "src/graph/graph_engine.h"

#include <unordered_map>

#include "src/core/eval.h"
#include "src/core/projector.h"
#include "src/core/tuple_set.h"

namespace aiql {
namespace {

// Evaluates a predicate expression against a property map (the per-edge /
// per-node filtering cost of a graph store).
bool EvalOnProps(const PredExpr& pred, const std::unordered_map<std::string, Value>& props) {
  return pred.Eval([&](std::string_view attr) -> std::optional<Value> {
    auto it = props.find(std::string(attr));
    if (it == props.end()) {
      return std::nullopt;
    }
    return it->second;
  });
}

class Matcher {
 public:
  Matcher(const PropertyGraph& graph, const QueryContext& ctx, int64_t budget_ms,
          size_t max_work, GraphExecStats* stats)
      : graph_(graph), ctx_(ctx), max_work_(max_work), stats_(stats) {
    stop_.ArmDeadline(budget_ms);
    chosen_.assign(ctx.patterns.size(), nullptr);
  }

 private:
  Status CheckWork() {
    ++stats_->rels_visited;
    if (max_work_ != 0 && stats_->rels_visited > max_work_) {
      return Status::Error("execution budget exceeded: graph expansion work limit");
    }
    if ((stats_->rels_visited & 0xFFF) == 0) {
      return stop_.StopStatus();
    }
    return Status::Ok();
  }

  // Does the relationship candidate satisfy pattern i's local constraints?
  bool RelMatchesPattern(const PropertyGraph::Rel& rel, size_t i) {
    const DataQuery& q = ctx_.patterns[i].query;
    if ((OpBit(rel.op) & q.op_mask) == 0) {
      return false;
    }
    const PropertyGraph::Node& dst = graph_.node(rel.dst);
    if (dst.label != q.object_type) {
      return false;
    }
    // Spatial/temporal constraints via edge properties (graph-store cost).
    auto ts = rel.props.find(start_time_key_);
    TimestampMs t = ts != rel.props.end() ? ts->second.as_int() : 0;
    if (!q.EffectiveTime().Contains(t)) {
      return false;
    }
    if (q.agent_ids.has_value()) {
      auto ag = rel.props.find(agentid_key_);
      AgentId a = ag != rel.props.end() ? static_cast<AgentId>(ag->second.as_int()) : 0;
      bool found = false;
      for (AgentId want : *q.agent_ids) {
        if (want == a) {
          found = true;
          break;
        }
      }
      if (!found) {
        return false;
      }
    }
    const PropertyGraph::Node& src = graph_.node(rel.src);
    if (!q.subject_pred.is_true() && !EvalOnProps(q.subject_pred, src.props)) {
      return false;
    }
    if (!q.object_pred.is_true() && !EvalOnProps(q.object_pred, dst.props)) {
      return false;
    }
    if (!q.event_pred.is_true() && !EvalOnProps(q.event_pred, rel.props)) {
      return false;
    }
    // Cross-pattern relationships against already-bound patterns.
    for (const AttrRelation& ar : ctx_.attr_rels) {
      const Event* le = nullptr;
      const Event* re = nullptr;
      if (ar.left_pattern == i && (ar.right_pattern < i || ar.IsIntraPattern())) {
        le = &rel.origin;
        re = ar.IsIntraPattern() ? &rel.origin : chosen_[ar.right_pattern];
      } else if (ar.right_pattern == i && ar.left_pattern < i) {
        le = chosen_[ar.left_pattern];
        re = &rel.origin;
      } else {
        continue;
      }
      if (le == nullptr || re == nullptr) {
        continue;
      }
      if (!CheckAttrRel(ar, EventView(le), EventView(re), graph_.catalog())) {
        return false;
      }
    }
    for (const TempRelation& tr : ctx_.temp_rels) {
      const Event* le = nullptr;
      const Event* re = nullptr;
      if (tr.left_pattern == i && tr.right_pattern < i) {
        le = &rel.origin;
        re = chosen_[tr.right_pattern];
      } else if (tr.right_pattern == i && tr.left_pattern < i) {
        le = chosen_[tr.left_pattern];
        re = &rel.origin;
      } else {
        continue;
      }
      if (!CheckTempRel(tr, EventView(le), EventView(re))) {
        return false;
      }
    }
    return true;
  }

  // Candidate relationship ids for pattern i under current bindings.
  std::vector<uint32_t> Candidates(size_t i) {
    const PatternContext& pc = ctx_.patterns[i];
    const DataQuery& q = pc.query;
    auto subj = bindings_.find(pc.subject_var);
    if (subj != bindings_.end()) {
      ++stats_->nodes_expanded;
      return graph_.node(subj->second).out_rels;
    }
    auto obj = bindings_.find(pc.object_var);
    if (obj != bindings_.end()) {
      ++stats_->nodes_expanded;
      return graph_.node(obj->second).in_rels;
    }
    // Anchor via label+property index when an equality value exists.
    std::vector<Value> anchor = q.object_pred.EqualityValuesFor(DefaultAttr(q.object_type).name);
    bool anchor_is_object = !anchor.empty();
    if (anchor.empty()) {
      anchor = q.subject_pred.EqualityValuesFor(DefaultAttr(EntityType::kProcess).name);
    }
    if (!anchor.empty()) {
      std::vector<uint32_t> rels;
      for (const Value& v : anchor) {
        EntityType label = anchor_is_object ? q.object_type : EntityType::kProcess;
        for (uint32_t node : graph_.NodesByProperty(label, v.ToString())) {
          ++stats_->nodes_expanded;
          const auto& adj =
              anchor_is_object ? graph_.node(node).in_rels : graph_.node(node).out_rels;
          rels.insert(rels.end(), adj.begin(), adj.end());
        }
      }
      return rels;
    }
    // No anchor: scan the relationship-type index for each operation.
    std::vector<uint32_t> rels;
    for (int op = 0; op < kNumOperations; ++op) {
      if ((q.op_mask & (1u << op)) != 0) {
        const auto& typed = graph_.RelsByOp(static_cast<Operation>(op));
        rels.insert(rels.end(), typed.begin(), typed.end());
      }
    }
    return rels;
  }

  Status Recurse(size_t i) {
    if (i == ctx_.patterns.size()) {
      std::vector<EventView> row;
      row.reserve(chosen_.size());
      for (const Event* e : chosen_) {
        row.push_back(EventView(e));
      }
      rows_.push_back(std::move(row));
      ++stats_->rows_emitted;
      return Status::Ok();
    }
    const PatternContext& pc = ctx_.patterns[i];
    std::vector<uint32_t> candidates = Candidates(i);
    for (uint32_t rid : candidates) {
      Status s = CheckWork();
      if (!s.ok()) {
        return s;
      }
      const PropertyGraph::Rel& rel = graph_.rel(rid);
      if (!RelMatchesPattern(rel, i)) {
        continue;
      }
      // Bind subject/object vars (respecting existing bindings).
      auto subj = bindings_.find(pc.subject_var);
      if (subj != bindings_.end() && subj->second != rel.src) {
        continue;
      }
      auto obj = bindings_.find(pc.object_var);
      if (obj != bindings_.end() && obj->second != rel.dst) {
        continue;
      }
      bool bound_subj = subj == bindings_.end();
      bool bound_obj = obj == bindings_.end();
      if (bound_subj) {
        bindings_[pc.subject_var] = rel.src;
      }
      if (bound_obj) {
        bindings_[pc.object_var] = rel.dst;
      }
      chosen_[i] = &rel.origin;
      s = Recurse(i + 1);
      chosen_[i] = nullptr;
      if (bound_subj) {
        bindings_.erase(pc.subject_var);
      }
      if (bound_obj) {
        bindings_.erase(pc.object_var);
      }
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  const PropertyGraph& graph_;
  const QueryContext& ctx_;
  size_t max_work_;
  GraphExecStats* stats_;
  ScanContext stop_;  // the run's deadline (no cancellation flag)
  // Edge property keys read directly: the schema's canonical names.
  const std::string start_time_key_{ColumnAttr(EventColumnId::kStartTime)->name};
  const std::string agentid_key_{ColumnAttr(EventColumnId::kAgentId)->name};

  std::unordered_map<std::string, uint32_t> bindings_;
  std::vector<const Event*> chosen_;
  std::vector<std::vector<EventView>> rows_;

  friend class ::aiql::GraphEngine;
};

}  // namespace

Result<ResultTable> GraphEngine::Execute(const QueryContext& ctx) {
  stats_ = GraphExecStats{};
  if (ctx.kind == ast::QueryKind::kAnomaly) {
    return Result<ResultTable>::Error(
        "anomaly queries are not expressible in the graph baseline");
  }
  Matcher matcher(*graph_, ctx, time_budget_ms_, max_work_, &stats_);
  Status s = matcher.Recurse(0);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  // Assemble the tuple set over patterns 0..n-1 from the collected rows.
  TupleSet tuples;
  if (ctx.patterns.size() == 1) {
    std::vector<EventView> matches;
    matches.reserve(matcher.rows_.size());
    for (const auto& row : matcher.rows_) {
      matches.push_back(row[0]);
    }
    tuples = TupleSet::FromMatches(0, std::move(matches));
  } else {
    // Multi-pattern: create schema by chaining empty joins, then inject rows.
    BudgetGuard guard;
    TupleJoiner joiner(graph_->catalog(), &guard, JoinStrategy{});
    TupleSet schema = TupleSet::FromMatches(0, {});
    for (size_t i = 1; i < ctx.patterns.size(); ++i) {
      Result<TupleSet> joined = joiner.Join(schema, TupleSet::FromMatches(i, {}), {});
      schema = joined.take();
    }
    *schema.mutable_rows() = std::move(matcher.rows_);
    tuples = std::move(schema);
  }
  return ProjectResults(ctx, tuples, graph_->catalog());
}

}  // namespace aiql
