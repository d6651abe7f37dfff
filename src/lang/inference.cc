// Context-aware inference: resolves AIQL syntax shortcuts (paper §4.1) and
// rewrites dependency queries into multievent queries (paper §5.1).
#include <map>
#include <set>
#include <unordered_map>

#include "src/lang/params.h"
#include "src/lang/parser.h"
#include "src/lang/query_context.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

struct Binding {
  size_t pattern = 0;
  RefSide side = RefSide::kSubject;
  EntityType type = EntityType::kProcess;
};

Status LineError(int line, const std::string& message) {
  return Status::Error("line " + std::to_string(line) + ": " + message);
}

// Rewrites every attribute name of `pred` to its canonical spelling, filling
// empty names of entity constraints with the type's default attribute
// (paper: "default attribute names will be inferred if users specify only
// attribute values in an event pattern").
Status CanonicalizePred(PredExpr* pred, AttrOwner owner, int line) {
  if (pred->kind() == PredExpr::Kind::kLeaf) {
    AttrPredicate* leaf = pred->mutable_leaf();
    const bool event = owner == AttrOwner::kEvent;
    if (leaf->attr.empty()) {
      if (event) {
        return LineError(line, "event constraints need explicit attribute names");
      }
      leaf->attr = DefaultAttr(static_cast<EntityType>(owner)).name;
    }
    const AttrDef* attr = FindAttr(owner, leaf->attr);
    if (attr == nullptr && event) {
      return LineError(line, "'" + leaf->attr + "' is not an event attribute");
    }
    if (attr == nullptr) {
      return LineError(line, "'" + leaf->attr + "' is not an attribute of " +
                                 EntityTypeName(static_cast<EntityType>(owner)) + " entities");
    }
    leaf->attr = attr->name;
    return Status::Ok();
  }
  for (PredExpr& child : *pred->mutable_children()) {
    Status s = CanonicalizePred(&child, owner, line);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

// Extracts agent ids pinned by equality/IN on agentid for partition pruning.
// `pred` is canonicalized, so "agentid" is the only spelling left.
std::optional<std::vector<AgentId>> AgentIdsFromPred(const PredExpr& pred) {
  std::vector<Value> values = pred.EqualityValuesFor("agentid");
  if (values.empty()) {
    return std::nullopt;
  }
  std::vector<AgentId> agents;
  agents.reserve(values.size());
  for (const Value& v : values) {
    agents.push_back(static_cast<AgentId>(v.as_int()));
  }
  return agents;
}

std::optional<std::vector<AgentId>> IntersectAgents(
    const std::optional<std::vector<AgentId>>& a, const std::optional<std::vector<AgentId>>& b) {
  if (!a.has_value()) {
    return b;
  }
  if (!b.has_value()) {
    return a;
  }
  std::set<AgentId> bs(b->begin(), b->end());
  std::vector<AgentId> out;
  for (AgentId x : *a) {
    if (bs.count(x) > 0) {
      out.push_back(x);
    }
  }
  return out;
}

class Resolver {
 public:
  Result<QueryContext> Resolve(const ast::Query& q) {
    // Execution needs concrete values everywhere (agent extraction, LIKE
    // detection, time bounds), so a query still carrying $parameters cannot
    // be resolved — this is the "unbound parameter at run time" diagnostic.
    std::vector<ParamInfo> unbound = CollectParams(q);
    if (!unbound.empty()) {
      return Result<QueryContext>(
          LineError(unbound.front().line,
                    "unbound parameter $" + unbound.front().name +
                        " — prepare the query and supply values via PreparedQuery::Bind"));
    }

    ctx_.kind = q.kind;
    ctx_.text = q.text;
    ctx_.ast = q;

    const ast::MultieventQuery* mq = &q.multievent;
    ast::MultieventQuery rewritten;
    if (q.kind == ast::QueryKind::kDependency) {
      Result<ast::MultieventQuery> r = RewriteDependency(q.dependency);
      if (!r.ok()) {
        return Result<QueryContext>(r.status());
      }
      rewritten = r.take();
      mq = &rewritten;
    }

    Status s = ResolveGlobal(q.global);
    if (!s.ok()) {
      return Result<QueryContext>(s);
    }
    s = ResolvePatterns(*mq);
    if (!s.ok()) {
      return Result<QueryContext>(s);
    }
    s = ResolveRelationships(*mq);
    if (!s.ok()) {
      return Result<QueryContext>(s);
    }
    s = ResolveReturnAndFilters(*mq);
    if (!s.ok()) {
      return Result<QueryContext>(s);
    }
    if (ctx_.kind == ast::QueryKind::kAnomaly) {
      if (ctx_.patterns.size() != 1) {
        return Result<QueryContext>(
            Status::Error("sliding-window (anomaly) queries take exactly one event pattern"));
      }
      if (!ctx_.global_time.bounded()) {
        return Result<QueryContext>(
            Status::Error("sliding-window queries need a bounded time window, e.g. (at \"...\")"));
      }
    }
    return std::move(ctx_);
  }

 private:
  Status ResolveGlobal(const ast::GlobalConstraints& global) {
    TimeRange time;  // unbounded default
    for (const ast::TimeWindowSpec& w : global.time_windows) {
      Result<TimeRange> r = ResolveTimeWindow(w);
      if (!r.ok()) {
        return r.status();
      }
      time = time.Intersect(r.value());
    }
    ctx_.global_time = time;
    ctx_.window = global.window;
    ctx_.step = global.step;

    // Non-agent global constraints apply to every pattern's event predicate.
    PredExpr constraint = global.constraint;
    if (!constraint.is_true()) {
      Status s = CollectGlobalEventPreds(&constraint);
      if (!s.ok()) {
        return s;
      }
    }
    ctx_.global_agents = AgentIdsFromPred(constraint);
    return Status::Ok();
  }

  // Canonicalizes the global constraint in place and collects its non-agent
  // leaves into global_event_pred_.
  Status CollectGlobalEventPreds(PredExpr* pred) {
    if (pred->kind() == PredExpr::Kind::kLeaf) {
      AttrPredicate* leaf = pred->mutable_leaf();
      const AttrDef* attr = FindAttr(AttrOwner::kEvent, leaf->attr);
      if (attr == nullptr) {
        return Status::Error("global constraint on '" + leaf->attr +
                             "' is not an event attribute");
      }
      leaf->attr = attr->name;
      if (attr->column == EventColumnId::kAgentId) {
        return Status::Ok();  // handled via global_agents
      }
      global_event_pred_ = PredExpr::And(std::move(global_event_pred_), *pred);
      return Status::Ok();
    }
    if (pred->kind() == PredExpr::Kind::kAnd) {
      for (PredExpr& child : *pred->mutable_children()) {
        Status s = CollectGlobalEventPreds(&child);
        if (!s.ok()) {
          return s;
        }
      }
      return Status::Ok();
    }
    return Status::Error("global constraints must be a conjunction of simple comparisons");
  }

  // Registers a variable occurrence; lowers entity-ID reuse into an implicit
  // id-equality relationship with the previous occurrence.
  Status BindVar(const std::string& var, size_t pattern, RefSide side, EntityType type,
                 int line) {
    auto it = bindings_.find(var);
    if (it == bindings_.end()) {
      bindings_[var] = Binding{pattern, side, type};
      last_occurrence_[var] = {pattern, side};
      return Status::Ok();
    }
    if (it->second.type != type) {
      return LineError(line, "entity '" + var + "' is used with conflicting types");
    }
    auto [prev_pattern, prev_side] = last_occurrence_[var];
    if (prev_pattern == pattern && prev_side == side) {
      return Status::Ok();
    }
    const AttrDef* id = FindAttr(OwnerOf(type), "id");
    AttrRelation rel;
    rel.left_pattern = prev_pattern;
    rel.left_side = prev_side;
    rel.left_attr = id;
    rel.op = CmpOp::kEq;
    rel.right_pattern = pattern;
    rel.right_side = side;
    rel.right_attr = id;
    rel.implicit = true;
    ctx_.attr_rels.push_back(rel);
    last_occurrence_[var] = {pattern, side};
    return Status::Ok();
  }

  Status ResolvePatterns(const ast::MultieventQuery& mq) {
    for (size_t i = 0; i < mq.patterns.size(); ++i) {
      const ast::EventPattern& p = mq.patterns[i];
      PatternContext pc;
      pc.source_line = p.line;

      if (p.subject.type != EntityType::kProcess) {
        return LineError(p.line, "the subject of an event pattern must be a process");
      }
      pc.subject_var = p.subject.id.empty() ? "_s" + std::to_string(i) : p.subject.id;
      pc.object_var = p.object.id.empty() ? "_o" + std::to_string(i) : p.object.id;
      pc.evt_id = p.evt_id.empty() ? "_evt" + std::to_string(i) : p.evt_id;

      if (evt_ids_.count(pc.evt_id) > 0) {
        return LineError(p.line, "duplicate event id '" + pc.evt_id + "'");
      }
      evt_ids_[pc.evt_id] = i;

      Status s = BindVar(pc.subject_var, i, RefSide::kSubject, EntityType::kProcess, p.line);
      if (!s.ok()) {
        return s;
      }
      s = BindVar(pc.object_var, i, RefSide::kObject, p.object.type, p.line);
      if (!s.ok()) {
        return s;
      }

      DataQuery& q = pc.query;
      q.op_mask = p.ops;
      q.object_type = p.object.type;
      q.subject_pred = p.subject.constraint;
      s = CanonicalizePred(&q.subject_pred, AttrOwner::kProcess, p.line);
      if (!s.ok()) {
        return s;
      }
      q.object_pred = p.object.constraint;
      s = CanonicalizePred(&q.object_pred, OwnerOf(p.object.type), p.line);
      if (!s.ok()) {
        return s;
      }
      q.event_pred = p.evt_constraint;
      s = CanonicalizePred(&q.event_pred, AttrOwner::kEvent, p.line);
      if (!s.ok()) {
        return s;
      }
      if (!global_event_pred_.is_true()) {
        q.event_pred = PredExpr::And(std::move(q.event_pred), global_event_pred_);
      }

      q.time = ctx_.global_time;
      if (p.time_window.has_value()) {
        Result<TimeRange> r = ResolveTimeWindow(*p.time_window);
        if (!r.ok()) {
          return r.status();
        }
        q.time = q.time.Intersect(r.value());
      }

      // Spatial constraints: global agentid plus any agentid equality baked
      // into the *subject* constraint (e.g. p1[agentid = 2]). The subject
      // process always runs on the host that records the event, so its agent
      // pins the event's agent; the object may be remote (cross-host
      // connects), so object agentid constraints stay entity-level only.
      q.agent_ids = IntersectAgents(ctx_.global_agents, AgentIdsFromPred(q.subject_pred));

      ctx_.patterns.push_back(std::move(pc));
    }
    return Status::Ok();
  }

  Status ResolveEndpoint(const std::string& id, const std::string& attr, int line,
                         size_t* pattern, RefSide* side, const AttrDef** out_attr) {
    auto b = bindings_.find(id);
    if (b != bindings_.end()) {
      *pattern = b->second.pattern;
      *side = b->second.side;
      EntityType t = b->second.type;
      // paper: "id will be used as the default attribute"
      *out_attr = FindAttr(OwnerOf(t), attr.empty() ? "id" : attr);
      if (*out_attr == nullptr) {
        return LineError(line, "'" + attr + "' is not an attribute of " + EntityTypeName(t) +
                                   " entity '" + id + "'");
      }
      return Status::Ok();
    }
    auto e = evt_ids_.find(id);
    if (e != evt_ids_.end()) {
      *pattern = e->second;
      *side = RefSide::kEvent;
      if (attr.empty()) {
        return LineError(line, "event reference '" + id + "' needs an attribute, e.g. '" + id +
                                   ".amount'");
      }
      *out_attr = FindAttr(AttrOwner::kEvent, attr);
      if (*out_attr == nullptr) {
        return LineError(line, "'" + attr + "' is not an event attribute");
      }
      return Status::Ok();
    }
    return LineError(line, "unknown identifier '" + id + "' in relationship");
  }

  Status ResolveRelationships(const ast::MultieventQuery& mq) {
    for (const ast::AttrRel& r : mq.attr_rels) {
      AttrRelation rel;
      rel.op = r.op;
      Status s = ResolveEndpoint(r.left_id, r.left_attr, r.line, &rel.left_pattern,
                                 &rel.left_side, &rel.left_attr);
      if (!s.ok()) {
        return s;
      }
      s = ResolveEndpoint(r.right_id, r.right_attr, r.line, &rel.right_pattern, &rel.right_side,
                          &rel.right_attr);
      if (!s.ok()) {
        return s;
      }
      ctx_.attr_rels.push_back(std::move(rel));
    }
    for (const ast::TempRel& r : mq.temp_rels) {
      TempRelation rel;
      auto l = evt_ids_.find(r.left_evt);
      auto rr = evt_ids_.find(r.right_evt);
      if (l == evt_ids_.end()) {
        return LineError(r.line, "unknown event id '" + r.left_evt + "'");
      }
      if (rr == evt_ids_.end()) {
        return LineError(r.line, "unknown event id '" + r.right_evt + "'");
      }
      rel.left_pattern = l->second;
      rel.right_pattern = rr->second;
      rel.order = r.order;
      rel.lo = r.lo;
      rel.hi = r.hi;
      ctx_.temp_rels.push_back(rel);
    }
    return Status::Ok();
  }

  // Resolves variable references inside an output/having/group-by expression.
  Status ResolveExpr(Expr* e, bool aliases_visible) {
    switch (e->kind) {
      case Expr::Kind::kNumber:
      case Expr::Kind::kString:
        return Status::Ok();
      case Expr::Kind::kParam:
        // Unreachable: Resolve() rejects queries with unbound parameters.
        return LineError(e->line, "unbound parameter $" + e->name);
      case Expr::Kind::kVarRef: {
        if (aliases_visible && e->attr.empty() && aliases_.count(e->name) > 0) {
          e->resolved = ResolvedRef{.side = RefSide::kAlias, .alias = e->name};
          return Status::Ok();
        }
        auto b = bindings_.find(e->name);
        if (b != bindings_.end()) {
          const EntityType t = b->second.type;
          // return p2 -> p2.exe_name
          const AttrDef* attr =
              e->attr.empty() ? &DefaultAttr(t) : FindAttr(OwnerOf(t), e->attr);
          if (attr == nullptr) {
            return Status::Error("'" + e->attr + "' is not an attribute of entity '" + e->name +
                                 "'");
          }
          e->resolved = ResolvedRef{b->second.pattern, b->second.side, attr, {}};
          return Status::Ok();
        }
        auto ev = evt_ids_.find(e->name);
        if (ev != evt_ids_.end()) {
          const AttrDef* attr = FindAttr(AttrOwner::kEvent, e->attr.empty() ? "id" : e->attr);
          if (attr == nullptr) {
            return Status::Error("'" + e->attr + "' is not an event attribute");
          }
          e->resolved = ResolvedRef{ev->second, RefSide::kEvent, attr, {}};
          return Status::Ok();
        }
        if (aliases_visible) {
          return Status::Error("unknown identifier '" + e->name + "'");
        }
        return Status::Error("unknown identifier '" + e->name + "' in return clause");
      }
      case Expr::Kind::kHistRef: {
        if (aliases_.count(e->name) == 0) {
          return Status::Error("history reference '" + e->name +
                               "[..]' does not match a return alias");
        }
        if (!ctx_.window.has_value()) {
          return Status::Error("history references need a sliding window (window = ...)");
        }
        e->resolved = ResolvedRef{.side = RefSide::kAlias, .alias = e->name};
        return Status::Ok();
      }
      case Expr::Kind::kCall: {
        if (!IsAggregateFunc(e->func) && !IsMovingAverageFunc(e->func)) {
          return Status::Error("unknown function '" + e->func + "'");
        }
        if (e->IsMovingAverageCall()) {
          if (!ctx_.window.has_value()) {
            return Status::Error("moving averages need a sliding window (window = ...)");
          }
          if (e->children.empty() || e->children[0].kind != Expr::Kind::kVarRef ||
              aliases_.count(e->children[0].name) == 0) {
            return Status::Error("the first argument of " + e->func +
                                 "() must be a return alias");
          }
          e->children[0].resolved =
              ResolvedRef{.side = RefSide::kAlias, .alias = e->children[0].name};
          return Status::Ok();
        }
        for (Expr& arg : e->children) {
          Status s = ResolveExpr(&arg, aliases_visible);
          if (!s.ok()) {
            return s;
          }
        }
        return Status::Ok();
      }
      case Expr::Kind::kBinary:
      case Expr::Kind::kUnary: {
        for (Expr& child : e->children) {
          Status s = ResolveExpr(&child, aliases_visible);
          if (!s.ok()) {
            return s;
          }
        }
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Status ResolveReturnAndFilters(const ast::MultieventQuery& mq) {
    ctx_.count_all = mq.ret.count_all;
    ctx_.distinct = mq.ret.distinct;

    // Collect aliases first so having/sort/group-by can reference them.
    for (const ast::ReturnItem& item : mq.ret.items) {
      if (!item.rename.empty()) {
        aliases_.insert(item.rename);
      }
    }

    for (const ast::ReturnItem& item : mq.ret.items) {
      OutputItem out;
      out.expr = item.expr;
      Status s = ResolveExpr(&out.expr, /*aliases_visible=*/false);
      if (!s.ok()) {
        return s;
      }
      out.name = item.rename.empty() ? item.expr.ToString() : item.rename;
      ctx_.items.push_back(std::move(out));
    }
    for (const ast::ReturnItem& item : mq.filters.group_by) {
      OutputItem out;
      out.expr = item.expr;
      Status s = ResolveExpr(&out.expr, /*aliases_visible=*/true);
      if (!s.ok()) {
        return s;
      }
      out.name = item.rename.empty() ? item.expr.ToString() : item.rename;
      ctx_.group_by.push_back(std::move(out));
    }
    if (mq.filters.having.has_value()) {
      Expr having = *mq.filters.having;
      Status s = ResolveExpr(&having, /*aliases_visible=*/true);
      if (!s.ok()) {
        return s;
      }
      ctx_.having = std::move(having);
    }
    for (const ast::SortKey& key : mq.filters.sort_by) {
      ast::SortKey resolved = key;
      Status s = ResolveExpr(&resolved.expr, /*aliases_visible=*/true);
      if (!s.ok()) {
        return s;
      }
      ctx_.sort_by.push_back(std::move(resolved));
    }
    ctx_.top = mq.filters.top;
    return Status::Ok();
  }

  QueryContext ctx_;
  PredExpr global_event_pred_;
  std::unordered_map<std::string, Binding> bindings_;
  std::unordered_map<std::string, std::pair<size_t, RefSide>> last_occurrence_;
  std::unordered_map<std::string, size_t> evt_ids_;
  std::set<std::string> aliases_;
};

}  // namespace

Result<ast::MultieventQuery> RewriteDependency(const ast::DependencyQuery& dep) {
  if (dep.nodes.size() < 2 || dep.edges.size() != dep.nodes.size() - 1) {
    return Result<ast::MultieventQuery>::Error("malformed dependency path");
  }
  ast::MultieventQuery mq;
  // Give anonymous nodes stable ids so consecutive patterns share entities.
  std::vector<ast::EntityRef> nodes = dep.nodes;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].id.empty()) {
      nodes[i].id = "_n" + std::to_string(i);
    }
  }
  std::vector<bool> constraint_emitted(nodes.size(), false);

  for (size_t i = 0; i < dep.edges.size(); ++i) {
    const ast::DependencyEdge& edge = dep.edges[i];
    size_t subj = edge.points_right ? i : i + 1;
    size_t obj = edge.points_right ? i + 1 : i;
    if (nodes[subj].type != EntityType::kProcess) {
      return Result<ast::MultieventQuery>::Error(
          "line " + std::to_string(nodes[subj].line) +
          ": dependency edge subject must be a process (check the edge direction)");
    }
    ast::EventPattern p;
    p.line = nodes[subj].line;
    p.subject = nodes[subj];
    p.object = nodes[obj];
    // The shared entity's constraint is stated once; later occurrences only
    // carry the id (the entity-ID-reuse shortcut does the linking).
    if (constraint_emitted[subj]) {
      p.subject.constraint = PredExpr::True();
    } else {
      constraint_emitted[subj] = true;
    }
    if (constraint_emitted[obj]) {
      p.object.constraint = PredExpr::True();
    } else {
      constraint_emitted[obj] = true;
    }
    p.ops = edge.ops;
    p.evt_id = "_d" + std::to_string(i);
    mq.patterns.push_back(std::move(p));
  }

  // Chain the temporal order: forward = path events in ascending time,
  // backward = descending (paper §4.2).
  for (size_t i = 0; i + 1 < dep.edges.size(); ++i) {
    ast::TempRel rel;
    rel.left_evt = "_d" + std::to_string(i);
    rel.right_evt = "_d" + std::to_string(i + 1);
    rel.order = dep.forward ? ast::TempOrder::kBefore : ast::TempOrder::kAfter;
    mq.temp_rels.push_back(rel);
  }

  mq.ret = dep.ret;
  mq.filters = dep.filters;
  return mq;
}

Result<QueryContext> ResolveQuery(const ast::Query& query) {
  Resolver resolver;
  return resolver.Resolve(query);
}

Result<QueryContext> CompileQuery(const std::string& text) {
  Result<ast::Query> parsed = ParseQuery(text);
  if (!parsed.ok()) {
    return Result<QueryContext>(parsed.status());
  }
  return ResolveQuery(parsed.value());
}

}  // namespace aiql
