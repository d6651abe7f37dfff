#include "src/storage/plan_cache.h"

#include <cstdio>
#include <string_view>

#include "src/storage/database.h"

namespace aiql {

ScanPlanCache::Entry::Entry() = default;
ScanPlanCache::Entry::~Entry() = default;

namespace {

// Appends `s` behind its length, so no bytes inside it (file names come from
// monitored hosts) can pass for a separator and make two keys collide.
void AppendString(std::string_view s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

// Serializes a value with a type tag so "1" and 1 cannot collide.
void AppendValue(const Value& v, std::string* out) {
  if (v.is_string()) {
    out->push_back('s');
    AppendString(v.as_string(), out);
  } else if (v.is_int()) {
    out->append("i:");
    out->append(std::to_string(v.as_int()));
  } else {
    // Hex-float: lossless, so doubles closer than std::to_string's six
    // fractional digits cannot collide onto one cache entry.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d:%a", v.as_double());
    out->append(buf);
  }
  out->push_back('\x1f');
}

// Serializes a predicate tree; returns false when the value volume exceeds
// the fingerprint budget.
bool AppendPred(const PredExpr& p, std::string* out, size_t* budget) {
  switch (p.kind()) {
    case PredExpr::Kind::kTrue:
      out->push_back('T');
      return true;
    case PredExpr::Kind::kLeaf: {
      const AttrPredicate& leaf = p.leaf();
      if (leaf.values.size() > *budget) {
        return false;
      }
      *budget -= leaf.values.size();
      out->push_back('L');
      AppendString(leaf.attr, out);
      out->push_back('\x1e');
      out->append(std::to_string(static_cast<int>(leaf.op)));
      out->push_back('\x1e');
      for (const Value& v : leaf.values) {
        AppendValue(v, out);
      }
      out->push_back(';');
      return true;
    }
    case PredExpr::Kind::kAnd:
    case PredExpr::Kind::kOr:
    case PredExpr::Kind::kNot: {
      out->push_back(p.kind() == PredExpr::Kind::kAnd   ? '&'
                     : p.kind() == PredExpr::Kind::kOr ? '|'
                                                       : '!');
      out->push_back('(');
      for (const PredExpr& child : p.children()) {
        if (!AppendPred(child, out, budget)) {
          return false;
        }
      }
      out->push_back(')');
      return true;
    }
  }
  return false;
}

// Serializes the candidates of one side when pushdown narrowed them (the
// predicate, already in the key, determines the rest); returns false when
// the ids exceed the fingerprint budget.
bool AppendCandidates(const std::shared_ptr<const EntityCandidates>& c, std::string* out,
                      size_t* budget) {
  if (c == nullptr || !c->narrowed) {
    out->push_back('-');
    return true;
  }
  if (c->ids.size() > *budget) {
    return false;
  }
  *budget -= c->ids.size();
  out->push_back('N');
  out->append(std::to_string(c->ids.size()));
  out->push_back(':');
  for (uint32_t id : c->ids) {
    out->append(std::to_string(id));
    out->push_back(',');
  }
  return true;
}

void AppendAgents(const std::optional<std::vector<AgentId>>& agents, std::string* out) {
  if (agents.has_value()) {
    for (AgentId a : *agents) {
      out->append(std::to_string(a));
      out->push_back(',');
    }
  } else {
    out->push_back('-');
  }
  out->push_back('/');
}

}  // namespace

std::string EntityResolutionFingerprint(const DataQuery& q) {
  std::string out;
  out.reserve(96);
  size_t budget = kMaxFingerprintValues;
  out.append(std::to_string(static_cast<int>(q.object_type)));
  out.push_back('/');
  AppendAgents(q.agent_ids, &out);
  if (!AppendPred(q.subject_pred, &out, &budget) || !AppendPred(q.object_pred, &out, &budget)) {
    return std::string();
  }
  return out;
}

std::string DataQueryFingerprint(const DataQuery& q) {
  std::string out;
  out.reserve(128);
  size_t budget = kMaxFingerprintValues;

  out.append(std::to_string(static_cast<unsigned>(q.op_mask)));
  out.push_back('/');
  out.append(std::to_string(static_cast<int>(q.object_type)));
  out.push_back('/');
  out.append(std::to_string(q.columns));
  out.push_back('/');
  AppendAgents(q.agent_ids, &out);
  out.append(std::to_string(q.time.begin));
  out.push_back(':');
  out.append(std::to_string(q.time.end));
  out.push_back('/');
  if (q.pushed_time.has_value()) {
    out.append(std::to_string(q.pushed_time->begin));
    out.push_back(':');
    out.append(std::to_string(q.pushed_time->end));
  } else {
    out.push_back('-');
  }
  out.push_back('/');
  if (!AppendPred(q.subject_pred, &out, &budget) || !AppendPred(q.object_pred, &out, &budget) ||
      !AppendPred(q.event_pred, &out, &budget) ||
      !AppendCandidates(q.subject_candidates, &out, &budget) ||
      !AppendCandidates(q.object_candidates, &out, &budget)) {
    return std::string();  // too large to be worth caching
  }
  return out;
}

}  // namespace aiql
