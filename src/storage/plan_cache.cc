#include "src/storage/plan_cache.h"

#include <cstdio>

#include "src/storage/database.h"

namespace aiql {

ScanPlanCache::Entry::Entry() = default;
ScanPlanCache::Entry::~Entry() = default;

namespace {

// Serializes a value with a type tag so "1" and 1 cannot collide.
void AppendValue(const Value& v, std::string* out) {
  if (v.is_string()) {
    out->append("s:");
    out->append(v.as_string());
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
      out->append(leaf.attr);
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

bool AppendCandidates(const std::optional<std::vector<uint32_t>>& c, std::string* out,
                      size_t* budget) {
  if (!c.has_value()) {
    out->append("-;");
    return true;
  }
  if (c->size() > *budget) {
    return false;
  }
  *budget -= c->size();
  for (uint32_t idx : *c) {
    out->append(std::to_string(idx));
    out->push_back(',');
  }
  out->push_back(';');
  return true;
}

}  // namespace

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
  if (q.agent_ids.has_value()) {
    for (AgentId a : *q.agent_ids) {
      out.append(std::to_string(a));
      out.push_back(',');
    }
  } else {
    out.push_back('-');
  }
  out.push_back('/');
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
