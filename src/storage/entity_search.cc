#include "src/storage/entity_search.h"

#include <algorithm>
#include <string>

#include "src/storage/schema.h"
#include "src/util/string_utils.h"

namespace aiql {

std::vector<uint32_t> ResolveEntities(const EntityCatalog& catalog, EntityType t,
                                      const PredExpr& pred,
                                      const std::optional<std::vector<AgentId>>& agents,
                                      ScanStats* stats, const ScanContext* ctx) {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::vector<AgentId> sorted_agents;
  if (agents.has_value()) {
    sorted_agents = *agents;
    std::sort(sorted_agents.begin(), sorted_agents.end());
  }
  auto agent_ok = [&](AgentId a) {
    return !agents.has_value() ||
           std::binary_search(sorted_agents.begin(), sorted_agents.end(), a);
  };
  const ResolvedPred resolved(pred, OwnerOf(t));
  auto matches = [&](uint32_t idx) {
    return resolved.Eval([&](const AttrDef& attr) { return attr.entity(catalog, idx); });
  };

  std::vector<uint32_t> out;

  // Index fast path: exact values on the default attribute.
  if (catalog.indexed()) {
    std::vector<Value> values = pred.EqualityValuesFor(DefaultAttr(t).name);
    if (!values.empty()) {
      // Index keys are interned lowercase at Finalize(); fold each candidate
      // value into a reused scratch buffer instead of allocating two strings
      // per value.
      std::string key_scratch;
      for (const Value& v : values) {
        ++st->index_lookups;
        if (v.is_string()) {
          ToLowerInto(v.as_string(), &key_scratch);
        } else {
          ToLowerInto(v.ToString(), &key_scratch);
        }
        const std::vector<uint32_t>* hits = catalog.IndexLookup(t, key_scratch);
        if (hits == nullptr) {
          continue;
        }
        for (uint32_t idx : *hits) {
          if (agent_ok(catalog.AgentOf(t, idx)) && matches(idx)) {
            out.push_back(idx);
          }
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
  }

  // Catalog scan: entities are few relative to events.
  const uint32_t n = static_cast<uint32_t>(catalog.CountOf(t));
  for (uint32_t idx = 0; idx < n; ++idx) {
    if (idx % kResolveStopStride == 0 && ctx != nullptr && ctx->ShouldStop()) {
      break;
    }
    if (agent_ok(catalog.AgentOf(t, idx)) && matches(idx)) {
      out.push_back(idx);
    }
  }
  return out;
}

const std::optional<std::vector<AgentId>>& ObjectSideAgents(const DataQuery& q) {
  static const std::optional<std::vector<AgentId>> kAnyAgent;
  return q.object_type == EntityType::kProcess ? kAnyAgent : q.agent_ids;
}

EntityCandidates MakeCandidates(const EntityCatalog& catalog, const DataQuery& q,
                                EntitySide side, std::vector<uint32_t> ids, bool narrowed) {
  EntityCandidates c;
  for (uint32_t idx : ids) {
    c.events += side == EntitySide::kSubject ? catalog.SubjectEvents(idx)
                                             : catalog.ObjectEvents(q.object_type, idx);
  }
  c.ids = std::move(ids);
  c.narrowed = narrowed;
  return c;
}

}  // namespace aiql
