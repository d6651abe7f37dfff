// Entity resolution: the candidate entities a subject or object predicate
// selects from the catalog. The executor resolves every pattern's sides once
// per run (and memoizes them in the plan cache); Database::PlanQuery
// resolves only the sides a data query arrives without candidates for.
#ifndef AIQL_SRC_STORAGE_ENTITY_SEARCH_H_
#define AIQL_SRC_STORAGE_ENTITY_SEARCH_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/storage/data_query.h"
#include "src/storage/entity.h"
#include "src/storage/predicate.h"

namespace aiql {

// Entities, or dictionary values, resolution tests between two stop checks.
inline constexpr size_t kResolveStopStride = 1024;

// The catalog indices (ascending) of the entities of type `t` that satisfy
// `pred`, restricted to entities of `agents` when engaged.
//
// `pred` is compiled once per call into terms over the catalog's columns. A
// term on a string attribute is tested at most once per distinct value of
// its dictionary-coded column: LIKE / NOT LIKE as literal segments of the
// lowered pattern against the lowered value, every other operator through
// AttrPredicate::Eval on the stored value. A term on an integer attribute is
// tested per entity. A pass over the type's entities then checks the agent
// and runs the boolean tree over the terms' answers. When the catalog is
// indexed and `pred` pins the default attribute to exact values, the pass
// visits only those values' entities (each lookup counts in
// stats->index_lookups). A pass over every entity tests each string term
// against every value of its column first; a narrowed pass (agents, lookups)
// tests the values its entities carry as it reaches them. Entities visited
// and term tests count in stats->entity_evals. `ctx`'s stop state is checked
// every kResolveStopStride values of that first sweep and entities of the
// pass: a stopped resolution returns what it has found, and the caller
// surfaces ctx->StopStatus().
std::vector<uint32_t> ResolveEntities(const EntityCatalog& catalog, EntityType t,
                                      const PredExpr& pred,
                                      const std::optional<std::vector<AgentId>>& agents,
                                      ScanStats* stats, const ScanContext* ctx = nullptr);

// The agent constraint that applies to the object side's candidates of `q`.
// Files and network connections are recorded as entities of the host the
// event occurred on, so the query's agents narrow them; process objects may
// live on a remote host (cross-host connect events), so theirs are not
// narrowed.
const std::optional<std::vector<AgentId>>& ObjectSideAgents(const DataQuery& q);

// Candidates `ids` (ascending) of one side of `q` with their event count:
// the sum of SubjectEvents (subject side) or ObjectEvents of q.object_type
// (object side) over them.
EntityCandidates MakeCandidates(const EntityCatalog& catalog, const DataQuery& q,
                                EntitySide side, std::vector<uint32_t> ids, bool narrowed);

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENTITY_SEARCH_H_
