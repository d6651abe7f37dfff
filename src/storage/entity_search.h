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

// Entities a catalog scan evaluates between two stop checks.
inline constexpr size_t kResolveStopStride = 1024;

// The catalog indices (ascending) of the entities of type `t` that satisfy
// `pred`, restricted to entities of `agents` when engaged. When the catalog
// is indexed and `pred` pins the default attribute to exact values, only
// those values' entities are tested (each probe counts in
// stats->index_lookups); otherwise every entity of the type is. `ctx`'s stop
// state is checked every kResolveStopStride entities: a stopped resolution
// returns what it has found, and the caller surfaces ctx->StopStatus().
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
