// Per-partition zone maps and compiled column filters.
//
// A zone map summarizes one partition: min/max per event column, the
// union of operation bits, the set of object entity types, and the distinct
// agents present. Database::ExecuteQuery consults zone maps to skip whole
// partitions before touching any column (the sketch-based candidate check of
// Tenzir's partition design, specialized to AIQL's fixed event schema).
//
// CompileEventPred splits a data query's event predicate into
//   - an operation-mask refinement (optype = "write" and friends),
//   - vectorizable per-column comparisons against integer constants,
//   - a residual predicate, resolved against the event schema, evaluated
//     row-at-a-time for whatever remains.
// The compiled filters drive both zone-map pruning (can ANY row in this
// partition match?) and the vectorized scan (evaluate one column at a time
// over a shrinking selection vector).
#ifndef AIQL_SRC_STORAGE_ZONE_MAP_H_
#define AIQL_SRC_STORAGE_ZONE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/storage/bloom.h"
#include "src/storage/event_view.h"
#include "src/storage/posting_index.h"
#include "src/storage/schema.h"

namespace aiql {

// Above this many candidates, probing a partition's entity bloom filter
// candidate-by-candidate at plan time costs more than it can save.
inline constexpr size_t kEntityBloomProbeLimit = 256;

struct ZoneMap {
  int64_t min[kNumEventColumns];  // per EventColumnId
  int64_t max[kNumEventColumns];
  OpMask op_mask = 0;
  uint8_t object_type_mask = 0;          // bit i = EntityType(i) present
  std::vector<AgentId> agents;           // sorted distinct agents

  // Entity summaries: the subject_idx / object_idx ranges above plus blocked
  // bloom filters over the distinct entity references, so pushed-down
  // candidate sets can prune a partition before any column is touched. The
  // object_idx range covers object indexes of every type (a conservative
  // range); the object bloom keys on PackObjectKey(type, idx) and is
  // therefore type-exact.
  BlockedBloom subject_bloom;
  BlockedBloom object_bloom;

  // The zone map of no rows: every range empty (min > max), no op or type.
  ZoneMap() {
    std::fill(std::begin(min), std::end(min), INT64_MAX);
    std::fill(std::begin(max), std::end(max), INT64_MIN);
  }
  // The zone map of every row of `cols`, built one column at a time.
  // `subjects` and `objects` are the posting indexes of the same rows: their
  // distinct keys size and fill the entity blooms.
  ZoneMap(const EventColumns& cols, const PostingIndex& subjects, const PostingIndex& objects);

  bool ContainsAgent(AgentId a) const {
    return std::binary_search(agents.begin(), agents.end(), a);
  }
  // Any of the ascending, distinct `candidates` present in this partition?
  // One merge pass over both sorted lists.
  bool ContainsAnyAgent(std::span<const AgentId> candidates) const;

  // Could any of the ascending candidate subject / object references exist
  // in this partition? Range check first, then, for at most
  // kEntityBloomProbeLimit candidates, the bloom; `object_type` scopes the
  // object probe. False proves absence; true only means "possible".
  bool MayContainSubject(std::span<const uint32_t> ids) const;
  bool MayContainObject(std::span<const uint32_t> ids, EntityType object_type) const;

  int64_t MinOf(EventColumnId c) const { return min[static_cast<int>(c)]; }
  int64_t MaxOf(EventColumnId c) const { return max[static_cast<int>(c)]; }
};

// One vectorizable comparison: column <op> value (or value list for IN).
struct ColumnFilter {
  EventColumnId col = EventColumnId::kId;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;
  std::vector<int64_t> values;  // kIn / kNotIn only: ascending, distinct

  bool Matches(int64_t v) const;
  // Could any value in [zone_min, zone_max] satisfy this filter?
  bool CanMatchRange(int64_t zone_min, int64_t zone_max) const;
  // Does every value in [zone_min, zone_max] satisfy this filter? (When true
  // the scan can skip applying it entirely.)
  bool AlwaysTrueOnRange(int64_t zone_min, int64_t zone_max) const;
};

// The vectorizable decomposition of a DataQuery's event predicate.
struct CompiledEventPred {
  OpMask op_mask = kAllOps;            // refinement from optype constraints
  std::vector<ColumnFilter> filters;   // conjunctive column comparisons
  ResolvedPred residual;               // whatever could not be vectorized

  bool TriviallyTrue() const {
    return op_mask == kAllOps && filters.empty() && residual.is_true();
  }
};

// Splits the top-level conjunction of `pred`. Semantics are preserved
// exactly: op_mask ∧ filters ∧ residual  ⇔  pred. The residual borrows
// `pred`'s leaves, so `pred` must outlive the result.
CompiledEventPred CompileEventPred(const PredExpr& pred);

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ZONE_MAP_H_
