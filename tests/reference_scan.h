// Brute-force reference evaluator for data queries: the storage layer's test
// oracle. It walks every stored event through Database::ForEachEvent and
// checks each DataQuery constraint directly against the event and the
// catalog, looking attributes up by name in the schema table. It shares no
// code with query planning (PlanQuery, FindEntities), predicate resolution
// and compilation (ResolvedPred, CompiledEventPred), or the scan kernels, so
// every storage configuration, access path, and parallelism level must
// return exactly its rows, in its order.
#ifndef AIQL_TESTS_REFERENCE_SCAN_H_
#define AIQL_TESTS_REFERENCE_SCAN_H_

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/storage/database.h"

namespace aiql {

// True when `values` is unconstrained or contains `v`.
template <typename T>
bool ReferenceAdmits(const std::optional<std::vector<T>>& values, T v) {
  return !values.has_value() || std::find(values->begin(), values->end(), v) != values->end();
}

// An entity predicate over catalog entity (t, idx), each attribute looked up
// by name in the schema table as it is evaluated. `host_local` entities (the
// subject, file and network objects) must also belong to one of the query's
// agents; process objects may live on a remote host (cross-host connects).
inline bool ReferenceEntityMatches(const EntityCatalog& catalog, EntityType t, uint32_t idx,
                                   const PredExpr& pred, bool host_local,
                                   const std::optional<std::vector<AgentId>>& agents) {
  return pred.is_true() ||
         ((!host_local || ReferenceAdmits(agents, catalog.AgentOf(t, idx))) &&
          pred.Eval([&](std::string_view name) -> std::optional<Value> {
            const AttrDef* attr = FindAttr(OwnerOf(t), name);
            if (attr == nullptr) {
              return std::nullopt;
            }
            return attr->entity(catalog, idx);
          }));
}

// Every event of `db` satisfying `q`, sorted by (start_time, id).
inline std::vector<Event> ReferenceScan(const Database& db, const DataQuery& q) {
  const EntityCatalog& catalog = db.catalog();
  const TimeRange range = q.EffectiveTime();
  std::optional<std::unordered_set<uint32_t>> subjects, objects;
  if (q.subject_candidates.has_value()) {
    subjects.emplace(q.subject_candidates->begin(), q.subject_candidates->end());
  }
  if (q.object_candidates.has_value()) {
    objects.emplace(q.object_candidates->begin(), q.object_candidates->end());
  }
  std::vector<Event> out;
  db.ForEachEvent([&](const Event& e) {
    if ((OpBit(e.op) & q.op_mask) == 0 || e.object_type != q.object_type ||
        !range.Contains(e.start_time) || !ReferenceAdmits(q.agent_ids, e.agent_id) ||
        (subjects.has_value() && subjects->count(e.subject_idx) == 0) ||
        (objects.has_value() && objects->count(e.object_idx) == 0) ||
        !ReferenceEntityMatches(catalog, EntityType::kProcess, e.subject_idx, q.subject_pred,
                                true, q.agent_ids) ||
        !ReferenceEntityMatches(catalog, e.object_type, e.object_idx, q.object_pred,
                                e.object_type != EntityType::kProcess, q.agent_ids) ||
        !q.event_pred.Eval([&](std::string_view name) -> std::optional<Value> {
          const AttrDef* attr = FindAttr(AttrOwner::kEvent, name);
          if (attr == nullptr) {
            return std::nullopt;
          }
          return attr->event(EventView(&e), catalog);
        })) {
      return;
    }
    out.push_back(e);
  });
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return std::tie(a.start_time, a.id) < std::tie(b.start_time, b.id);
  });
  return out;
}

// Every field of a row, comparable and printable by gtest.
using ReferenceRow = std::tuple<int64_t, int64_t, AgentId, int, int, uint32_t, uint32_t,
                                TimestampMs, TimestampMs, int64_t, int32_t>;

inline ReferenceRow RowOf(const Event& e) {
  return {e.id, e.seq, e.agent_id, static_cast<int>(e.op), static_cast<int>(e.object_type),
          e.subject_idx, e.object_idx, e.start_time, e.end_time, e.amount, e.failure_code};
}
inline ReferenceRow RowOf(const EventView& v) { return RowOf(v.Materialize()); }

// The rows of a store's or the reference's result, in result order.
template <typename Row>
std::vector<ReferenceRow> RowsOf(const std::vector<Row>& events) {
  std::vector<ReferenceRow> rows;
  rows.reserve(events.size());
  for (const Row& e : events) {
    rows.push_back(RowOf(e));
  }
  return rows;
}

}  // namespace aiql

#endif  // AIQL_TESTS_REFERENCE_SCAN_H_
