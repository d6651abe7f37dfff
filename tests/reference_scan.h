// Brute-force reference evaluator for data queries: the storage layer's test
// oracle. It walks every stored event through Database::ForEachEvent and
// checks each DataQuery constraint directly against the event and the
// catalog, looking attributes up by name in the schema table. It shares no
// code with query planning (PlanQuery, FindEntities), entity resolution
// (ResolveEntities), predicate compilation (ResolvedPred, CompiledEventPred),
// or the scan kernels, so every storage configuration, access path, and
// parallelism level must return exactly its rows, in its order.
//
// Candidate sets the executor resolved from a side's predicate alone
// (EntityCandidates::narrowed false) are ignored: the reference evaluates
// that predicate itself, so a resolution that drops or adds an entity shows
// as a row difference. Pushdown-narrowed sets are an input the reference
// cannot derive (they depend on rows an earlier fetch returned); it filters
// on them as well as on the predicate, and
// ReferenceCandidatesOutsidePredicate checks them against its own resolution.
#ifndef AIQL_TESTS_REFERENCE_SCAN_H_
#define AIQL_TESTS_REFERENCE_SCAN_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/storage/database.h"
#include "tests/event_table.h"

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

// True when the query carries no pushdown-narrowed candidates for a side or
// they list `idx`. Un-narrowed candidates are the code under test's
// resolution of the side's predicate, which the reference evaluates itself.
inline bool ReferenceCandidate(const std::shared_ptr<const EntityCandidates>& candidates,
                               uint32_t idx) {
  return candidates == nullptr || !candidates->narrowed ||
         std::find(candidates->ids.begin(), candidates->ids.end(), idx) != candidates->ids.end();
}

// The entities of a pushdown-narrowed candidate set on `side` of `q` that the
// side's predicate does not select (the reference's own resolution): empty
// unless pushdown widened the set. Un-narrowed sides return nothing.
inline std::vector<uint32_t> ReferenceCandidatesOutsidePredicate(const Database& db,
                                                                 const DataQuery& q,
                                                                 EntitySide side) {
  const std::shared_ptr<const EntityCandidates>& candidates = q.candidates(side);
  std::vector<uint32_t> outside;
  if (candidates == nullptr || !candidates->narrowed) {
    return outside;
  }
  const bool subject = side == EntitySide::kSubject;
  const EntityType type = subject ? EntityType::kProcess : q.object_type;
  for (uint32_t idx : candidates->ids) {
    if (idx >= db.catalog().CountOf(type) ||
        !ReferenceEntityMatches(db.catalog(), type, idx,
                                subject ? q.subject_pred : q.object_pred,
                                type != EntityType::kProcess || subject, q.agent_ids)) {
      outside.push_back(idx);
    }
  }
  return outside;
}

// `id IN (...)` over the catalog ids of the type-`t` entities `idxs`: a
// candidate set in predicate form. Queries under test build candidate sets
// with it.
inline PredExpr IdIn(const EntityCatalog& catalog, EntityType t,
                     const std::vector<uint32_t>& idxs) {
  std::vector<Value> ids;
  ids.reserve(idxs.size());
  for (uint32_t idx : idxs) {
    ids.push_back(Value(catalog.IdOf(t, idx)));
  }
  return PredExpr::Leaf(AttrPredicate::In("id", std::move(ids)));
}

// Every event of `db` satisfying `q`, sorted by (start_time, id).
inline std::vector<Event> ReferenceScan(const Database& db, const DataQuery& q) {
  const EntityCatalog& catalog = db.catalog();
  const TimeRange range = q.EffectiveTime();
  std::vector<Event> all;
  db.ForEachEvent([&](const Event& e) { all.push_back(e); });
  const EventColumns table = EventTable(all);
  std::vector<Event> out;
  for (uint32_t row = 0; row < all.size(); ++row) {
    const Event& e = all[row];
    if ((OpBit(e.op) & q.op_mask) == 0 || e.object_type != q.object_type ||
        !range.Contains(e.start_time) || !ReferenceAdmits(q.agent_ids, e.agent_id) ||
        !ReferenceCandidate(q.subject_candidates, e.subject_idx) ||
        !ReferenceCandidate(q.object_candidates, e.object_idx) ||
        !ReferenceEntityMatches(catalog, EntityType::kProcess, e.subject_idx, q.subject_pred,
                                true, q.agent_ids) ||
        !ReferenceEntityMatches(catalog, e.object_type, e.object_idx, q.object_pred,
                                e.object_type != EntityType::kProcess, q.agent_ids) ||
        !q.event_pred.Eval([&](std::string_view name) -> std::optional<Value> {
          const AttrDef* attr = FindAttr(AttrOwner::kEvent, name);
          if (attr == nullptr) {
            return std::nullopt;
          }
          return attr->event(EventView(&table, row), catalog);
        })) {
      continue;
    }
    out.push_back(e);
  }
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
