// Endpoint values and relationship checks over matched events. Return items,
// group keys, aggregates and having clauses are evaluated by the compiled
// projector (src/core/compiled_projector.h), not here.
#ifndef AIQL_SRC_CORE_EVAL_H_
#define AIQL_SRC_CORE_EVAL_H_

#include <string>
#include <vector>

#include "src/lang/query_context.h"
#include "src/storage/event_store.h"

namespace aiql {

// Value of a pattern endpoint (subject/object entity attribute or event
// attribute, resolved to its schema row by inference) for a concrete matched
// event.
Value EndpointValue(const EventView& e, RefSide side, const AttrDef* attr,
                    const EntityCatalog& catalog);

// True if the two concrete events satisfy the relationship. `le` matches the
// relationship's left pattern, `re` the right one.
bool CheckAttrRel(const AttrRelation& rel, const EventView& le, const EventView& re,
                  const EntityCatalog& catalog);
bool CheckTempRel(const TempRelation& rel, const EventView& le, const EventView& re);

// Admissible start times of the event bound to one endpoint of `rel` (the
// target: the relationship's left pattern when `target_is_left`) given that
// the other endpoint's start times span [tmin, tmax]. Pushdown narrows a
// fetch to it over every known row; the temporal join binary-searches it per
// row (tmin = tmax). CheckTempRel stays the exact test (e.g. within's lo).
TimeRange TempStartWindow(const TempRelation& rel, bool target_is_left, TimestampMs tmin,
                          TimestampMs tmax);

// Unified relationship handle used by the schedulers.
struct Relationship {
  enum class Kind : uint8_t { kAttr, kTemp };
  Kind kind = Kind::kAttr;
  AttrRelation attr;
  TempRelation temp;

  size_t left() const { return kind == Kind::kAttr ? attr.left_pattern : temp.left_pattern; }
  size_t right() const { return kind == Kind::kAttr ? attr.right_pattern : temp.right_pattern; }
  bool Check(const EventView& le, const EventView& re, const EntityCatalog& catalog) const {
    return kind == Kind::kAttr ? CheckAttrRel(attr, le, re, catalog) : CheckTempRel(temp, le, re);
  }
};

// Collects all inter-pattern relationships of a query context (intra-pattern
// attribute relationships are applied as per-pattern filters instead).
std::vector<Relationship> InterPatternRelationships(const QueryContext& ctx);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_EVAL_H_
