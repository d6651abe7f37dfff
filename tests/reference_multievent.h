// Brute-force reference evaluator for multievent queries: the multi-pattern
// schedulers' test oracle. Each pattern's events come from ReferenceScan;
// attribute relationships are checked through the schema's value readers,
// temporal relationships from raw start times, and a backtracking search over
// the patterns in written order enumerates every joint assignment. It shares
// no code with src/core (relationship checks, temporal windows, pushdown,
// joins or scheduling), so every scheduler, ordering, pushdown setting,
// parallelism level and storage tier must bind exactly its tuples.
#ifndef AIQL_TESTS_REFERENCE_MULTIEVENT_H_
#define AIQL_TESTS_REFERENCE_MULTIEVENT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/lang/query_context.h"
#include "tests/reference_scan.h"

namespace aiql {

// One side of an attribute relationship for the event `e`: the subject
// process's, the object entity's or the event's own attribute.
inline Value ReferenceEndpoint(const EntityCatalog& catalog, EventView e, RefSide side,
                               const AttrDef* attr) {
  switch (side) {
    case RefSide::kSubject:
      return ReadAttr(attr, catalog, EntityType::kProcess, e.subject_idx());
    case RefSide::kObject:
      return ReadAttr(attr, catalog, e.object_type(), e.object_idx());
    case RefSide::kEvent:
      return ReadAttr(attr, e, catalog);
    case RefSide::kAlias:
      break;
  }
  return Value();
}

inline bool ReferenceAttrHolds(const EntityCatalog& catalog, const AttrRelation& rel,
                               EventView le, EventView re) {
  const Value l = ReferenceEndpoint(catalog, le, rel.left_side, rel.left_attr);
  const Value r = ReferenceEndpoint(catalog, re, rel.right_side, rel.right_attr);
  switch (rel.op) {
    case CmpOp::kEq:
      return l == r;
    case CmpOp::kNe:
      return l != r;
    case CmpOp::kLt:
      return l < r;
    case CmpOp::kLe:
      return l <= r;
    case CmpOp::kGt:
      return l > r;
    case CmpOp::kGe:
      return l >= r;
    default:
      return false;
  }
}

// "left <order>[lo-hi] right": before = left starts strictly earlier, after =
// strictly later, within = either way; the gap between the two start times
// must lie in [lo, hi] where given.
inline bool ReferenceTempHolds(const TempRelation& rel, EventView le, EventView re) {
  int64_t gap = re.start_time() - le.start_time();  // how much later the right event starts
  if (rel.order == ast::TempOrder::kAfter) {
    gap = -gap;
  }
  if (rel.order == ast::TempOrder::kWithin) {
    gap = gap < 0 ? -gap : gap;
  } else if (gap <= 0) {
    return false;
  }
  return (!rel.lo.has_value() || gap >= *rel.lo) && (!rel.hi.has_value() || gap <= *rel.hi);
}

// Every joint assignment of `ctx`'s patterns that satisfies all of its
// relationships, as one event id per pattern (in pattern order), sorted.
inline std::vector<std::vector<int64_t>> ReferenceMultievent(const Database& db,
                                                             const QueryContext& ctx) {
  const EntityCatalog& catalog = db.catalog();
  const size_t n = ctx.patterns.size();
  // Each pattern's matches as one table; chosen[i] is a row of tables[i].
  std::vector<EventColumns> tables(n);
  for (size_t i = 0; i < n; ++i) {
    tables[i] = EventTable(ReferenceScan(db, ctx.patterns[i].query));
  }
  std::vector<EventView> chosen(n);
  // True when every relationship whose later endpoint is pattern `i` holds
  // for the events chosen for patterns 0..i.
  auto consistent = [&](size_t i) {
    for (const AttrRelation& rel : ctx.attr_rels) {
      if (std::max(rel.left_pattern, rel.right_pattern) == i &&
          !ReferenceAttrHolds(catalog, rel, chosen[rel.left_pattern],
                              chosen[rel.right_pattern])) {
        return false;
      }
    }
    for (const TempRelation& rel : ctx.temp_rels) {
      if (rel.left_pattern != rel.right_pattern &&
          std::max(rel.left_pattern, rel.right_pattern) == i &&
          !ReferenceTempHolds(rel, chosen[rel.left_pattern], chosen[rel.right_pattern])) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::vector<int64_t>> out;
  std::function<void(size_t)> extend = [&](size_t i) {
    if (i == n) {
      std::vector<int64_t>& ids = out.emplace_back();
      for (const EventView& e : chosen) {
        ids.push_back(e.id());
      }
      return;
    }
    for (const EventView& e : ViewsOf(tables[i])) {
      chosen[i] = e;
      if (consistent(i)) {
        extend(i + 1);
      }
    }
  };
  extend(0);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aiql

#endif  // AIQL_TESTS_REFERENCE_MULTIEVENT_H_
