#include "src/core/eval.h"

#include <algorithm>

namespace aiql {

Value EndpointValue(const EventView& e, RefSide side, const AttrDef* attr,
                    const EntityCatalog& catalog) {
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

bool CheckAttrRel(const AttrRelation& rel, const EventView& le, const EventView& re,
                  const EntityCatalog& catalog) {
  Value lv = EndpointValue(le, rel.left_side, rel.left_attr, catalog);
  Value rv = EndpointValue(re, rel.right_side, rel.right_attr, catalog);
  switch (rel.op) {
    case CmpOp::kEq:
      return lv == rv;
    case CmpOp::kNe:
      return lv != rv;
    case CmpOp::kLt:
      return lv < rv;
    case CmpOp::kLe:
      return lv <= rv;
    case CmpOp::kGt:
      return lv > rv;
    case CmpOp::kGe:
      return lv >= rv;
    default:
      return false;  // LIKE / IN do not appear in relationships
  }
}

bool CheckTempRel(const TempRelation& rel, const EventView& le, const EventView& re) {
  TimestampMs lt = le.start_time();
  TimestampMs rt = re.start_time();
  switch (rel.order) {
    case ast::TempOrder::kBefore: {
      if (lt >= rt) {
        return false;
      }
      DurationMs delta = rt - lt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      if (rel.hi.has_value() && delta > *rel.hi) {
        return false;
      }
      return true;
    }
    case ast::TempOrder::kAfter: {
      if (lt <= rt) {
        return false;
      }
      DurationMs delta = lt - rt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      if (rel.hi.has_value() && delta > *rel.hi) {
        return false;
      }
      return true;
    }
    case ast::TempOrder::kWithin: {
      DurationMs delta = lt >= rt ? lt - rt : rt - lt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      return !rel.hi.has_value() || delta <= *rel.hi;
    }
  }
  return false;
}

TimeRange TempStartWindow(const TempRelation& rel, bool target_is_left, TimestampMs tmin,
                          TimestampMs tmax) {
  const DurationMs lo = std::max<DurationMs>(rel.lo.value_or(0), 1);
  const bool has_hi = rel.hi.has_value();
  const DurationMs hi = rel.hi.value_or(0);
  ast::TempOrder order = rel.order;
  if (target_is_left && order != ast::TempOrder::kWithin) {
    // "target <order> source": flip to express the target relative to the source.
    order = order == ast::TempOrder::kBefore ? ast::TempOrder::kAfter : ast::TempOrder::kBefore;
  }
  switch (order) {
    case ast::TempOrder::kBefore:  // target strictly later than source
      return {tmin + lo, has_hi ? tmax + hi + 1 : INT64_MAX};
    case ast::TempOrder::kAfter:  // target strictly earlier than source
      return {has_hi ? tmin - hi : INT64_MIN, tmax - lo + 1};
    case ast::TempOrder::kWithin:
      break;
  }
  return {has_hi ? tmin - hi : INT64_MIN, has_hi ? tmax + hi + 1 : INT64_MAX};
}

std::vector<Relationship> InterPatternRelationships(const QueryContext& ctx) {
  std::vector<Relationship> out;
  for (const AttrRelation& r : ctx.attr_rels) {
    if (r.IsIntraPattern()) {
      continue;
    }
    Relationship rel;
    rel.kind = Relationship::Kind::kAttr;
    rel.attr = r;
    out.push_back(std::move(rel));
  }
  for (const TempRelation& r : ctx.temp_rels) {
    if (r.left_pattern == r.right_pattern) {
      continue;
    }
    Relationship rel;
    rel.kind = Relationship::Kind::kTemp;
    rel.temp = r;
    out.push_back(std::move(rel));
  }
  return out;
}

}  // namespace aiql
