#include "src/core/eval.h"

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
