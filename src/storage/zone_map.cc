#include "src/storage/zone_map.h"

namespace aiql {

ZoneMap::ZoneMap(const EventColumns& cols, const PostingIndex& subjects,
                 const PostingIndex& objects)
    : ZoneMap() {
  if (cols.empty()) {
    return;
  }
  EventColumns::ForEachColumn([&](EventColumnId c, auto column, auto) {
    const auto& v = cols.*column;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    min[static_cast<int>(c)] = static_cast<int64_t>(*lo);
    max[static_cast<int>(c)] = static_cast<int64_t>(*hi);
  });
  for (Operation op : cols.op) {
    op_mask |= OpBit(op);
  }
  for (EntityType t : cols.object_type) {
    object_type_mask |= static_cast<uint8_t>(1u << static_cast<int>(t));
  }
  // A linear dedupe, not a sort of the column: a partition holds one agent
  // group, so a row costs a compare with the previous row's agent and, when
  // the agent changes, a binary search of the few agents found so far.
  AgentId last = cols.agent_id[0];
  agents.push_back(last);
  for (AgentId a : cols.agent_id) {
    if (a == last) {
      continue;
    }
    last = a;
    const auto it = std::lower_bound(agents.begin(), agents.end(), a);
    if (it == agents.end() || *it != a) {
      agents.insert(it, a);
    }
  }
  agents.shrink_to_fit();

  subject_bloom.Build(subjects.keys.size());
  for (uint64_t key : subjects.keys) {
    subject_bloom.Add(key);
  }
  object_bloom.Build(objects.keys.size());
  for (uint64_t key : objects.keys) {
    object_bloom.Add(key);
  }
}

CandidateSummary CandidateSummary::For(const std::unordered_set<uint32_t>& set) {
  CandidateSummary s;
  s.set = &set;
  s.min_idx = UINT32_MAX;
  s.max_idx = 0;
  for (uint32_t idx : set) {
    s.min_idx = std::min(s.min_idx, idx);
    s.max_idx = std::max(s.max_idx, idx);
  }
  s.bloom_probe = set.size() <= kEntityBloomProbeLimit;
  return s;
}

bool ZoneMap::MayContainSubject(const CandidateSummary& s) const {
  if (s.max_idx < MinOf(EventColumnId::kSubjectIdx) ||
      s.min_idx > MaxOf(EventColumnId::kSubjectIdx)) {
    return false;
  }
  if (s.bloom_probe && !subject_bloom.empty()) {
    for (uint32_t idx : *s.set) {
      if (subject_bloom.MayContain(idx)) {
        return true;
      }
    }
    return false;
  }
  return true;
}

bool ZoneMap::MayContainObject(const CandidateSummary& s, EntityType object_type) const {
  if (s.max_idx < MinOf(EventColumnId::kObjectIdx) ||
      s.min_idx > MaxOf(EventColumnId::kObjectIdx)) {
    return false;
  }
  if (s.bloom_probe && !object_bloom.empty()) {
    for (uint32_t idx : *s.set) {
      if (object_bloom.MayContain(PackObjectKey(object_type, idx))) {
        return true;
      }
    }
    return false;
  }
  return true;
}

bool ColumnFilter::Matches(int64_t v) const {
  switch (op) {
    case CmpOp::kEq:
      return v == value;
    case CmpOp::kNe:
      return v != value;
    case CmpOp::kLt:
      return v < value;
    case CmpOp::kLe:
      return v <= value;
    case CmpOp::kGt:
      return v > value;
    case CmpOp::kGe:
      return v >= value;
    case CmpOp::kIn:
      return values != nullptr && values->count(v) > 0;
    case CmpOp::kNotIn:
      return values == nullptr || values->count(v) == 0;
    default:
      return false;
  }
}

bool ColumnFilter::CanMatchRange(int64_t zone_min, int64_t zone_max) const {
  if (zone_min > zone_max) {
    return false;  // empty partition
  }
  switch (op) {
    case CmpOp::kEq:
      return zone_min <= value && value <= zone_max;
    case CmpOp::kNe:
      return !(zone_min == zone_max && zone_min == value);
    case CmpOp::kLt:
      return zone_min < value;
    case CmpOp::kLe:
      return zone_min <= value;
    case CmpOp::kGt:
      return zone_max > value;
    case CmpOp::kGe:
      return zone_max >= value;
    case CmpOp::kIn: {
      if (values == nullptr) {
        return false;
      }
      for (int64_t v : *values) {
        if (zone_min <= v && v <= zone_max) {
          return true;
        }
      }
      return false;
    }
    case CmpOp::kNotIn: {
      if (values == nullptr) {
        return true;
      }
      // More distinct values in the zone range than excluded values: some
      // value in range survives. Otherwise check the (small) range directly.
      uint64_t span = static_cast<uint64_t>(zone_max - zone_min);
      if (span >= values->size()) {
        return true;
      }
      for (int64_t v = zone_min; v <= zone_max; ++v) {
        if (values->count(v) == 0) {
          return true;
        }
      }
      return false;
    }
    default:
      return true;  // not a vectorized op; never pruned on
  }
}

bool ColumnFilter::AlwaysTrueOnRange(int64_t zone_min, int64_t zone_max) const {
  if (zone_min > zone_max) {
    return true;  // vacuous
  }
  switch (op) {
    case CmpOp::kEq:
      return zone_min == zone_max && zone_min == value;
    case CmpOp::kNe:
      return value < zone_min || value > zone_max;
    case CmpOp::kLt:
      return zone_max < value;
    case CmpOp::kLe:
      return zone_max <= value;
    case CmpOp::kGt:
      return zone_min > value;
    case CmpOp::kGe:
      return zone_min >= value;
    case CmpOp::kIn: {
      if (values == nullptr) {
        return false;
      }
      uint64_t span = static_cast<uint64_t>(zone_max - zone_min);
      if (span >= values->size()) {
        return false;
      }
      for (int64_t v = zone_min; v <= zone_max; ++v) {
        if (values->count(v) == 0) {
          return false;
        }
      }
      return true;
    }
    case CmpOp::kNotIn: {
      if (values == nullptr) {
        return true;
      }
      for (int64_t v : *values) {
        if (zone_min <= v && v <= zone_max) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

namespace {

// Exact-match op bit for a predicate value: the schema renders operations
// as lowercase names and Value equality on strings is case-sensitive, so only
// the exact lowercase spelling can ever match a row.
std::optional<Operation> ExactOperationFor(const Value& v) {
  if (!v.is_string()) {
    return std::nullopt;
  }
  for (int i = 0; i < kNumOperations; ++i) {
    Operation op = static_cast<Operation>(i);
    if (v.as_string() == OperationName(op)) {
      return op;
    }
  }
  return std::nullopt;
}

// Tries to fold an optype leaf into an op-mask refinement. Returns false when
// the leaf must stay in the residual.
bool TryCompileOptype(const AttrPredicate& leaf, OpMask* mask) {
  switch (leaf.op) {
    case CmpOp::kEq: {
      if (leaf.values.empty()) {
        return false;
      }
      std::optional<Operation> op = ExactOperationFor(leaf.values[0]);
      *mask &= op.has_value() ? OpBit(*op) : OpMask{0};
      return true;
    }
    case CmpOp::kNe: {
      if (leaf.values.empty()) {
        return false;
      }
      std::optional<Operation> op = ExactOperationFor(leaf.values[0]);
      if (op.has_value()) {
        *mask &= static_cast<OpMask>(kAllOps & ~OpBit(*op));
      }
      return true;  // unknown name: != is true for every row, leaf drops out
    }
    case CmpOp::kIn: {
      OpMask in_mask = 0;
      for (const Value& v : leaf.values) {
        std::optional<Operation> op = ExactOperationFor(v);
        if (op.has_value()) {
          in_mask |= OpBit(*op);
        }
      }
      *mask &= in_mask;
      return true;
    }
    case CmpOp::kNotIn: {
      OpMask excluded = 0;
      for (const Value& v : leaf.values) {
        std::optional<Operation> op = ExactOperationFor(v);
        if (op.has_value()) {
          excluded |= OpBit(*op);
        }
      }
      *mask &= static_cast<OpMask>(kAllOps & ~excluded);
      return true;
    }
    default:
      return false;  // LIKE and ordered comparisons on names stay residual
  }
}

// Tries to turn a leaf over a numeric column into a ColumnFilter. Only exact
// integer comparisons compile: Value's mixed-type semantics (string/double
// coercions) are preserved by leaving everything else in the residual.
bool TryCompileNumeric(const AttrPredicate& leaf, EventColumnId col,
                       std::vector<ColumnFilter>* filters) {
  switch (leaf.op) {
    case CmpOp::kEq:
    case CmpOp::kNe:
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe: {
      if (leaf.values.size() != 1 || !leaf.values[0].is_int()) {
        return false;
      }
      filters->push_back(ColumnFilter{col, leaf.op, leaf.values[0].as_int(), nullptr});
      return true;
    }
    case CmpOp::kIn:
    case CmpOp::kNotIn: {
      for (const Value& v : leaf.values) {
        if (!v.is_int()) {
          return false;
        }
      }
      if (leaf.op == CmpOp::kNotIn && leaf.values.empty()) {
        return true;  // NOT IN () is true for every row; drops out
      }
      auto set = std::make_shared<std::unordered_set<int64_t>>();
      set->reserve(leaf.values.size() * 2);
      for (const Value& v : leaf.values) {
        set->insert(v.as_int());
      }
      filters->push_back(ColumnFilter{col, leaf.op, 0, std::move(set)});
      return true;
    }
    default:
      return false;
  }
}

void CompileConjunct(const PredExpr& e, CompiledEventPred* out) {
  switch (e.kind()) {
    case PredExpr::Kind::kTrue:
      return;
    case PredExpr::Kind::kAnd:
      for (const PredExpr& c : e.children()) {
        CompileConjunct(c, out);
      }
      return;
    case PredExpr::Kind::kLeaf: {
      const AttrPredicate& leaf = e.leaf();
      // The op column folds into the op mask; every other column stores
      // integers that read as int Values.
      const AttrDef* attr = FindAttr(AttrOwner::kEvent, leaf.attr);
      if (attr != nullptr && attr->column.has_value() &&
          (*attr->column == EventColumnId::kOp
               ? TryCompileOptype(leaf, &out->op_mask)
               : TryCompileNumeric(leaf, *attr->column, &out->filters))) {
        return;
      }
      out->residual.And(e, AttrOwner::kEvent);
      return;
    }
    default:  // kOr / kNot subtrees are not conjunctive; keep them whole
      out->residual.And(e, AttrOwner::kEvent);
      return;
  }
}

}  // namespace

CompiledEventPred CompileEventPred(const PredExpr& pred) {
  CompiledEventPred out;
  CompileConjunct(pred, &out);
  return out;
}

}  // namespace aiql
