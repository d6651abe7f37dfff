#include "src/core/tuple_set.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace aiql {

Status BudgetGuard::Charge(size_t produced) {
  rows_ += produced;
  if (max_rows_ != 0 && rows_ > max_rows_) {
    return Status::Error("execution budget exceeded: intermediate results over " +
                         std::to_string(max_rows_) + " rows");
  }
  return Visit(produced);
}

TupleSet TupleSet::FromMatches(size_t pattern, std::vector<EventView> matches) {
  TupleSet t;
  t.patterns_.push_back(pattern);
  t.rows_.reserve(matches.size());
  for (const EventView& e : matches) {
    t.rows_.push_back({e});
  }
  return t;
}

int TupleSet::ColumnOf(size_t pattern) const {
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i] == pattern) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<EventView> TupleSet::DistinctEventsOf(size_t pattern) const {
  int col = ColumnOf(pattern);
  std::vector<EventView> out;
  if (col < 0) {
    return out;
  }
  std::unordered_set<EventView, EventViewHash> seen;
  for (const auto& row : rows_) {
    const EventView& e = row[col];
    if (seen.insert(e).second) {
      out.push_back(e);
    }
  }
  return out;
}

void TupleSet::Filter(const Relationship& rel, const EntityCatalog& catalog) {
  int lcol = ColumnOf(rel.left());
  int rcol = ColumnOf(rel.right());
  if (lcol < 0 || rcol < 0) {
    return;
  }
  size_t w = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (rel.Check(rows_[r][lcol], rows_[r][rcol], catalog)) {
      if (w != r) {
        rows_[w] = std::move(rows_[r]);
      }
      ++w;
    }
  }
  rows_.resize(w);
}

namespace {

std::vector<EventView> ConcatRows(const std::vector<EventView>& a,
                                  const std::vector<EventView>& b) {
  std::vector<EventView> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

bool TupleJoiner::RowPairSatisfies(const std::vector<Relationship>& rels, const TupleSet& left,
                                   const TupleSet& right, const std::vector<EventView>& lrow,
                                   const std::vector<EventView>& rrow) const {
  for (const Relationship& rel : rels) {
    int lc = left.ColumnOf(rel.left());
    const EventView& le = lc >= 0 ? lrow[lc] : rrow[right.ColumnOf(rel.left())];
    int rc = left.ColumnOf(rel.right());
    const EventView& re = rc >= 0 ? lrow[rc] : rrow[right.ColumnOf(rel.right())];
    if (!rel.Check(le, re, catalog_)) {
      return false;
    }
  }
  return true;
}

Result<TupleSet> TupleJoiner::Join(const TupleSet& left, const TupleSet& right,
                                   const std::vector<Relationship>& rels) {
  // Pick the cheapest driving relationship available under the strategy.
  int eq_idx = -1;
  int temp_idx = -1;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (rels[i].kind == Relationship::Kind::kAttr && rels[i].attr.IsEquiJoin() && eq_idx < 0) {
      eq_idx = static_cast<int>(i);
    }
    if (rels[i].kind == Relationship::Kind::kTemp && temp_idx < 0) {
      temp_idx = static_cast<int>(i);
    }
  }
  if (eq_idx >= 0 && strategy_.hash_equality) {
    std::vector<Relationship> rest;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (static_cast<int>(i) != eq_idx) {
        rest.push_back(rels[i]);
      }
    }
    return HashJoin(left, right, rels[eq_idx], rest);
  }
  if (temp_idx >= 0 && strategy_.temporal_index) {
    std::vector<Relationship> rest;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (static_cast<int>(i) != temp_idx) {
        rest.push_back(rels[i]);
      }
    }
    return TemporalJoin(left, right, rels[temp_idx], rest);
  }
  return NestedLoopJoin(left, right, rels);
}

Result<TupleSet> TupleJoiner::HashJoin(const TupleSet& left, const TupleSet& right,
                                       const Relationship& eq_rel,
                                       const std::vector<Relationship>& rest) {
  const AttrRelation& rel = eq_rel.attr;
  // Orient: which side of the relationship lives in `left`?
  bool left_has_lhs = left.ColumnOf(rel.left_pattern) >= 0;
  size_t lpat = left_has_lhs ? rel.left_pattern : rel.right_pattern;
  size_t rpat = left_has_lhs ? rel.right_pattern : rel.left_pattern;
  RefSide lside = left_has_lhs ? rel.left_side : rel.right_side;
  RefSide rside = left_has_lhs ? rel.right_side : rel.left_side;
  const AttrDef* lattr = left_has_lhs ? rel.left_attr : rel.right_attr;
  const AttrDef* rattr = left_has_lhs ? rel.right_attr : rel.left_attr;
  int lcol = left.ColumnOf(lpat);
  int rcol = right.ColumnOf(rpat);

  // Build on the right side, probe in left-row order for determinism.
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  buckets.reserve(right.rows().size() * 2);
  for (size_t j = 0; j < right.rows().size(); ++j) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return Result<TupleSet>(s);
    }
    Value v = EndpointValue(right.rows()[j][rcol], rside, rattr, catalog_);
    buckets[v.Hash()].push_back(j);
  }

  TupleSet out;
  out.patterns_ = left.patterns();
  out.patterns_.insert(out.patterns_.end(), right.patterns().begin(), right.patterns().end());
  for (const auto& lrow : left.rows()) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return Result<TupleSet>(s);
    }
    Value lv = EndpointValue(lrow[lcol], lside, lattr, catalog_);
    auto it = buckets.find(lv.Hash());
    if (it == buckets.end()) {
      continue;
    }
    for (size_t j : it->second) {
      if (Status s = budget_->Visit(); !s.ok()) {
        return Result<TupleSet>(s);
      }
      const auto& rrow = right.rows()[j];
      Value rv = EndpointValue(rrow[rcol], rside, rattr, catalog_);
      if (!(lv == rv)) {
        continue;  // hash collision
      }
      if (!rest.empty() && !RowPairSatisfies(rest, left, right, lrow, rrow)) {
        continue;
      }
      Status s = budget_->Charge(1);
      if (!s.ok()) {
        return Result<TupleSet>(s);
      }
      out.rows_.push_back(ConcatRows(lrow, rrow));
    }
  }
  return out;
}

Result<TupleSet> TupleJoiner::TemporalJoin(const TupleSet& left, const TupleSet& right,
                                           const Relationship& temp_rel,
                                           const std::vector<Relationship>& rest) {
  const TempRelation& rel = temp_rel.temp;
  bool left_has_lhs = left.ColumnOf(rel.left_pattern) >= 0;
  int lcol = left.ColumnOf(left_has_lhs ? rel.left_pattern : rel.right_pattern);
  int rcol = right.ColumnOf(left_has_lhs ? rel.right_pattern : rel.left_pattern);

  // Sort right rows by the joined pattern's start time; per left row, binary
  // search the admissible window.
  std::vector<size_t> order(right.rows().size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return Result<TupleSet>(s);  // before paying for the sort
    }
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return right.rows()[a][rcol].start_time() < right.rows()[b][rcol].start_time();
  });
  std::vector<TimestampMs> times(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    times[i] = right.rows()[order[i]][rcol].start_time();
  }

  // Admissible start-time interval of the right event given the left event.
  auto bounds = [&](TimestampMs lt) -> std::pair<TimestampMs, TimestampMs> {
    const DurationMs lo = rel.lo.value_or(0);
    const bool has_hi = rel.hi.has_value();
    const DurationMs hi = rel.hi.value_or(0);
    ast::TempOrder order_eff = rel.order;
    if (!left_has_lhs) {
      // The relationship reads "rel.left <order> rel.right" but the left
      // tuple set holds rel.right; flip the inequality.
      if (order_eff == ast::TempOrder::kBefore) {
        order_eff = ast::TempOrder::kAfter;
      } else if (order_eff == ast::TempOrder::kAfter) {
        order_eff = ast::TempOrder::kBefore;
      }
    }
    switch (order_eff) {
      case ast::TempOrder::kBefore:  // right strictly later than left
        return {lt + std::max<DurationMs>(lo, 1),
                has_hi ? lt + hi + 1 : INT64_MAX};
      case ast::TempOrder::kAfter:  // right strictly earlier than left
        return {has_hi ? lt - hi : INT64_MIN, lt - std::max<DurationMs>(lo, 1) + 1};
      case ast::TempOrder::kWithin:
        return {has_hi ? lt - hi : INT64_MIN, has_hi ? lt + hi + 1 : INT64_MAX};
    }
    return {INT64_MIN, INT64_MAX};
  };

  TupleSet out;
  out.patterns_ = left.patterns();
  out.patterns_.insert(out.patterns_.end(), right.patterns().begin(), right.patterns().end());
  for (const auto& lrow : left.rows()) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return Result<TupleSet>(s);
    }
    TimestampMs lt = lrow[lcol].start_time();
    auto [tmin, tmax] = bounds(lt);
    auto first = std::lower_bound(times.begin(), times.end(), tmin);
    auto last = std::lower_bound(times.begin(), times.end(), tmax);
    for (auto it = first; it != last; ++it) {
      if (Status s = budget_->Visit(); !s.ok()) {
        return Result<TupleSet>(s);
      }
      size_t j = order[static_cast<size_t>(it - times.begin())];
      const auto& rrow = right.rows()[j];
      // Re-check the driving relationship exactly (lo=0 'within' etc.).
      const EventView& le = left_has_lhs ? lrow[lcol] : rrow[rcol];
      const EventView& re = left_has_lhs ? rrow[rcol] : lrow[lcol];
      if (!CheckTempRel(rel, le, re)) {
        continue;
      }
      if (!rest.empty() && !RowPairSatisfies(rest, left, right, lrow, rrow)) {
        continue;
      }
      Status s = budget_->Charge(1);
      if (!s.ok()) {
        return Result<TupleSet>(s);
      }
      out.rows_.push_back(ConcatRows(lrow, rrow));
    }
  }
  return out;
}

Result<TupleSet> TupleJoiner::NestedLoopJoin(const TupleSet& left, const TupleSet& right,
                                             const std::vector<Relationship>& rels) {
  TupleSet out;
  out.patterns_ = left.patterns();
  out.patterns_.insert(out.patterns_.end(), right.patterns().begin(), right.patterns().end());
  for (const auto& lrow : left.rows()) {
    for (const auto& rrow : right.rows()) {
      // The nested loop pays for every comparison — this is the cost model of
      // the semantics-agnostic baseline.
      Status s = budget_->Charge(1);
      if (!s.ok()) {
        return Result<TupleSet>(s);
      }
      if (!rels.empty() && !RowPairSatisfies(rels, left, right, lrow, rrow)) {
        continue;
      }
      out.rows_.push_back(ConcatRows(lrow, rrow));
    }
  }
  return out;
}

}  // namespace aiql
