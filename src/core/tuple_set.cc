#include "src/core/tuple_set.h"

#include <algorithm>
#include <unordered_map>

namespace aiql {

Status BudgetGuard::Charge(size_t produced) {
  rows_ += produced;
  if (max_rows_ != 0 && rows_ > max_rows_) {
    return Status::Error("execution budget exceeded: intermediate results over " +
                         std::to_string(max_rows_) + " rows");
  }
  return Visit(produced);
}

int TupleSet::ColumnOf(size_t pattern) const {
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i] == pattern) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void TupleSet::Filter(const Relationship& rel, const EntityCatalog& catalog) {
  int lcol = ColumnOf(rel.left());
  int rcol = ColumnOf(rel.right());
  if (lcol < 0 || rcol < 0) {
    return;
  }
  const size_t n = num_rows();
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    if (rel.Check(At(r, lcol), At(r, rcol), catalog)) {
      if (w != r) {
        std::copy_n(events_.begin() + r * width(), width(), events_.begin() + w * width());
      }
      ++w;
    }
  }
  events_.resize(w * width());
}

bool TupleJoiner::RowPairSatisfies(const std::vector<BoundRel>& rels,
                                   std::span<const EventView> lrow,
                                   std::span<const EventView> rrow) const {
  auto at = [&](size_t col) -> const EventView& {
    return col < lrow.size() ? lrow[col] : rrow[col - lrow.size()];
  };
  for (const BoundRel& b : rels) {
    if (!b.rel->Check(at(b.left_col), at(b.right_col), catalog_)) {
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
  const int drive = strategy_.indexed ? (eq_idx >= 0 ? eq_idx : temp_idx) : -1;
  // Every relationship but the driving one is checked per row pair.
  auto joined_col = [&](size_t pattern) {
    const int lc = left.ColumnOf(pattern);
    return lc >= 0 ? static_cast<size_t>(lc)
                   : left.width() + static_cast<size_t>(right.ColumnOf(pattern));
  };
  std::vector<BoundRel> checked;
  for (size_t i = 0; i < rels.size(); ++i) {
    if (static_cast<int>(i) != drive) {
      checked.push_back(
          BoundRel{&rels[i], joined_col(rels[i].left()), joined_col(rels[i].right())});
    }
  }
  RowPairs pairs;
  Status s = drive < 0        ? NestedLoopJoin(left, right, checked, &pairs)
             : drive == eq_idx ? HashJoin(left, right, rels[drive], checked, &pairs)
                               : TemporalJoin(left, right, rels[drive], checked, &pairs);
  if (!s.ok()) {
    return Result<TupleSet>(s);
  }
  // The one emit step: left's patterns then right's, and per pair the left
  // row then the right row, written once into an array of the final size.
  std::vector<size_t> patterns = left.patterns();
  patterns.insert(patterns.end(), right.patterns().begin(), right.patterns().end());
  std::vector<EventView> events;
  events.reserve(pairs.size() * patterns.size());
  for (const auto& [i, j] : pairs) {
    const std::span<const EventView> lrow = left.Row(i);
    const std::span<const EventView> rrow = right.Row(j);
    events.insert(events.end(), lrow.begin(), lrow.end());
    events.insert(events.end(), rrow.begin(), rrow.end());
  }
  return TupleSet(std::move(patterns), std::move(events));
}

Status TupleJoiner::HashJoin(const TupleSet& left, const TupleSet& right,
                             const Relationship& eq_rel, const std::vector<BoundRel>& rest,
                             RowPairs* out) {
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
  const size_t num_right = right.num_rows();
  buckets.reserve(num_right * 2);
  for (size_t j = 0; j < num_right; ++j) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return s;
    }
    Value v = EndpointValue(right.At(j, rcol), rside, rattr, catalog_);
    buckets[v.Hash()].push_back(j);
  }

  const size_t num_left = left.num_rows();
  for (size_t i = 0; i < num_left; ++i) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return s;
    }
    const std::span<const EventView> lrow = left.Row(i);
    Value lv = EndpointValue(lrow[lcol], lside, lattr, catalog_);
    auto it = buckets.find(lv.Hash());
    if (it == buckets.end()) {
      continue;
    }
    for (size_t j : it->second) {
      if (Status s = budget_->Visit(); !s.ok()) {
        return s;
      }
      const std::span<const EventView> rrow = right.Row(j);
      Value rv = EndpointValue(rrow[rcol], rside, rattr, catalog_);
      if (!(lv == rv) || !RowPairSatisfies(rest, lrow, rrow)) {
        continue;  // a hash collision, or a remaining relationship fails
      }
      if (Status s = budget_->Charge(1); !s.ok()) {
        return s;
      }
      out->emplace_back(i, j);
    }
  }
  return Status::Ok();
}

Status TupleJoiner::TemporalJoin(const TupleSet& left, const TupleSet& right,
                                 const Relationship& temp_rel, const std::vector<BoundRel>& rest,
                                 RowPairs* out) {
  const TempRelation& rel = temp_rel.temp;
  bool left_has_lhs = left.ColumnOf(rel.left_pattern) >= 0;
  int lcol = left.ColumnOf(left_has_lhs ? rel.left_pattern : rel.right_pattern);
  int rcol = right.ColumnOf(left_has_lhs ? rel.right_pattern : rel.left_pattern);

  // Sort right rows by the joined pattern's start time, the row index
  // breaking ties (a stable order); per left row, binary search the
  // admissible window.
  std::vector<std::pair<TimestampMs, size_t>> by_time(right.num_rows());
  for (size_t j = 0; j < by_time.size(); ++j) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return s;  // before paying for the sort
    }
    by_time[j] = {right.At(j, rcol).start_time(), j};
  }
  std::sort(by_time.begin(), by_time.end());
  auto before = [](const std::pair<TimestampMs, size_t>& p, TimestampMs t) { return p.first < t; };

  const size_t num_left = left.num_rows();
  for (size_t i = 0; i < num_left; ++i) {
    if (Status s = budget_->Visit(); !s.ok()) {
      return s;
    }
    // The right event's admissible start times given the left event; the
    // right side holds rel.left exactly when the left side does not.
    const std::span<const EventView> lrow = left.Row(i);
    const TimestampMs lt = lrow[lcol].start_time();
    const TimeRange window = TempStartWindow(rel, !left_has_lhs, lt, lt);
    auto first = std::lower_bound(by_time.begin(), by_time.end(), window.begin, before);
    auto last = std::lower_bound(first, by_time.end(), window.end, before);
    for (auto it = first; it != last; ++it) {
      if (Status s = budget_->Visit(); !s.ok()) {
        return s;
      }
      const std::span<const EventView> rrow = right.Row(it->second);
      // Re-check the driving relationship exactly (lo=0 'within' etc.).
      const EventView& le = left_has_lhs ? lrow[lcol] : rrow[rcol];
      const EventView& re = left_has_lhs ? rrow[rcol] : lrow[lcol];
      if (!CheckTempRel(rel, le, re) || !RowPairSatisfies(rest, lrow, rrow)) {
        continue;
      }
      if (Status s = budget_->Charge(1); !s.ok()) {
        return s;
      }
      out->emplace_back(i, it->second);
    }
  }
  return Status::Ok();
}

Status TupleJoiner::NestedLoopJoin(const TupleSet& left, const TupleSet& right,
                                   const std::vector<BoundRel>& rels, RowPairs* out) {
  const size_t num_left = left.num_rows();
  const size_t num_right = right.num_rows();
  for (size_t i = 0; i < num_left; ++i) {
    const std::span<const EventView> lrow = left.Row(i);
    for (size_t j = 0; j < num_right; ++j) {
      // The nested loop pays for every comparison — this is the cost model of
      // the semantics-agnostic baseline.
      if (Status s = budget_->Charge(1); !s.ok()) {
        return s;
      }
      if (RowPairSatisfies(rels, lrow, right.Row(j))) {
        out->emplace_back(i, j);
      }
    }
  }
  return Status::Ok();
}

}  // namespace aiql
