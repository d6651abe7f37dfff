// Tuple sets: the intermediate result representation of Algorithm 1.
//
// A TupleSet binds a subset of the query's event patterns to concrete matched
// events; each row is one joint assignment. Rows live in one flat EventView
// array with stride = pattern count (At(row, col), Row(row)); a fetch moves in
// as a one-column set (FromMatches). The map M of Algorithm 1 maps pattern
// ids to shared tuple sets; joins produce new sets which every pattern of
// both inputs then maps to (replaceVals in the paper's pseudocode), filters
// narrow a set in place, compacting in stride.
#ifndef AIQL_SRC_CORE_TUPLE_SET_H_
#define AIQL_SRC_CORE_TUPLE_SET_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/eval.h"
#include "src/storage/data_query.h"
#include "src/util/result.h"

namespace aiql {

// Cardinality guard for query execution, plus the run's stop check at a
// fixed row cadence. The paper's baseline measurements cap queries at one
// hour; benches use much smaller budgets. `stop` (optional, not owned) is the
// run's ScanContext: joins abort at the next check after it is cancelled or
// its deadline passes.
class BudgetGuard {
 public:
  // The stop context is checked once per this many produced or visited rows.
  static constexpr size_t kStopCheckRows = 1024;

  BudgetGuard() = default;
  BudgetGuard(size_t max_rows, const ScanContext* stop) : max_rows_(max_rows), stop_(stop) {}

  // Registers `produced` new intermediate rows; fails when over budget or
  // after cancellation.
  Status Charge(size_t produced);

  // Registers `rows` a join built, probed or tried without necessarily
  // producing anything, so a join whose probes mostly fail still stops
  // promptly. Visits never count toward the budget or rows_produced().
  Status Visit(size_t rows = 1) {
    since_stop_check_ += rows;
    if (since_stop_check_ < kStopCheckRows || stop_ == nullptr) {
      return Status::Ok();
    }
    since_stop_check_ = 0;
    return stop_->StopStatus();
  }

  size_t rows_produced() const { return rows_; }

 private:
  size_t max_rows_ = 0;  // 0 = unlimited
  size_t rows_ = 0;
  size_t since_stop_check_ = 0;
  const ScanContext* stop_ = nullptr;
};

class TupleSet {
 public:
  TupleSet() = default;
  // Rows over `patterns`, flattened: `events` holds each row's one event per
  // pattern, in pattern order, row after row.
  TupleSet(std::vector<size_t> patterns, std::vector<EventView> events)
      : patterns_(std::move(patterns)), events_(std::move(events)) {}

  // The one-column set of a pattern's fetched events (moved, not copied).
  static TupleSet FromMatches(size_t pattern, std::vector<EventView> matches) {
    return TupleSet({pattern}, std::move(matches));
  }

  const std::vector<size_t>& patterns() const { return patterns_; }
  size_t width() const { return patterns_.size(); }
  // A pattern-less set has no rows.
  size_t num_rows() const { return patterns_.empty() ? 0 : events_.size() / patterns_.size(); }
  const EventView& At(size_t row, size_t col) const { return events_[row * width() + col]; }
  std::span<const EventView> Row(size_t row) const {
    return {events_.data() + row * width(), width()};
  }

  // Column of `pattern` in each row; -1 if the pattern is not bound.
  int ColumnOf(size_t pattern) const;

  // In-place filter by a relationship whose two patterns are both bound.
  void Filter(const Relationship& rel, const EntityCatalog& catalog);

 private:
  std::vector<size_t> patterns_;
  std::vector<EventView> events_;  // num_rows() x width(), row-major
};

// Join strategy. The AIQL engine (indexed) uses hash joins for equality
// relationships and time-sorted binary-search joins for temporal ones; the
// big-join baseline (PostgreSQL-scheduling model) uses nested loops
// throughout, modeling the misplanned monolithic join the paper measures
// when a semantics-agnostic planner faces many mixed join constraints
// (paper §5.1: "indeterministic optimizations ... often causes the execution
// to last for minutes or even hours", §6.2.2).
struct JoinStrategy {
  bool indexed = true;
};

class TupleJoiner {
 public:
  TupleJoiner(const EntityCatalog& catalog, BudgetGuard* budget, JoinStrategy strategy)
      : catalog_(catalog), budget_(budget), strategy_(strategy) {}

  // Joins two disjoint tuple sets under `rels` (every rel must connect a
  // pattern of `left` with one of `right`). An empty `rels` is a cross join.
  Result<TupleSet> Join(const TupleSet& left, const TupleSet& right,
                        const std::vector<Relationship>& rels);

 private:
  // A relationship with both endpoints resolved, once per join, to columns of
  // the joined row (left's columns, then right's).
  struct BoundRel {
    const Relationship* rel;
    size_t left_col, right_col;
  };

  // The (left row, right row) pairs a join emits, in emit order.
  using RowPairs = std::vector<std::pair<size_t, size_t>>;

  Status HashJoin(const TupleSet& left, const TupleSet& right, const Relationship& eq_rel,
                  const std::vector<BoundRel>& rest, RowPairs* out);
  Status TemporalJoin(const TupleSet& left, const TupleSet& right, const Relationship& temp_rel,
                      const std::vector<BoundRel>& rest, RowPairs* out);
  Status NestedLoopJoin(const TupleSet& left, const TupleSet& right,
                        const std::vector<BoundRel>& rels, RowPairs* out);

  bool RowPairSatisfies(const std::vector<BoundRel>& rels, std::span<const EventView> lrow,
                        std::span<const EventView> rrow) const;

  const EntityCatalog& catalog_;
  BudgetGuard* budget_;
  JoinStrategy strategy_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_TUPLE_SET_H_
