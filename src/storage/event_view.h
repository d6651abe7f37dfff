// Columnar event storage (structure-of-arrays) and the EventView handle.
//
// The AIQL hot path touches only 2-3 event attributes per query (op, time,
// one entity side); a row-oriented std::vector<Event> pays the full 64-byte
// row for every predicate evaluation. EventColumns stores each attribute in
// its own parallel vector so the vectorized scan (src/storage/partition.cc)
// streams exactly the columns a query constrains.
//
// EventColumns is the only in-memory form of a stored event: partitions
// append into it at ingest and reorder it at Finalize, and the
// property-graph baseline imports its events into one. `Event` is only the
// ingest argument and the Materialize output.
//
// EventView is the engine-wide currency for a matched event: a two-word
// (columns, row) handle. Joins, tuple sets, and projection consume
// EventViews without ever materializing Event copies.
#ifndef AIQL_SRC_STORAGE_EVENT_VIEW_H_
#define AIQL_SRC_STORAGE_EVENT_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/storage/event.h"

namespace aiql {

// std::allocator whose value-less construct default-initialises: resize(n)
// on a vector of scalars leaves the new elements uninitialised instead of
// zero-filling them. The archive decode (DecodeColumn) and the Finalize
// gather size a column and then write every value, so the zero-fill would be
// a wasted pass.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using EventColumn = std::vector<T, DefaultInitAllocator<T>>;

// One event column per Event field, each independently encodable and
// decodable (the archive tier keeps one encoded block list per column).
enum class EventColumnId : uint8_t {
  kId = 0,
  kSeq = 1,
  kAgentId = 2,
  kOp = 3,
  kObjectType = 4,
  kSubjectIdx = 5,
  kObjectIdx = 6,
  kStartTime = 7,
  kEndTime = 8,
  kAmount = 9,
  kFailureCode = 10,
};

inline constexpr int kNumEventColumns = 11;
using EventColumnMask = uint16_t;
inline constexpr EventColumnMask kAllEventColumns = (1u << kNumEventColumns) - 1;

constexpr EventColumnMask ColumnBit(EventColumnId c) {
  return static_cast<EventColumnMask>(1u << static_cast<int>(c));
}

// Parallel per-attribute columns; row i across all vectors is one event.
struct EventColumns {
  EventColumn<int64_t> id;
  EventColumn<int64_t> seq;
  EventColumn<AgentId> agent_id;
  EventColumn<Operation> op;
  EventColumn<EntityType> object_type;
  EventColumn<uint32_t> subject_idx;
  EventColumn<uint32_t> object_idx;
  EventColumn<TimestampMs> start_time;
  EventColumn<TimestampMs> end_time;
  EventColumn<int64_t> amount;
  EventColumn<int32_t> failure_code;

  // The one list of the columns: calls fn(id, column, field) for each, in
  // EventColumnId order, where `column` is the EventColumns member and
  // `field` the Event member it stores. Every per-column loop (reserve,
  // append, the Finalize gather, encode, decode, zone maps, scan filters)
  // goes through it.
  template <typename Fn>
  static void ForEachColumn(Fn&& fn) {
    fn(EventColumnId::kId, &EventColumns::id, &Event::id);
    fn(EventColumnId::kSeq, &EventColumns::seq, &Event::seq);
    fn(EventColumnId::kAgentId, &EventColumns::agent_id, &Event::agent_id);
    fn(EventColumnId::kOp, &EventColumns::op, &Event::op);
    fn(EventColumnId::kObjectType, &EventColumns::object_type, &Event::object_type);
    fn(EventColumnId::kSubjectIdx, &EventColumns::subject_idx, &Event::subject_idx);
    fn(EventColumnId::kObjectIdx, &EventColumns::object_idx, &Event::object_idx);
    fn(EventColumnId::kStartTime, &EventColumns::start_time, &Event::start_time);
    fn(EventColumnId::kEndTime, &EventColumns::end_time, &Event::end_time);
    fn(EventColumnId::kAmount, &EventColumns::amount, &Event::amount);
    fn(EventColumnId::kFailureCode, &EventColumns::failure_code, &Event::failure_code);
  }

  size_t size() const { return start_time.size(); }
  bool empty() const { return start_time.empty(); }

  void Reserve(size_t n) {
    ForEachColumn([&](EventColumnId, auto column, auto) { (this->*column).reserve(n); });
  }

  void Append(const Event& e) {
    ForEachColumn(
        [&](EventColumnId, auto column, auto field) { (this->*column).push_back(e.*field); });
  }

  Event Materialize(uint32_t row) const {
    Event e;
    ForEachColumn(
        [&](EventColumnId, auto column, auto field) { e.*field = (this->*column)[row]; });
    return e;
  }
};

// Cheap handle to one stored event: a row of an EventColumns table (a
// partition's columns, a decode-cache entry's, or the property graph's
// imported events). Identity (equality) is the (table, row) slot.
class EventView {
 public:
  EventView() = default;
  EventView(const EventColumns* cols, uint32_t row) : cols_(cols), row_(row) {}

  bool valid() const { return cols_ != nullptr; }

  int64_t id() const { return cols_->id[row_]; }
  int64_t seq() const { return cols_->seq[row_]; }
  AgentId agent_id() const { return cols_->agent_id[row_]; }
  Operation op() const { return cols_->op[row_]; }
  EntityType object_type() const { return cols_->object_type[row_]; }
  uint32_t subject_idx() const { return cols_->subject_idx[row_]; }
  uint32_t object_idx() const { return cols_->object_idx[row_]; }
  TimestampMs start_time() const { return cols_->start_time[row_]; }
  TimestampMs end_time() const { return cols_->end_time[row_]; }
  int64_t amount() const { return cols_->amount[row_]; }
  int32_t failure_code() const { return cols_->failure_code[row_]; }

  Event Materialize() const { return cols_->Materialize(row_); }

  bool operator==(const EventView& o) const { return cols_ == o.cols_ && row_ == o.row_; }

 private:
  const EventColumns* cols_ = nullptr;
  uint32_t row_ = 0;
};

// Tuple sets hold rows of EventViews; keep the handle two words wide.
static_assert(sizeof(EventView) == 16);

// The engine-wide result ordering contract: every EventStore returns matches
// sorted by (start_time, id). Stores emit partition/morsel results in time
// order and merge the runs (MergeSortedRuns in database.h).
inline bool EventViewTimeIdLess(const EventView& a, const EventView& b) {
  return a.start_time() != b.start_time() ? a.start_time() < b.start_time() : a.id() < b.id();
}

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_EVENT_VIEW_H_
