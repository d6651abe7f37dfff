// The data query: the unit of execution the AIQL engine synthesizes for each
// event pattern (paper §5.1, Fig 3).
//
// A data query carries the pattern's static constraints (operation set, time
// range, agent constraint, subject/object/event predicates), the candidate
// entities the executor resolved from its subject/object predicates, plus
// optional *pushed-down* constraints supplied by the relationship-based
// scheduler (Algorithm 1), derived from already-executed patterns: candidate
// sets narrowed to the entities the known side binds, `IN` predicates
// conjoined onto the event predicate, and a narrowed time range. Pushdown is
// what "execute q_j under S_i" means in the paper.
#ifndef AIQL_SRC_STORAGE_DATA_QUERY_H_
#define AIQL_SRC_STORAGE_DATA_QUERY_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/storage/event.h"
#include "src/storage/event_view.h"
#include "src/storage/predicate.h"
#include "src/util/result.h"
#include "src/util/time_utils.h"

namespace aiql {

// The columns the engine reads from every emitted EventView whatever the
// query says: MergeSortedRuns orders by (start_time, id), and joins,
// pushdown, projection and anomaly windows read the entity references and
// start_time.
inline constexpr EventColumnMask kEmitBaseColumns =
    ColumnBit(EventColumnId::kId) | ColumnBit(EventColumnId::kStartTime) |
    ColumnBit(EventColumnId::kSubjectIdx) | ColumnBit(EventColumnId::kObjectIdx) |
    ColumnBit(EventColumnId::kObjectType);

// The two entity sides of an event pattern.
enum class EntitySide : uint8_t { kSubject, kObject };

// The candidate entities of one side of a data query: the catalog indices
// its predicate selects, possibly intersected by pushdown.
struct EntityCandidates {
  std::vector<uint32_t> ids;  // catalog indices, ascending
  // Events that reference the candidates on this side (the executor's row
  // estimate; see EntityCatalog::SubjectEvents / ObjectEvents).
  uint64_t events = 0;
  // True when pushdown narrowed the set. Un-narrowed candidates are a
  // function of the predicate and the catalog's generation, which the plan
  // cache key already carries; narrowed ones are keyed by their ids.
  bool narrowed = false;
};

struct DataQuery {
  // --- static constraints (from the event pattern) ---
  OpMask op_mask = kAllOps;
  EntityType object_type = EntityType::kFile;
  std::optional<std::vector<AgentId>> agent_ids;  // spatial constraint
  TimeRange time;                                 // temporal constraint
  PredExpr subject_pred;                          // over process attributes
  PredExpr object_pred;                           // over object attributes
  PredExpr event_pred;                            // over event attributes

  // --- resolved candidates (from the executor) ---
  // Null: PlanQuery resolves the side's predicate itself (an unconstrained
  // side stays unconstrained). Set: the side matches these entities only,
  // and its predicate is not evaluated again.
  std::shared_ptr<const EntityCandidates> subject_candidates;
  std::shared_ptr<const EntityCandidates> object_candidates;

  // --- pushed-down constraint (from Algorithm 1 scheduling; pushed-down
  // entities narrow the candidates above, pushed-down event attribute values
  // arrive as an `IN` predicate in event_pred) ---
  std::optional<TimeRange> pushed_time;

  // --- emission ---
  // The event columns a consumer may read through the EventViews this query
  // returns. An archived partition decodes only these (plus the columns its
  // filters need) before it emits a row; reading any other column of an
  // emitted view is a bug. Inference narrows it to kEmitBaseColumns plus the
  // event attributes the query context references; a hand-built query keeps
  // every column.
  EventColumnMask columns = kAllEventColumns;

  // The candidates of `side`.
  const std::shared_ptr<const EntityCandidates>& candidates(EntitySide side) const {
    return side == EntitySide::kSubject ? subject_candidates : object_candidates;
  }
  std::shared_ptr<const EntityCandidates>& candidates(EntitySide side) {
    return side == EntitySide::kSubject ? subject_candidates : object_candidates;
  }

  // Number of static constraints; the pruning score of the pattern.
  size_t CountConstraints() const {
    size_t n = subject_pred.CountConstraints() + object_pred.CountConstraints() +
               event_pred.CountConstraints();
    if (agent_ids.has_value()) {
      ++n;
    }
    if (time.bounded()) {
      ++n;
    }
    if (op_mask != kAllOps) {
      ++n;
    }
    return n;
  }

  TimeRange EffectiveTime() const {
    return pushed_time.has_value() ? time.Intersect(*pushed_time) : time;
  }
};

// Execution statistics, surfaced for tests, ablations, and EXPERIMENTS.md.
// Every field except parallel_morsels is invariant under the execution
// strategy: serial, pooled, and day-split scans of the same query
// aggregate to identical counts (asserted by tests/parallel_scan_test.cc).
// ARCHITECTURE.md ("ScanStats reference") documents each field in detail.
struct ScanStats {
  uint64_t events_scanned = 0;    // events touched by any access path
  uint64_t events_matched = 0;
  uint64_t partitions_pruned = 0;  // partitions skipped (scheme keys or zone maps)
  uint64_t partitions_scanned = 0;
  uint64_t events_skipped = 0;     // events inside pruned partitions, never touched
  uint64_t index_lookups = 0;
  uint64_t parallel_morsels = 0;   // partitions a pooled scan queued
  // Of partitions_pruned: skipped because a subject/object candidate set
  // cannot intersect the partition's entity zone summary
  // (index range or bloom filter).
  uint64_t partitions_pruned_entity = 0;
  // Rows whose entity or agent membership probe was a dense-bitmap bit test
  // instead of a probe of the sorted set (counted once per row per bitmap
  // stage).
  uint64_t bitmap_probes = 0;
  // Archive tier (see partition.h). Unlike the counters above these depend on
  // decode-cache residency, not just the query: a partition whose decoded
  // columns are still alive from an earlier scan (cached or pinned) costs
  // nothing and counts nothing, so repeated scans report smaller values than
  // a cold scan.
  uint64_t partitions_decoded = 0;  // archived partitions with no live decode entry
  uint64_t archived_bytes = 0;      // encoded bytes of the columns decoded
  uint64_t decoded_bytes = 0;       // column bytes materialized by those decodes

  ScanStats& operator+=(const ScanStats& o) {
    events_scanned += o.events_scanned;
    events_matched += o.events_matched;
    partitions_pruned += o.partitions_pruned;
    partitions_scanned += o.partitions_scanned;
    events_skipped += o.events_skipped;
    index_lookups += o.index_lookups;
    parallel_morsels += o.parallel_morsels;
    partitions_pruned_entity += o.partitions_pruned_entity;
    bitmap_probes += o.bitmap_probes;
    partitions_decoded += o.partitions_decoded;
    archived_bytes += o.archived_bytes;
    decoded_bytes += o.decoded_bytes;
    return *this;
  }
};

// Default capacity of a ScanPlanCache (see plan_cache.h); lives here so
// EventStore::PlanCacheCapacity and DatabaseOptions::plan_cache_capacity can
// share it without an include cycle.
inline constexpr size_t kDefaultPlanCacheCapacity = 64;

// Keeps decoded archive columns alive past the scan that produced them.
// EventViews emitted from an archived partition point into a decode-cache
// entry (see DecodeCache in partition.h); cache eviction drops only the
// cache's reference, so any entry registered here stays valid until Clear().
// The engine parks one ColumnPins per ExecutionSession and clears it after
// projection — the whole multievent execution consumes views safely even when
// its working set exceeds the decode-cache capacity. Thread-safe: scan
// workers register pins concurrently.
class ColumnPins {
 public:
  void Add(std::shared_ptr<const void> pin) {
    std::lock_guard<std::mutex> lock(mu_);
    pins_.push_back(std::move(pin));
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    pins_.clear();
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pins_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const void>> pins_;
};

// Per-run context threaded from the execution session into the storage scan
// loops, the join budget, and the graph matcher: the cooperative cancellation
// flag and run deadline (checked between partitions, never per row) and the
// decoded-column pin sink. It is the run's one stop check: every layer asks
// StopStatus() (or ShouldStop()) of the same context. All members are
// optional; a null/defaulted context scans to completion and leaves decoded
// columns pinned only by decode-cache residency.
struct ScanContext {
  const std::atomic<bool>* cancel = nullptr;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  ColumnPins* pins = nullptr;

  // Arms the deadline `budget_ms` from now; a budget <= 0 clears it.
  void ArmDeadline(int64_t budget_ms) {
    has_deadline = budget_ms > 0;
    if (has_deadline) {
      deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
    }
  }

  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  bool DeadlineExpired() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }
  // True when the scan should stop claiming work and return what it has.
  bool ShouldStop() const { return Cancelled() || DeadlineExpired(); }

  // The run's stop diagnostic: Ok, or the cancellation / time-budget error
  // every layer surfaces.
  Status StopStatus() const {
    if (Cancelled()) {
      return Status::Error("execution cancelled");
    }
    if (DeadlineExpired()) {
      return Status::Error("execution budget exceeded: time limit reached");
    }
    return Status::Ok();
  }
};

// Scan-scoped pin fallback, used by every scan entry point that merges
// results after scanning: when the caller supplied no pin sink, decoded
// archive columns must still outlive the entry point's own merge (a scan
// touching more archived partitions than the decode cache holds would
// otherwise evict an early partition's columns while its views await the
// merge). Wraps the caller's context with a local ColumnPins for the
// enclosing scope's lifetime; contexts that already carry a sink pass
// through untouched.
class ScanPinScope {
 public:
  explicit ScanPinScope(const ScanContext* caller) {
    if (caller != nullptr && caller->pins != nullptr) {
      ctx_ = caller;
      return;
    }
    if (caller != nullptr) {
      local_ = *caller;
    }
    local_.pins = &pins_;
    ctx_ = &local_;
  }
  ScanPinScope(const ScanPinScope&) = delete;
  ScanPinScope& operator=(const ScanPinScope&) = delete;

  const ScanContext* ctx() const { return ctx_; }

 private:
  ColumnPins pins_;
  ScanContext local_;
  const ScanContext* ctx_ = nullptr;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_DATA_QUERY_H_
