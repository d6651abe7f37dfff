// ScanPlanCache: compiled scan plans reused across repeated data-query
// executions (ROADMAP: "Reuse one ScanPlan across the executor's repeated
// fetches of the same pattern").
//
// Planning a data query (predicate compilation, candidate-entity resolution,
// partition pruning) is pure given a finalized database, so two queries with
// identical constraint sets produce identical plans. The prepare/bind/execute
// lifecycle runs the same pattern queries over and over — every Run of a
// BoundQuery, and every re-Bind whose parameter values leave the constraint
// set unchanged — and this cache lets those executions skip
// Database::PlanQuery entirely.
//
// An entry owns a deep copy of the DataQuery it was planned for (ScanPlan
// points into its owner, never at caller memory) plus the planning-phase
// ScanStats, which are replayed on every hit so cached and fresh executions
// report identical aggregate statistics. Entries hold Partition pointers and
// are valid until the database is re-finalized — the same lifetime contract
// as the EventViews a scan returns; PreparedQuery documents it.
//
// The cache is LRU-capped: since the plan began pinning per-survivor entity
// bitmaps, a long-lived PreparedQuery re-bound across many distinct time
// windows would otherwise accumulate entries without bound. Capacity comes
// from the store (EventStore::PlanCacheCapacity, i.e.
// DatabaseOptions::plan_cache_capacity). Eviction drops the cache's
// reference only — entries are shared_ptr, so in-flight scans keep theirs
// alive; ExecStats::plan_cache_evictions surfaces the eviction count.
#ifndef AIQL_SRC_STORAGE_PLAN_CACHE_H_
#define AIQL_SRC_STORAGE_PLAN_CACHE_H_

#include <memory>
#include <optional>
#include <string>

#include "src/storage/data_query.h"
#include "src/util/lru_cache.h"

namespace aiql {

struct ScanPlan;  // database.h

class ScanPlanCache {
 public:
  explicit ScanPlanCache(size_t capacity = kDefaultPlanCacheCapacity) : cache_(capacity) {}

  // A cached plan. `plan` is null when planning proved the query matches
  // nothing (caching the short-circuit is what makes repeated no-match
  // fetches free). Immutable once published.
  struct Entry {
    DataQuery query;  // owned copy; plan->query points here
    std::unique_ptr<const ScanPlan> plan;
    ScanStats planning_stats;  // pruning/index counters accrued while planning

    Entry();
    ~Entry();  // out-of-line: ScanPlan is incomplete here
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
  };

  // Returns the entry for `key` (bumping its recency), or nullptr.
  // Thread-safe.
  std::shared_ptr<const Entry> Find(const std::string& key) const { return cache_.Find(key); }

  // Publishes `entry` under `key` and returns the canonical entry — the
  // existing one when another thread won the race. Evicts least-recently-
  // used entries beyond capacity. Thread-safe.
  std::shared_ptr<const Entry> Insert(std::string key, std::shared_ptr<const Entry> entry) {
    return cache_.Insert(key, std::move(entry));
  }

  size_t size() const { return cache_.size(); }
  size_t capacity() const { return cache_.capacity(); }
  // Total entries evicted over this cache's lifetime.
  uint64_t evictions() const { return cache_.evictions(); }

 private:
  LruCache<std::string, std::shared_ptr<const Entry>> cache_;
};

// Canonical serialization of every constraint on `q` — static pattern
// constraints plus pushed-down candidates and time bounds — and of its
// emission columns (a cached plan scans with its own copy of the query).
// Queries with equal fingerprints produce identical ScanPlans over the same
// finalized database.
// Returns an empty string when the query is not worth caching (pushed-down
// candidate sets or IN lists beyond kMaxFingerprintValues, whose keys would
// cost more to build than replanning).
std::string DataQueryFingerprint(const DataQuery& q);

inline constexpr size_t kMaxFingerprintValues = 4096;

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_PLAN_CACHE_H_
