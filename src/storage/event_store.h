// EventStore: the storage interface the query engine executes against.
//
// Implementations: the single-node Database (src/storage/database.h) and the
// MPP cluster (src/mpp/mpp_cluster.h). The engine is storage-agnostic; the
// paper's Fig 6 (single node) and Fig 7 (parallel databases) configurations
// differ only in which EventStore backs the engine.
//
// Scan contract: the two entry points are the only ways to scan a store.
// Both return the same matches in the same (start_time, id) order and
// aggregate the same ScanStats (modulo the parallel_morsels counter).
// ExecuteQuery is the plain fetch; ExecuteQueryCached is the pooled fetch,
// handing the store a pool and, optionally, a plan cache. Database and
// MppCluster implement both on the one scan loop, ScanMorsels (database.h),
// whose unit of work is one surviving partition.
#ifndef AIQL_SRC_STORAGE_EVENT_STORE_H_
#define AIQL_SRC_STORAGE_EVENT_STORE_H_

#include <vector>

#include "src/storage/data_query.h"
#include "src/storage/entity.h"
#include "src/storage/event.h"
#include "src/storage/event_view.h"
#include "src/util/time_utils.h"

namespace aiql {

class ThreadPool;
class ScanPlanCache;

class EventStore {
 public:
  virtual ~EventStore() = default;

  virtual const EntityCatalog& catalog() const = 0;

  // Executes a data query; results sorted by (start_time, id). Views stay
  // valid for the lifetime of the store (until re-finalization); views from
  // *archived* partitions additionally require decode-cache residency or a
  // ScanContext pin (see ColumnPins in data_query.h). Must be const and
  // thread-safe: parallel executions (day-split sub-queries, concurrent
  // engine runs) call it concurrently. `ctx` (optional) threads the run's
  // cancellation flag / deadline into the scan loop — a stopped scan returns
  // the partial result it has; the engine surfaces the cancellation — and
  // the decoded-column pin sink.
  virtual std::vector<EventView> ExecuteQuery(const DataQuery& query, ScanStats* stats,
                                              const ScanContext* ctx = nullptr) const = 0;

  // True when the store fans a query out internally on the pool passed to
  // ExecuteQueryCached. The engine then hands its pool straight to the store
  // instead of splitting queries itself.
  virtual bool SupportsParallelScan() const { return false; }

  // The engine's fetch: executes a data query using `pool` (may be null) for
  // intra-store parallelism, consulting `cache` for a previously compiled
  // scan plan when the store supports plan reuse. Results and aggregate
  // ScanStats are identical to ExecuteQuery (parallel_morsels aside); on a
  // cache hit `*cache_hits` is incremented and the planning phase is
  // skipped. Stores without plan support ignore the cache.
  virtual std::vector<EventView> ExecuteQueryCached(const DataQuery& query, ScanStats* stats,
                                                    ThreadPool* pool, ScanPlanCache* cache,
                                                    uint64_t* cache_hits,
                                                    const ScanContext* ctx = nullptr) const = 0;

  // Capacity for the scan-plan caches the prepare/bind/execute API creates
  // against this store (entries; see ScanPlanCache). Stores expose their own
  // knob (DatabaseOptions::plan_cache_capacity).
  virtual size_t PlanCacheCapacity() const { return kDefaultPlanCacheCapacity; }

  virtual TimeRange data_time_range() const = 0;

  // True if the engine may fall back to splitting multi-day data queries into
  // per-day sub-queries run on its own pool — the legacy coarse parallelism,
  // used only when the store does not scan in parallel internally.
  virtual bool SupportsDaySplit() const = 0;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_EVENT_STORE_H_
