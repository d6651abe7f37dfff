// ExecutionSession: the per-execution state of one query run.
//
// The engine used to accumulate statistics into an engine member, which made
// AiqlEngine single-threaded by construction. All execution state now travels
// in a session owned by the caller (or created per call), so a single const
// engine serves concurrent executions: each Run gets its own stats, its own
// cancellation flag, and a pointer to the prepared query's shared plan cache.
#ifndef AIQL_SRC_CORE_EXEC_SESSION_H_
#define AIQL_SRC_CORE_EXEC_SESSION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/storage/data_query.h"

namespace aiql {

class ScanPlanCache;

// Per-execution statistics (scan layer + executor layer).
struct ExecStats {
  ScanStats scan;
  size_t data_queries = 0;
  std::vector<size_t> pattern_matches;  // rows fetched per pattern
  size_t join_work = 0;                 // budget charge total
  size_t final_tuples = 0;
  // Sliding-window (anomaly) evaluations of the items and having clause, one
  // per (window, group) visited; a sparse run's catch-up of a returning group
  // is not one.
  size_t window_group_evals = 0;
  size_t pushdown_applications = 0;
  size_t parallel_slices = 0;
  // Data-query fetches that reused a compiled ScanPlan instead of replanning
  // (prepare/bind/execute lifecycle; see src/storage/plan_cache.h).
  uint64_t plan_cache_hits = 0;
  // Entries the LRU-capped plan cache has dropped over its lifetime, sampled
  // at the end of the run (cumulative per cache, not per run): a prepared
  // query re-bound across more distinct constraint sets than
  // plan_cache_capacity shows this climbing instead of the cache growing.
  uint64_t plan_cache_evictions = 0;
};

struct ExecutionSession {
  ExecStats stats;

  // Cooperative cancellation: set (from any thread) to abort the execution at
  // the next pattern fetch, join-budget or projection stop check.
  std::atomic<bool> cancelled{false};

  // Per-execution time budget in ms; 0 inherits EngineOptions::time_budget_ms.
  int64_t time_budget_ms = 0;

  // Compiled-scan-plan cache shared by all executions of one PreparedQuery;
  // null disables plan reuse. Not owned.
  ScanPlanCache* plan_cache = nullptr;

  // Decoded-column pins for archived partitions touched by this execution:
  // every EventView the run produces stays valid until the pins clear, even
  // if the decode cache evicts the columns mid-run. The engine clears them
  // after projection (results are materialized values by then).
  ColumnPins pins;

  // The run's one stop check: the cancellation flag above, the run deadline
  // and the pin sink. Storage morsel loops, the join budget, the executors
  // between steps, anomaly windows and projection all read it.
  // ExecuteMultievent and ExecuteAnomaly arm the deadline from
  // ExecOptions::time_budget_ms (0 clears it, so a reused session carries no
  // stale deadline); ProjectResults on the same session honours it.
  ScanContext scan{.cancel = &cancelled, .pins = &pins};

  void RequestCancel() { cancelled.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const { return cancelled.load(std::memory_order_relaxed); }
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_EXEC_SESSION_H_
