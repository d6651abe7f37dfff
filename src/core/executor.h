// Multievent query executors (paper §5).
//
// Three scheduling strategies are implemented over the same storage and join
// machinery, matching the paper's evaluation configurations:
//
//   kRelationship  — Algorithm 1: pruning-score prioritization, sorted
//                    relationships, constrained ("pushed down") execution of
//                    dependent data queries, tuple-set map M. (AIQL)
//   kFetchFilter   — execute every data query independently up front, then
//                    filter by relationships. (AIQL FF baseline, §5.2)
//   kBigJoin       — the "PostgreSQL scheduling" model: one monolithic join
//                    in written pattern order with no cross-pattern
//                    constraint propagation; temporal relationships join by
//                    nested loop. (§6.2.2/§6.3.2 baseline)
#ifndef AIQL_SRC_CORE_EXECUTOR_H_
#define AIQL_SRC_CORE_EXECUTOR_H_

#include <optional>
#include <vector>

#include "src/core/exec_session.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"
#include "src/storage/event_store.h"
#include "src/util/thread_pool.h"

namespace aiql {

enum class SchedulerKind : uint8_t {
  kRelationship = 0,
  kFetchFilter = 1,
  kBigJoin = 2,
};

const char* SchedulerKindName(SchedulerKind k);

struct ExecOptions {
  SchedulerKind scheduler = SchedulerKind::kRelationship;

  // Ablation knobs for the relationship scheduler.
  bool pushdown = true;  // constrained execution of dependent data queries
  bool ordering = true;  // pruning-score relationship ordering

  // Parallel data-query fetch. Stores that scan in parallel internally
  // (Database, MppCluster) receive the pool directly and fan out per
  // partition (morsel-driven); for other stores the executor falls back to
  // splitting multi-day queries per day (paper §5.2 "Time Window
  // Partition"). Requires a thread pool; 1 disables both.
  size_t parallelism = 1;
  // Ablation knob: force the coarse day-split fallback even for stores with
  // internal parallelism.
  bool storage_parallel = true;

  // Execution budget; 0 = unlimited. Work units are intermediate join rows
  // (hash/temporal joins) or comparisons (nested loops).
  int64_t time_budget_ms = 0;
  size_t max_join_work = 0;
};

// Executes the multievent part of a query context, producing the final tuple
// set over all patterns. Fails on budget exhaustion, cancellation (via the
// session's flag), or internal errors. `session` carries the execution's
// stats and optional plan cache; it must outlive the call.
Result<TupleSet> ExecuteMultievent(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session);

// Fetches the events matching one data query through the store's
// ExecuteQueryCached. With a pool and parallelism > 1, stores that scan in
// parallel internally get the pool; stores without get the day-split fallback:
// multi-day time windows split into per-day sub-queries run on the pool.
// Consults the session's plan cache (stores that support it skip replanning
// repeated constraint sets). `ctx` (optional) is threaded into the storage
// scan loops: cancellation/deadline stop the scan between morsels (the
// partial result surfaces as the run's cancellation/budget error), and
// decoded archive columns are pinned for the session.
std::vector<EventView> FetchDataQuery(const EventStore& db, const DataQuery& query,
                                      const ExecOptions& options, ThreadPool* pool,
                                      ExecutionSession* session,
                                      const ScanContext* ctx = nullptr);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_EXECUTOR_H_
