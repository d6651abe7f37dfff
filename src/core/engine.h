// AiqlEngine: the public facade of the AIQL system.
//
// Wires together the parser, inference, scheduling executors, anomaly
// executor, and projector over a finalized Database (paper Fig 2).
//
// The engine is concurrency-safe: every query entry point is const, and all
// per-execution state (statistics, cancellation, plan cache) lives in an
// ExecutionSession owned by the call, so one engine serves any number of
// concurrent executions over its read-only store.
//
// One-shot use:
//   Database db;                       // ingest + Finalize()
//   AiqlEngine engine(&db);
//   auto result = engine.Execute(R"(
//       agentid = 1 (at "01/01/2017")
//       proc p1 start proc p2["%osql%"] as evt1
//       ...
//       return p1, p2)");
//   if (result.ok()) std::cout << result.value().ToString();
//
// Iterative investigation (compile once, execute many — see
// prepared_query.h):
//   auto prepared = engine.Prepare("... (from $t0 to $t1) ... return p1");
//   auto bound = prepared.value().Bind(ParamSet()
//       .Set("t0", "01/01/2017").Set("t1", "01/02/2017"));
//   auto result = bound.value().Run();  // re-bind/re-run without re-parsing
#ifndef AIQL_SRC_CORE_ENGINE_H_
#define AIQL_SRC_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "src/core/anomaly.h"
#include "src/core/exec_session.h"
#include "src/core/executor.h"
#include "src/core/prepared_query.h"
#include "src/core/projector.h"
#include "src/core/result_table.h"
#include "src/lang/query_context.h"
#include "src/storage/event_store.h"
#include "src/util/thread_pool.h"

namespace aiql {

struct EngineOptions {
  SchedulerKind scheduler = SchedulerKind::kRelationship;
  // Total threads participating in parallel data-query execution (morsel
  // workers for stores that scan in parallel, day-split workers otherwise).
  // 0 = auto-size from std::thread::hardware_concurrency() at engine
  // construction; 1 = strictly sequential. The resolved value is readable
  // via options().parallelism.
  size_t parallelism = 0;
  // Ablation knobs (relationship scheduler only).
  bool pushdown = true;
  RelationshipOrdering ordering = RelationshipOrdering::kCost;
  // Ablation knob: force the legacy day-split fan-out instead of the
  // storage-level morsel scan.
  bool storage_parallel = true;
  // Execution budget; 0 = unlimited.
  int64_t time_budget_ms = 0;
  size_t max_join_work = 0;
};

class AiqlEngine {
 public:
  explicit AiqlEngine(const EventStore* db, EngineOptions options = {});
  ~AiqlEngine();

  AiqlEngine(const AiqlEngine&) = delete;
  AiqlEngine& operator=(const AiqlEngine&) = delete;

  // Compiles a query text into a PreparedQuery: lex + parse + $parameter
  // collection + inference validation happen once; executions then go
  // through Bind/Run. The prepared query borrows this engine and must not
  // outlive it (nor the database's current finalization).
  Result<PreparedQuery> Prepare(const std::string& text) const;

  // Parses, resolves, and executes an AIQL query — a thin
  // Prepare + Bind + Run wrapper. Text with $parameters fails here with an
  // "unbound parameter" diagnostic; use Prepare/Bind instead.
  Result<ResultTable> Execute(const std::string& text) const;

  // Executes an already-compiled query context with a private session.
  Result<ResultTable> ExecuteContext(const QueryContext& ctx) const;

  // Re-entrant core entry point: executes under a caller-owned session
  // (stats, time budget, cancellation, plan cache). Pass nullptr for a
  // private session. The resulting table carries the session's final stats.
  Result<ResultTable> ExecuteContext(const QueryContext& ctx, ExecutionSession* session) const;

  const EngineOptions& options() const { return options_; }

 private:
  const EventStore* db_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // created when parallelism > 1
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_ENGINE_H_
