#include "src/core/engine.h"

#include <algorithm>
#include <thread>

#include "src/lang/parser.h"
#include "src/storage/plan_cache.h"

namespace aiql {

AiqlEngine::AiqlEngine(const EventStore* db, EngineOptions options)
    : db_(db), options_(options) {
  if (options_.parallelism == 0) {
    // Auto-size to the machine: hardware_concurrency() may report 0 when
    // unknown, and a 1-core box must stay sequential rather than pay thread
    // hand-off costs for nothing (the old hard-coded 2 oversubscribed it).
    options_.parallelism = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (options_.parallelism > 1) {
    // The calling thread participates in RunBulk/ParallelFor, so a pool of
    // parallelism-1 workers yields exactly `parallelism` scan threads. The
    // pool's submission queue is internally synchronized, so concurrent
    // executions share it safely.
    pool_ = std::make_unique<ThreadPool>(options_.parallelism - 1);
  }
}

AiqlEngine::~AiqlEngine() = default;

Result<PreparedQuery> AiqlEngine::Prepare(const std::string& text) const {
  Result<ast::Query> parsed = ParseQuery(text);
  if (!parsed.ok()) {
    return Result<PreparedQuery>(parsed.status());
  }
  PreparedQuery prepared;
  prepared.engine_ = this;
  prepared.ast_ = parsed.take();
  prepared.params_ = CollectParams(prepared.ast_);
  prepared.cache_ = std::make_shared<ScanPlanCache>(db_->PlanCacheCapacity());

  if (prepared.params_.empty()) {
    // Fully resolve now; every Bind/Run reuses this context.
    Result<QueryContext> ctx = ResolveQuery(prepared.ast_);
    if (!ctx.ok()) {
      return Result<PreparedQuery>(ctx.status());
    }
    prepared.resolved_ = std::make_shared<const QueryContext>(ctx.take());
    return prepared;
  }

  // Validation pass for parameterized queries: resolve against
  // type-appropriate placeholder values so inference errors (bad attribute
  // names, malformed patterns, anomaly-query shape rules) surface at Prepare
  // rather than at the first Bind. The probe context is discarded.
  ParamSet placeholders;
  for (const ParamInfo& p : prepared.params_) {
    if (p.type == ParamType::kTimestamp) {
      placeholders.Set(p.name, "2000-01-01 00:00:00");
    } else {
      placeholders.Set(p.name, int64_t{1});
    }
  }
  ast::Query probe = prepared.ast_;
  Status s = BindParams(&probe, placeholders);
  if (!s.ok()) {
    return Result<PreparedQuery>(s);
  }
  Result<QueryContext> ctx = ResolveQuery(probe);
  if (!ctx.ok()) {
    return Result<PreparedQuery>(ctx.status());
  }
  return prepared;
}

Result<ResultTable> AiqlEngine::Execute(const std::string& text) const {
  Result<PreparedQuery> prepared = Prepare(text);
  if (!prepared.ok()) {
    return Result<ResultTable>(prepared.status());
  }
  Result<BoundQuery> bound = prepared.value().Bind();
  if (!bound.ok()) {
    return Result<ResultTable>(bound.status());
  }
  return bound.value().Run();
}

Result<ResultTable> AiqlEngine::ExecuteContext(const QueryContext& ctx) const {
  return ExecuteContext(ctx, nullptr);
}

Result<ResultTable> AiqlEngine::ExecuteContext(const QueryContext& ctx,
                                               ExecutionSession* session) const {
  ExecutionSession local;
  if (session == nullptr) {
    session = &local;
  }
  session->stats = ExecStats{};

  ExecOptions exec;
  exec.scheduler = options_.scheduler;
  exec.pushdown = options_.pushdown;
  exec.ordering = options_.ordering;
  exec.parallelism = options_.parallelism;
  exec.storage_parallel = options_.storage_parallel;
  exec.time_budget_ms = session->time_budget_ms > 0 ? session->time_budget_ms
                                                    : options_.time_budget_ms;
  exec.max_join_work = options_.max_join_work;

  Result<ResultTable> out = [&]() -> Result<ResultTable> {
    if (ctx.kind == ast::QueryKind::kAnomaly) {
      return ExecuteAnomaly(*db_, ctx, exec, pool_.get(), session);
    }
    Result<TupleSet> tuples = ExecuteMultievent(*db_, ctx, exec, pool_.get(), session);
    if (!tuples.ok()) {
      return Result<ResultTable>(tuples.status());
    }
    return ProjectResults(ctx, tuples.value(), db_->catalog(), session);
  }();

  // Projection materialized every returned value, so the decoded archive
  // columns this run pinned can go back to plain decode-cache residency.
  session->pins.Clear();

  // Lifetime eviction count of the run's plan cache (not a per-run delta):
  // a re-bind loop over more distinct constraint sets than the capacity
  // shows up here instead of as unbounded cache growth.
  if (session->plan_cache != nullptr) {
    session->stats.plan_cache_evictions = session->plan_cache->evictions();
  }

  if (out.ok()) {
    out.value().set_exec_stats(session->stats);
  }
  return out;
}

}  // namespace aiql
