#include "perfbench/tracing.h"

#include <cstdio>

#include "src/core/anomaly.h"
#include "src/core/projector.h"
#include "src/lang/parser.h"

namespace aiql::perfbench {

const char* SpanKindName(SpanKind kind) {
  static const char* kNames[kNumSpanKinds] = {
      "request",           "lang.parse",         "lang.resolve",
      "lang.bind",         "core.multievent",    "core.anomaly",
      "core.project",      "storage.fetch",      "storage.fingerprint",
      "storage.cache_find", "storage.plan",      "storage.cache_insert",
      "storage.scan",      "storage.release",
  };
  return kNames[static_cast<size_t>(kind)];
}

size_t SpanLog::Open(SpanKind kind) {
  Span s;
  s.kind = kind;
  s.request = request_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

SpanLog::Totals SpanLog::Summarize(const std::function<bool(uint32_t)>& keep) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  Totals t;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!keep(s.request)) {
      continue;
    }
    size_t k = static_cast<size_t>(s.kind);
    t.total_ns[k] += s.end_ns - s.start_ns;
    t.self_ns[k] += s.end_ns - s.start_ns - child_ns[i];
  }
  return t;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "span,name,request,parent,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%u,%d,%lld,%lld\n", i, SpanKindName(s.kind), s.request, s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- TracingStore ------------------------------------------------------------

std::vector<EventView> TracingStore::ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                                  const ScanContext* ctx) const {
  return ExecuteQueryCached(q, stats, nullptr, nullptr, nullptr, ctx);
}

std::optional<ScanPlan> TracingStore::Plan(const DataQuery& q, ScanStats* stats) const {
  if (capture_) {
    // The same two lookups PlanQuery makes (process objects are resolved
    // across hosts, everything else within the query's agents).
    if (!q.subject_pred.is_true()) {
      lookups_.push_back(EntityLookup{EntityType::kProcess, q.subject_pred, q.agent_ids});
    }
    if (!q.object_pred.is_true()) {
      lookups_.push_back(EntityLookup{
          q.object_type, q.object_pred,
          q.object_type == EntityType::kProcess ? std::nullopt : q.agent_ids});
    }
  }
  ScopedSpan span(log_, SpanKind::kStoragePlan);
  return db_->PlanQuery(q, stats);
}

std::vector<EventView> TracingStore::Scan(const ScanPlan& plan, ScanStats* stats,
                                          ThreadPool* pool, const ScanContext* ctx) const {
  ScopedSpan span(log_, SpanKind::kStorageScan);
  return db_->ScanWithPlan(plan, stats, pool, ctx);
}

// Database::ExecuteQueryCached, step for step.
std::vector<EventView> TracingStore::ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                                        ThreadPool* pool, ScanPlanCache* cache,
                                                        uint64_t* cache_hits,
                                                        const ScanContext* ctx) const {
  ScopedSpan fetch(log_, SpanKind::kStorageFetch);
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::string key;
  if (cache != nullptr) {
    ScopedSpan span(log_, SpanKind::kStorageFingerprint);
    key = DataQueryFingerprint(q);
  }
  if (key.empty()) {  // no cache, or too large to cache
    std::optional<ScanPlan> plan = Plan(q, st);
    if (!plan.has_value()) {
      return {};
    }
    return Scan(*plan, st, pool, ctx);
  }
  std::shared_ptr<const ScanPlanCache::Entry> entry;
  {
    ScopedSpan span(log_, SpanKind::kStorageCacheFind);
    entry = cache->Find(key);
  }
  if (entry == nullptr) {
    auto fresh = std::make_shared<ScanPlanCache::Entry>();
    fresh->query = q;
    std::optional<ScanPlan> plan = Plan(fresh->query, &fresh->planning_stats);
    if (plan.has_value()) {
      fresh->plan = std::make_unique<const ScanPlan>(std::move(*plan));
    }
    ScopedSpan span(log_, SpanKind::kStorageCacheInsert);
    entry = cache->Insert(std::move(key), std::move(fresh));
  } else if (cache_hits != nullptr) {
    ++*cache_hits;
  }
  *st += entry->planning_stats;
  if (entry->plan == nullptr) {
    return {};
  }
  return Scan(*entry->plan, st, pool, ctx);
}

// --- TracedRunner ------------------------------------------------------------

TracedRunner::TracedRunner(const Database* db, const EngineOptions& options,
                           const RequestPlan& plan, SpanLog* log)
    : db_(db), options_(options), plan_(plan), log_(log), store_(db, log) {
  if (options_.parallelism > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.parallelism - 1);  // as AiqlEngine
  }
}

bool TracedRunner::Init(std::string* error) {
  for (const Shape& s : plan_.shapes) {
    Result<ast::Query> parsed = ParseQuery(s.text);
    if (!parsed.ok()) {
      *error = s.id + ": " + parsed.error();
      return false;
    }
    shape_asts_.push_back(parsed.take());
    shape_caches_.push_back(std::make_unique<ScanPlanCache>(db_->PlanCacheCapacity()));
  }
  return true;
}

uint64_t TracedRunner::plan_cache_evictions() const {
  uint64_t n = one_shot_evictions_;
  for (const auto& c : shape_caches_) {
    n += c->evictions();
  }
  return n;
}

Result<ResultTable> TracedRunner::Run(const Request& r) {
  if (r.shape < 0) {
    // AiqlEngine::Execute: Prepare (parse, collect parameters, resolve) with a
    // fresh plan cache, then the parameterless Bind + Run.
    Result<ast::Query> parsed = [&] {
      ScopedSpan span(log_, SpanKind::kLangParse);
      return ParseQuery(r.text);
    }();
    if (!parsed.ok()) {
      return Result<ResultTable>(parsed.status());
    }
    Result<QueryContext> ctx = [&]() -> Result<QueryContext> {
      ScopedSpan span(log_, SpanKind::kLangResolve);
      if (!CollectParams(parsed.value()).empty()) {
        return Result<QueryContext>::Error("unbound parameter");
      }
      return ResolveQuery(parsed.value());
    }();
    if (!ctx.ok()) {
      return Result<ResultTable>(ctx.status());
    }
    ScanPlanCache cache(db_->PlanCacheCapacity());
    Result<ResultTable> out = Execute(ctx.value(), &cache);
    one_shot_evictions_ += cache.evictions();
    return out;
  }
  // PreparedQuery::Bind + BoundQuery::Run.
  size_t shape = static_cast<size_t>(r.shape);
  ast::Query bound;
  {
    ScopedSpan span(log_, SpanKind::kLangBind);
    bound = shape_asts_[shape];
    Status s = BindParams(&bound, r.params);
    if (!s.ok()) {
      return Result<ResultTable>(s);
    }
  }
  Result<QueryContext> ctx = [&] {
    ScopedSpan span(log_, SpanKind::kLangResolve);
    return ResolveQuery(bound);
  }();
  if (!ctx.ok()) {
    return Result<ResultTable>(ctx.status());
  }
  return Execute(ctx.value(), shape_caches_[shape].get());
}

// AiqlEngine::ExecuteContext over the tracing store.
Result<ResultTable> TracedRunner::Execute(const QueryContext& ctx, ScanPlanCache* cache) {
  ExecutionSession session;
  session.plan_cache = cache;
  ExecOptions exec;
  exec.scheduler = options_.scheduler;
  exec.pushdown = options_.pushdown;
  exec.ordering = options_.ordering;
  exec.parallelism = options_.parallelism;
  exec.storage_parallel = options_.storage_parallel;
  exec.time_budget_ms = options_.time_budget_ms;
  exec.max_join_work = options_.max_join_work;

  Result<ResultTable> out = [&]() -> Result<ResultTable> {
    if (ctx.kind == ast::QueryKind::kAnomaly) {
      ScopedSpan span(log_, SpanKind::kCoreAnomaly);
      return ExecuteAnomaly(store_, ctx, exec, pool_.get(), &session);
    }
    Result<TupleSet> tuples = [&] {
      ScopedSpan span(log_, SpanKind::kCoreMultievent);
      return ExecuteMultievent(store_, ctx, exec, pool_.get(), &session);
    }();
    if (!tuples.ok()) {
      return Result<ResultTable>(tuples.status());
    }
    ScopedSpan span(log_, SpanKind::kCoreProject);
    return ProjectResults(ctx, tuples.value(), store_.catalog(), &session);
  }();
  {
    ScopedSpan span(log_, SpanKind::kStorageRelease);
    session.pins.Clear();
  }
  session.stats.plan_cache_evictions = cache->evictions();
  if (out.ok()) {
    out.value().set_exec_stats(session.stats);
  }
  return out;
}

}  // namespace aiql::perfbench
