// The traced request path: the same requests as the measured engine, driven
// through the engine's layer entry points with a span around each call.
//
// TracedRunner reproduces AiqlEngine::Execute (ParseQuery, CollectParams,
// ResolveQuery, a fresh plan cache) and PreparedQuery::Bind + BoundQuery::Run
// (BindParams, ResolveQuery, a per-shape plan cache) from public functions,
// then runs ExecuteMultievent + ProjectResults or ExecuteAnomaly over a
// TracingStore. TracingStore is an EventStore decorator over the Database
// that reproduces Database::ExecuteQueryCached from its public pieces
// (DataQueryFingerprint, ScanPlanCache::Find/Insert, PlanQuery, ScanWithPlan)
// with a span around each. Spans live in memory (SpanLog) and are written out
// when the benchmark ends.
//
// Threading: spans are opened and closed on the client thread only. The
// engine calls the store from that thread (morsel workers run inside
// ScanWithPlan, below the innermost span), so SpanLog needs no lock.
#ifndef AIQL_PERFBENCH_TRACING_H_
#define AIQL_PERFBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/executor.h"
#include "src/lang/ast.h"
#include "src/storage/database.h"
#include "src/storage/plan_cache.h"
#include "src/util/thread_pool.h"

namespace aiql::perfbench {

enum class SpanKind : uint8_t {
  kRequest,            // one closed-loop request (the root)
  kLangParse,          // ParseQuery
  kLangResolve,        // CollectParams + ResolveQuery
  kLangBind,           // PreparedQuery::Bind's AST copy + BindParams
  kCoreMultievent,     // ExecuteMultievent
  kCoreAnomaly,        // ExecuteAnomaly
  kCoreProject,        // ProjectResults
  kStorageFetch,       // one EventStore::ExecuteQueryCached call
  kStorageFingerprint, // DataQueryFingerprint
  kStorageCacheFind,   // ScanPlanCache::Find
  kStoragePlan,        // Database::PlanQuery
  kStorageCacheInsert, // ScanPlanCache::Insert
  kStorageScan,        // Database::ScanWithPlan
  kStorageRelease,     // releasing the run's decoded-column pins
};
inline constexpr size_t kNumSpanKinds = 14;
const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kRequest;
  uint32_t request = 0;
  int32_t parent = -1;  // index into SpanLog::spans(), -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  void set_request(uint32_t request) { request_ = request; }

  // Opens a span under the innermost open one; returns its index.
  size_t Open(SpanKind kind);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Per-kind sums over the spans of requests `keep` accepts: duration and
  // self time (duration minus the time its children cover), in ns.
  struct Totals {
    std::array<int64_t, kNumSpanKinds> total_ns{};
    std::array<int64_t, kNumSpanKinds> self_ns{};
  };
  Totals Summarize(const std::function<bool(uint32_t request)>& keep) const;

  // Writes one CSV line per span (name, request, parent, start, end).
  bool WriteCsv(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  uint32_t request_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind) : log_(log), index_(log->Open(kind)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

// The subject/object predicates of a planned data query, kept so the entity
// resolution inside PlanQuery can be replayed through FindEntities.
struct EntityLookup {
  EntityType type = EntityType::kProcess;
  PredExpr pred;
  std::optional<std::vector<AgentId>> agents;
};

class TracingStore : public EventStore {
 public:
  TracingStore(const Database* db, SpanLog* log) : db_(db), log_(log) {}

  const EntityCatalog& catalog() const override { return db_->catalog(); }
  // The engine fetches through ExecuteQueryCached (the store scans in
  // parallel); the serial entry point shares its reproduction.
  std::vector<EventView> ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                      const ScanContext* ctx = nullptr) const override;
  bool SupportsParallelScan() const override { return db_->SupportsParallelScan(); }
  std::vector<EventView> ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                            ThreadPool* pool, ScanPlanCache* cache,
                                            uint64_t* cache_hits,
                                            const ScanContext* ctx = nullptr) const override;
  size_t PlanCacheCapacity() const override { return db_->PlanCacheCapacity(); }
  TimeRange data_time_range() const override { return db_->data_time_range(); }
  bool SupportsDaySplit() const override { return db_->SupportsDaySplit(); }

  // While enabled, every PlanQuery records its entity lookups.
  void set_capture(bool on) { capture_ = on; }
  const std::vector<EntityLookup>& lookups() const { return lookups_; }

 private:
  std::optional<ScanPlan> Plan(const DataQuery& q, ScanStats* stats) const;
  std::vector<EventView> Scan(const ScanPlan& plan, ScanStats* stats, ThreadPool* pool,
                              const ScanContext* ctx) const;

  const Database* db_;
  SpanLog* log_;
  bool capture_ = false;
  mutable std::vector<EntityLookup> lookups_;
};

// Runs requests through the traced path. Mirrors the measured engine's
// options; one runner serves one request sequence (its per-shape plan caches
// persist across requests like a PreparedQuery's).
class TracedRunner {
 public:
  TracedRunner(const Database* db, const EngineOptions& options, const RequestPlan& plan,
               SpanLog* log);

  // False (with the error in *error) when a shape fails to parse.
  bool Init(std::string* error);

  // Executes `r` under the caller's root span.
  Result<ResultTable> Run(const Request& r);

  TracingStore& store() { return store_; }
  // Plan-cache evictions over every cache this runner has used.
  uint64_t plan_cache_evictions() const;

 private:
  Result<ResultTable> Execute(const QueryContext& ctx, ScanPlanCache* cache);

  const Database* db_;
  EngineOptions options_;
  const RequestPlan& plan_;
  SpanLog* log_;
  TracingStore store_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ast::Query> shape_asts_;
  std::vector<std::unique_ptr<ScanPlanCache>> shape_caches_;
  uint64_t one_shot_evictions_ = 0;
};

}  // namespace aiql::perfbench

#endif  // AIQL_PERFBENCH_TRACING_H_
