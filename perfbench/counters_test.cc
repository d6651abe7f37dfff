// The benchmark's own test, on small copies of every workload:
//   - the deterministic work counters of every request (the per-request
//     table's events_scanned, join_work, final_tuples, data_queries,
//     plan_cache_hits, plus the partition and index counters) repeat exactly
//     between two passes over the request sequence, each starting from fresh
//     prepared queries; decode counters are excluded, since they depend on
//     decode-cache residency;
//   - the traced path (TracedRunner over TracingStore) returns the same
//     answers and the same counters as the engine's public API.
// Exits non-zero on the first workload that disagrees.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/tracing.h"
#include "perfbench/workloads.h"

namespace aiql::perfbench {
namespace {

constexpr double kScale = 0.1;
constexpr uint64_t kSeed = 7;

struct Pass {
  std::vector<WorkCounters> counters;
  std::vector<uint64_t> digests;
};

bool Record(Result<ResultTable> res, const Request& r, Pass* pass) {
  if (!res.ok()) {
    std::fprintf(stderr, "  %s failed: %s\n", r.key.c_str(), res.error().c_str());
    return false;
  }
  pass->counters.push_back(WorkCounters::From(res.value().exec_stats()));
  pass->digests.push_back(ResultDigest(res.take()));
  return true;
}

bool EnginePass(const AiqlEngine& engine, const RequestPlan& plan, Pass* pass) {
  std::string error;
  std::vector<PreparedQuery> prepared = PrepareShapes(engine, plan, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "  prepare failed: %s\n", error.c_str());
    return false;
  }
  for (const Request& r : plan.sequence) {
    if (!Record(RunRequest(engine, prepared, r), r, pass)) {
      return false;
    }
  }
  return true;
}

bool TracedPass(const Database* db, const RequestPlan& plan, Pass* pass) {
  SpanLog log;
  TracedRunner runner(db, BenchEngineOptions(), plan, &log);
  std::string error;
  if (!runner.Init(&error)) {
    std::fprintf(stderr, "  traced prepare failed: %s\n", error.c_str());
    return false;
  }
  for (const Request& r : plan.sequence) {
    ScopedSpan root(&log, SpanKind::kRequest);
    if (!Record(runner.Run(r), r, pass)) {
      return false;
    }
  }
  return true;
}

// Reports the first request where `b` disagrees with `a`.
bool Same(const char* what, const RequestPlan& plan, const Pass& a, const Pass& b) {
  for (size_t i = 0; i < plan.sequence.size(); ++i) {
    if (a.digests[i] != b.digests[i]) {
      std::fprintf(stderr, "  %s: request %zu (%s) answers differ\n", what, i,
                   plan.sequence[i].key.c_str());
      return false;
    }
    if (!(a.counters[i] == b.counters[i])) {
      std::fprintf(stderr, "  %s: request %zu (%s) counters differ\n    %s\n    %s\n", what, i,
                   plan.sequence[i].key.c_str(), a.counters[i].ToString().c_str(),
                   b.counters[i].ToString().c_str());
      return false;
    }
  }
  return true;
}

bool CheckWorkload(WorkloadKind kind) {
  Dataset data = BuildDataset(DatasetFor(kind, kSeed, kScale));
  RequestPlan plan = BuildRequestPlan(kind, *data.workload, kSeed);
  AiqlEngine engine(data.db.get(), BenchEngineOptions());
  Pass first, second, traced;
  bool ok = EnginePass(engine, plan, &first) && EnginePass(engine, plan, &second) &&
            TracedPass(data.db.get(), plan, &traced) &&
            Same("second pass", plan, first, second) && Same("traced pass", plan, first, traced);
  std::printf("%s %s: %zu requests\n", ok ? "PASS" : "FAIL", WorkloadName(kind),
              plan.sequence.size());
  return ok;
}

}  // namespace
}  // namespace aiql::perfbench

int main() {
  using namespace aiql::perfbench;
  bool ok = true;
  for (WorkloadKind k :
       {WorkloadKind::kCaseStudy, WorkloadKind::kHistoryHunt, WorkloadKind::kRebind}) {
    ok = CheckWorkload(k) && ok;
  }
  return ok ? 0 : 1;
}
