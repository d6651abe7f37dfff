// Workloads of the benchmark of record: datasets, request sequences, and the
// answer digests the closed loop checks every response against.
//
//   case_study   — the 26 case-study queries + anomaly Query 5, one-shot
//                  Execute(text) over 8 hosts x 3 days x 20k events.
//   history_hunt — the 19 behavior queries widened from one day to the whole
//                  history (8 hosts x 21 days x 10k events, archive tier on).
//   rebind       — four corpus shapes prepared once with $agent/$t0/$t1,
//                  then Bind + Run over a seeded sequence of windows on the
//                  case_study dataset.
#ifndef AIQL_PERFBENCH_WORKLOADS_H_
#define AIQL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/lang/params.h"
#include "src/storage/database.h"
#include "src/workload/workload.h"

namespace aiql::perfbench {

enum class WorkloadKind { kCaseStudy, kHistoryHunt, kRebind };

std::optional<WorkloadKind> ParseWorkloadKind(const std::string& name);
const char* WorkloadName(WorkloadKind kind);

// Engine configuration shared by every workload: closed loop, one client,
// two scan threads, and a budget no corpus query comes near.
EngineOptions BenchEngineOptions(SchedulerKind scheduler = SchedulerKind::kRelationship);

// The dataset of a workload. `scale` multiplies events per host per day
// (1.0 = the benchmark of record; smaller values serve the self-test).
struct DatasetSpec {
  ScenarioConfig scenario;
  DatabaseOptions db_options;
};
DatasetSpec DatasetFor(WorkloadKind kind, uint64_t seed, double scale);

// A generated, finalized dataset plus the set-up time split.
struct Dataset {
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;  // borrows `db`; owns the query corpus
  double build_s = 0;                  // Workload::Build
  double finalize_s = 0;               // Database::Finalize
};
Dataset BuildDataset(const DatasetSpec& spec);

// A query shape prepared once and re-bound per request (rebind workload).
struct Shape {
  std::string id;
  std::string text;  // with $agent, $t0, $t1
};

// One request of the closed loop: a one-shot text (shape < 0) or a Bind +
// Run of `shapes[shape]` with `params`.
struct Request {
  std::string id;   // corpus id ("c2-7") or shape id for binds
  std::string key;  // identifies a distinct request (id plus bind values)
  std::string text;
  int shape = -1;
  ParamSet params;
  bool anomaly = false;
};

struct RequestPlan {
  std::vector<Shape> shapes;
  std::vector<Request> sequence;  // one pass; the loop cycles it
};

// The request sequence of `kind` over `workload`'s corpus. `bind_seed`
// drives the rebind window sequence; other workloads ignore it.
RequestPlan BuildRequestPlan(WorkloadKind kind, const Workload& workload, uint64_t bind_seed);

// Prepares every shape of `plan` on `engine` (empty on failure, with the
// error in *error).
std::vector<PreparedQuery> PrepareShapes(const AiqlEngine& engine, const RequestPlan& plan,
                                         std::string* error);

// Executes one request on an engine through its public API.
Result<ResultTable> RunRequest(const AiqlEngine& engine,
                               const std::vector<PreparedQuery>& prepared, const Request& r);

// Order-insensitive digest of a result: rows sorted lexicographically, then
// FNV-1a over column names and rendered values.
uint64_t ResultDigest(ResultTable table);

// The deterministic work counters of one execution (decode counters, which
// depend on decode-cache residency, are deliberately absent).
struct WorkCounters {
  uint64_t events_scanned = 0;
  uint64_t events_matched = 0;
  uint64_t partitions_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t index_lookups = 0;
  uint64_t join_work = 0;
  uint64_t final_tuples = 0;
  uint64_t data_queries = 0;
  uint64_t plan_cache_hits = 0;

  static WorkCounters From(const ExecStats& s);
  WorkCounters& operator+=(const WorkCounters& o);
  bool operator==(const WorkCounters&) const = default;
  std::string ToString() const;
};

}  // namespace aiql::perfbench

#endif  // AIQL_PERFBENCH_WORKLOADS_H_
