#include "perfbench/workloads.h"

#include <chrono>
#include <cstdio>
#include <deque>

#include "src/util/rng.h"
#include "src/util/time_utils.h"

namespace aiql::perfbench {
namespace {

// Length of one pass of the rebind sequence, and the share of binds that
// repeat one of the last kRecentWindows binds of their shape.
constexpr size_t kRebindSequenceLength = 2000;
constexpr double kRebindRepeatShare = 0.7;
constexpr size_t kRecentWindows = 4;
// Rebind windows start on a half-hour slot; lengths are 2, 6, 12 and 24 h.
constexpr int kSlotMinutes = 30;
constexpr int kWindowSlots[] = {4, 12, 24, 48};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Replaces the first `(at "...")` global window of `text` with `window`.
std::string ReplaceAtWindow(const std::string& text, const std::string& window) {
  size_t begin = text.find("(at \"");
  if (begin == std::string::npos) {
    return text;
  }
  size_t end = text.find("\")", begin);
  return text.substr(0, begin) + window + text.substr(end + 2);
}

// Turns a corpus query into a rebind shape: the global day window becomes
// ($t0, $t1) and the global agent constraint becomes $agent.
std::string Parameterize(const std::string& text) {
  std::string out = ReplaceAtWindow(text, "(from $t0 to $t1)");
  const std::string agent = "agentid = ";
  size_t pos = out.find(agent);
  if (pos != std::string::npos) {
    size_t digits = pos + agent.size();
    size_t end = digits;
    while (end < out.size() && out[end] >= '0' && out[end] <= '9') {
      ++end;
    }
    out = out.substr(0, digits) + "$agent" + out.substr(end);
  }
  return out;
}

const QuerySpec& FindSpec(const std::vector<QuerySpec>& specs, const std::string& id) {
  for (const QuerySpec& q : specs) {
    if (q.id == id) {
      return q;
    }
  }
  std::fprintf(stderr, "corpus query %s not found\n", id.c_str());
  std::abort();
}

// "YYYY-MM-DD hh:mm" of a timestamp.
std::string MinuteString(TimestampMs t) { return FormatTimestamp(t).substr(0, 16); }

RequestPlan RebindPlan(const Workload& workload, uint64_t bind_seed) {
  const ScenarioConfig& cfg = workload.config();
  std::vector<QuerySpec> cases = workload.CaseStudyQueries();
  std::vector<QuerySpec> behaviors = workload.BehaviorQueries();
  struct ShapeSource {
    const QuerySpec* spec;
    AgentId home;
  };
  const ShapeSource sources[] = {
      {&FindSpec(cases, "c2-5"), cfg.win_client},
      {&FindSpec(cases, "c5-7"), cfg.db_server},
      {&FindSpec(behaviors, "a3"), cfg.linux_host_a},
      {&FindSpec(behaviors, "s3"), cfg.win_client},
  };
  RequestPlan plan;
  for (const ShapeSource& s : sources) {
    plan.shapes.push_back(Shape{s.spec->id, Parameterize(s.spec->text)});
  }

  struct Bind {
    AgentId agent;
    int start_slot;
    int slots;
  };
  const int total_slots = cfg.trace.num_days * 24 * 60 / kSlotMinutes;
  Rng rng(bind_seed);
  std::vector<std::deque<Bind>> recent(plan.shapes.size());
  for (size_t i = 0; i < kRebindSequenceLength; ++i) {
    size_t shape = rng.Below(plan.shapes.size());
    std::deque<Bind>& window = recent[shape];
    Bind b{};
    if (!window.empty() && rng.Chance(kRebindRepeatShare)) {
      b = window[rng.Below(window.size())];
    } else {
      b.agent = rng.Chance(0.75) ? sources[shape].home
                                 : static_cast<AgentId>(1 + rng.Below(cfg.trace.num_hosts));
      b.slots = kWindowSlots[rng.Below(std::size(kWindowSlots))];
      b.start_slot = static_cast<int>(rng.Below(static_cast<uint64_t>(total_slots - b.slots + 1)));
      window.push_back(b);
      if (window.size() > kRecentWindows) {
        window.pop_front();
      }
    }
    TimestampMs t0 = cfg.DayStartTs(0) + static_cast<TimestampMs>(b.start_slot) * kSlotMinutes *
                                             kMinuteMs;
    TimestampMs t1 = t0 + static_cast<TimestampMs>(b.slots) * kSlotMinutes * kMinuteMs;
    Request r;
    r.id = plan.shapes[shape].id;
    r.shape = static_cast<int>(shape);
    r.params.Set("agent", static_cast<int64_t>(b.agent))
        .Set("t0", MinuteString(t0))
        .Set("t1", MinuteString(t1));
    r.key = r.id + "|" + std::to_string(b.agent) + "|" + MinuteString(t0) + "|" + MinuteString(t1);
    plan.sequence.push_back(std::move(r));
  }
  return plan;
}

Request OneShot(const QuerySpec& q, std::string text) {
  Request r;
  r.id = q.id;
  r.key = q.id;
  r.text = std::move(text);
  r.anomaly = q.anomaly;
  return r;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkloadKind(const std::string& name) {
  for (WorkloadKind k :
       {WorkloadKind::kCaseStudy, WorkloadKind::kHistoryHunt, WorkloadKind::kRebind}) {
    if (name == WorkloadName(k)) {
      return k;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCaseStudy:
      return "case_study";
    case WorkloadKind::kHistoryHunt:
      return "history_hunt";
    case WorkloadKind::kRebind:
      return "rebind";
  }
  return "?";
}

EngineOptions BenchEngineOptions(SchedulerKind scheduler) {
  EngineOptions o;
  o.scheduler = scheduler;
  o.parallelism = 2;
  o.time_budget_ms = 600000;
  return o;
}

DatasetSpec DatasetFor(WorkloadKind kind, uint64_t seed, double scale) {
  DatasetSpec spec;
  TraceConfig& t = spec.scenario.trace;
  t.seed = seed;
  t.num_hosts = 8;
  if (kind == WorkloadKind::kHistoryHunt) {
    t.num_days = 21;
    t.events_per_host_per_day = static_cast<size_t>(10000 * scale);
    spec.db_options.archive_after_days = 1;
  } else {
    t.num_days = 3;
    t.events_per_host_per_day = static_cast<size_t>(20000 * scale);
  }
  return spec;
}

Dataset BuildDataset(const DatasetSpec& spec) {
  Dataset d;
  d.db = std::make_unique<Database>(spec.db_options);
  d.workload = std::make_unique<Workload>(spec.scenario, d.db.get());
  auto t0 = std::chrono::steady_clock::now();
  d.workload->Build();
  d.build_s = SecondsSince(t0);
  auto t1 = std::chrono::steady_clock::now();
  d.db->Finalize();
  d.finalize_s = SecondsSince(t1);
  return d;
}

RequestPlan BuildRequestPlan(WorkloadKind kind, const Workload& workload, uint64_t bind_seed) {
  if (kind == WorkloadKind::kRebind) {
    return RebindPlan(workload, bind_seed);
  }
  RequestPlan plan;
  if (kind == WorkloadKind::kCaseStudy) {
    for (const QuerySpec& q : workload.CaseStudyQueries()) {
      plan.sequence.push_back(OneShot(q, q.text));
    }
    QuerySpec anomaly = workload.CaseStudyAnomalyQuery();
    plan.sequence.push_back(OneShot(anomaly, anomaly.text));
    return plan;
  }
  // history_hunt: every multievent/dependency query searches the whole
  // history instead of one day. The sliding-window anomaly queries (s5, s6)
  // keep their day: at a 10 s step, 21 days are ~180k windows per request.
  const ScenarioConfig& cfg = workload.config();
  const std::string history = "(from \"" + cfg.DateString(0) + "\" to \"" +
                              cfg.DateString(cfg.trace.num_days) + "\")";
  for (const QuerySpec& q : workload.BehaviorQueries()) {
    plan.sequence.push_back(OneShot(q, q.anomaly ? q.text : ReplaceAtWindow(q.text, history)));
  }
  return plan;
}

std::vector<PreparedQuery> PrepareShapes(const AiqlEngine& engine, const RequestPlan& plan,
                                         std::string* error) {
  std::vector<PreparedQuery> out;
  for (const Shape& s : plan.shapes) {
    Result<PreparedQuery> p = engine.Prepare(s.text);
    if (!p.ok()) {
      *error = s.id + ": " + p.error();
      return {};
    }
    out.push_back(p.take());
  }
  return out;
}

Result<ResultTable> RunRequest(const AiqlEngine& engine,
                               const std::vector<PreparedQuery>& prepared, const Request& r) {
  if (r.shape < 0) {
    return engine.Execute(r.text);
  }
  Result<BoundQuery> bound = prepared[static_cast<size_t>(r.shape)].Bind(r.params);
  if (!bound.ok()) {
    return Result<ResultTable>(bound.status());
  }
  return bound.value().Run();
}

uint64_t ResultDigest(ResultTable table) {
  table.SortRowsLexicographically();
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 1099511628211ULL;
    }
    h = (h ^ 0xff) * 1099511628211ULL;  // field separator
  };
  for (const std::string& c : table.columns()) {
    mix(c);
  }
  for (const std::vector<Value>& row : table.rows()) {
    for (const Value& v : row) {
      mix(v.ToString());
    }
    h = (h ^ 0xfe) * 1099511628211ULL;  // row separator
  }
  return h;
}

WorkCounters WorkCounters::From(const ExecStats& s) {
  WorkCounters c;
  c.events_scanned = s.scan.events_scanned;
  c.events_matched = s.scan.events_matched;
  c.partitions_scanned = s.scan.partitions_scanned;
  c.partitions_pruned = s.scan.partitions_pruned;
  c.index_lookups = s.scan.index_lookups;
  c.join_work = s.join_work;
  c.final_tuples = s.final_tuples;
  c.data_queries = s.data_queries;
  c.plan_cache_hits = s.plan_cache_hits;
  return c;
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& o) {
  events_scanned += o.events_scanned;
  events_matched += o.events_matched;
  partitions_scanned += o.partitions_scanned;
  partitions_pruned += o.partitions_pruned;
  index_lookups += o.index_lookups;
  join_work += o.join_work;
  final_tuples += o.final_tuples;
  data_queries += o.data_queries;
  plan_cache_hits += o.plan_cache_hits;
  return *this;
}

std::string WorkCounters::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scanned=%llu matched=%llu parts_scanned=%llu parts_pruned=%llu "
                "index_lookups=%llu join_work=%llu final_tuples=%llu data_queries=%llu "
                "plan_cache_hits=%llu",
                static_cast<unsigned long long>(events_scanned),
                static_cast<unsigned long long>(events_matched),
                static_cast<unsigned long long>(partitions_scanned),
                static_cast<unsigned long long>(partitions_pruned),
                static_cast<unsigned long long>(index_lookups),
                static_cast<unsigned long long>(join_work),
                static_cast<unsigned long long>(final_tuples),
                static_cast<unsigned long long>(data_queries),
                static_cast<unsigned long long>(plan_cache_hits));
  return buf;
}

}  // namespace aiql::perfbench
