// aiql_perfbench: the benchmark of record for the AIQL engine.
//
//   aiql_perfbench --workload case_study|history_hunt|rebind --seed N
//                  --seconds S --trace 0|1 [--bind-seed N] [--spans-out FILE]
//
// One run: generate the workload's dataset (several times), check every
// distinct request against a fetch-filter oracle engine, then drive a closed
// loop with one client for S seconds in whole passes over the request
// sequence, generating the dataset a few times more between passes. Latency
// figures come from the fastest passes (see Summarize) and set-up time from
// the fastest build. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it spends half the time untraced and half on the traced
// request path (tracing.h) and reports the per-layer metrics. The last line
// of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/tracing.h"
#include "perfbench/workloads.h"

namespace aiql::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLoopBuilds = 5;  // throwaway set-up builds inside the timed loop
constexpr size_t kMinRequests = 200;  // >= 10 samples beyond p95
constexpr double kHardLimitS = 60;    // a loop starts no pass after this

struct Args {
  std::string workload;
  uint64_t seed = 42;
  std::optional<uint64_t> bind_seed;  // defaults to --seed
  double seconds = 50;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--bind-seed") {
      a->bind_seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "malformed value for %s: %s\n", flag.c_str(), v.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

// Linear-interpolated percentile of `v` (p in [0, 100]); sorts a copy.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ProcessPeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// A "Vm...:  N kB" line of /proc/self/status in MB, or -1.
double ProcStatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  const size_t len = std::strlen(field);
  char line[256];
  double mb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

// Starts a new peak-RSS window: returns free heap to the kernel, then resets
// the kernel's high-water mark to the current RSS (clear_refs "5"). False if
// the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fputs("5", f) >= 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Per-request-id samples of the untraced loop (the work-counter table).
struct IdStats {
  std::vector<double> ms;
  WorkCounters sum;  // over the samples
};

enum class Outcome { kOk, kError, kWrongAnswer };

// One request's outcome and its wall time (the call into the engine only,
// not the answer check that follows it).
struct Timed {
  Outcome outcome = Outcome::kOk;
  double ms = 0;
};

// One pass over the request sequence.
struct PassTimes {
  double busy_s = 0;       // client time spent inside requests
  std::vector<double> ms;  // latencies of the successful requests
};

struct LoopResult {
  size_t attempted = 0;
  size_t errors = 0;
  size_t wrong = 0;
  std::vector<PassTimes> passes;
};

// The closed loop: one client cycles the `n`-request sequence in whole passes
// until `seconds` have passed and at least kMinRequests requests were made.
// `request(i, pass)` executes sequence entry i and returns a Timed.
// `between(elapsed_s)` runs after every pass; its time is not loop time.
template <typename Fn, typename Between>
LoopResult RunPasses(size_t n, double seconds, Fn&& request, Between&& between) {
  LoopResult out;
  const auto start = Clock::now();
  Clock::duration paused{};
  auto elapsed = [&] { return Seconds(Clock::now() - start - paused); };
  auto more = [&] {
    double e = elapsed();
    return out.passes.empty() || ((e < seconds || out.attempted < kMinRequests) && e < kHardLimitS);
  };
  while (more()) {
    PassTimes pass;
    for (size_t i = 0; i < n; ++i) {
      Timed t = request(i, out.passes.size());
      ++out.attempted;
      pass.busy_s += t.ms / 1e3;
      if (t.outcome == Outcome::kOk) {
        pass.ms.push_back(t.ms);
      } else {
        ++(t.outcome == Outcome::kError ? out.errors : out.wrong);
      }
    }
    out.passes.push_back(std::move(pass));
    const auto t0 = Clock::now();
    between(elapsed());
    paused += Clock::now() - t0;
  }
  return out;
}

// Latency statistics over the fastest kFastPassShare of passes (at least
// kMinRequests samples). On a shared host the CPU speed drifts by up to 2x
// over seconds; every pass runs the same requests, so ranking passes by busy
// time ranks host speed, and the fastest passes measure the program rather
// than its neighbours.
constexpr double kFastPassShare = 0.1;

struct LatencySummary {
  double p50 = 0, p95 = 0, qps = 0;
  size_t samples = 0, passes_used = 0;
  std::vector<bool> used;  // per pass: among the fastest
};

LatencySummary Summarize(const LoopResult& r) {
  std::vector<size_t> order(r.passes.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return r.passes[a].busy_s < r.passes[b].busy_s; });
  const size_t want = static_cast<size_t>(
      std::ceil(kFastPassShare * static_cast<double>(order.size())));
  LatencySummary s;
  s.used.assign(r.passes.size(), false);
  std::vector<double> ms;
  double busy = 0;
  for (size_t i : order) {
    if (s.passes_used >= want && ms.size() >= kMinRequests) {
      break;
    }
    const PassTimes& p = r.passes[i];
    ms.insert(ms.end(), p.ms.begin(), p.ms.end());
    busy += p.busy_s;
    s.used[i] = true;
    ++s.passes_used;
  }
  s.samples = ms.size();
  s.p50 = Percentile(ms, 50);
  s.p95 = Percentile(ms, 95);
  s.qps = busy > 0 ? static_cast<double>(ms.size()) / busy : 0;
  return s;
}

// The state one run shares between its phases.
class Bench {
 public:
  Bench(const Args& args, WorkloadKind kind) : args_(args), kind_(kind) {}

  int Main();

 private:
  Dataset Build();
  bool CheckAnswers();
  LoopResult MeasuredLoop(double seconds, std::map<std::string, IdStats>* per_id,
                          double* peak_rss_mb);
  LoopResult TracedLoop(double seconds, std::vector<Metric>* layer_metrics);
  void PrintCounterTable(const std::map<std::string, IdStats>& per_id) const;

  // A response is right when its digest matches the one the check recorded.
  bool RightAnswer(const Request& r, const ResultTable& t) const {
    auto it = digests_.find(r.key);
    return it != digests_.end() && it->second == ResultDigest(t);
  }

  const Args& args_;
  WorkloadKind kind_;
  Dataset data_;
  std::vector<double> setup_s_, build_s_, finalize_s_;
  RequestPlan plan_;
  std::unique_ptr<AiqlEngine> engine_;
  std::vector<PreparedQuery> prepared_;
  std::unordered_map<std::string, uint64_t> digests_;
  size_t oracle_mismatches_ = 0;
};

// Builds the workload's dataset from scratch and records its set-up time.
Dataset Bench::Build() {
  const auto t0 = Clock::now();
  Dataset d = BuildDataset(DatasetFor(kind_, args_.seed, 1.0));
  setup_s_.push_back(Seconds(Clock::now() - t0));
  build_s_.push_back(d.build_s);
  finalize_s_.push_back(d.finalize_s);
  return d;
}

// Runs every distinct request once on the measured engine and once on a
// fetch-filter engine over the same database; both must return the same rows.
// Anomaly requests only record their digest.
bool Bench::CheckAnswers() {
  AiqlEngine oracle(data_.db.get(), BenchEngineOptions(SchedulerKind::kFetchFilter));
  std::string error;
  std::vector<PreparedQuery> oracle_prepared = PrepareShapes(oracle, plan_, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "oracle prepare failed: %s\n", error.c_str());
    return false;
  }
  size_t checked = 0;
  for (const Request& r : plan_.sequence) {
    if (digests_.count(r.key) > 0) {
      continue;
    }
    Result<ResultTable> got = RunRequest(*engine_, prepared_, r);
    if (!got.ok()) {
      std::fprintf(stderr, "check: %s failed: %s\n", r.key.c_str(), got.error().c_str());
      ++oracle_mismatches_;
      continue;
    }
    digests_[r.key] = ResultDigest(got.value());
    ++checked;
    if (r.anomaly) {
      continue;
    }
    Result<ResultTable> want = RunRequest(oracle, oracle_prepared, r);
    if (!want.ok()) {
      std::fprintf(stderr, "check: oracle %s failed: %s\n", r.key.c_str(), want.error().c_str());
      ++oracle_mismatches_;
      continue;
    }
    ResultTable a = got.take();
    ResultTable b = want.take();
    a.SortRowsLexicographically();
    b.SortRowsLexicographically();
    if (!a.SameRowsAs(b)) {
      std::fprintf(stderr, "check: %s differs from the oracle (%zu vs %zu rows)\n",
                   r.key.c_str(), a.num_rows(), b.num_rows());
      ++oracle_mismatches_;
    }
  }
  std::printf("# answer check: %zu distinct requests, %zu differ from the fetch-filter oracle\n",
              checked, oracle_mismatches_);
  return oracle_mismatches_ == 0;
}

// The closed loop over the measured engine's public API. At kLoopBuilds evenly
// spaced moments it pauses for a throwaway set-up build, so that set-up is
// timed across the whole run and not only in the stretch of host speed the run
// starts in. *peak_rss_mb is the loop's own peak RSS: the high-water mark is
// reset before each stretch of passes and read after it, so neither the
// throwaway builds nor the phases before the loop count. It is -1 if the
// kernel refuses the reset.
LoopResult Bench::MeasuredLoop(double seconds, std::map<std::string, IdStats>* per_id,
                               double* peak_rss_mb) {
  bool reset_ok = ResetPeakRss();
  double peak_mb = 0;
  int builds = 0;
  auto request = [&](size_t i, size_t) {
    const Request& r = plan_.sequence[i];
    auto t0 = Clock::now();
    Result<ResultTable> res = RunRequest(*engine_, prepared_, r);
    double ms = Millis(Clock::now() - t0);
    if (!res.ok()) {
      return Timed{Outcome::kError, ms};
    }
    if (!RightAnswer(r, res.value())) {
      return Timed{Outcome::kWrongAnswer, ms};
    }
    IdStats& s = (*per_id)[r.id];
    s.ms.push_back(ms);
    s.sum += WorkCounters::From(res.value().exec_stats());
    return Timed{Outcome::kOk, ms};
  };
  LoopResult out = RunPasses(plan_.sequence.size(), seconds, request, [&](double elapsed) {
    if (builds < kLoopBuilds && elapsed >= seconds * (builds + 1) / (kLoopBuilds + 1)) {
      peak_mb = std::max(peak_mb, ProcStatusMb("VmHWM"));
      Build();  // released at once
      reset_ok = ResetPeakRss() && reset_ok;
      ++builds;
    }
  });
  peak_mb = std::max(peak_mb, ProcStatusMb("VmHWM"));
  for (; builds < kLoopBuilds; ++builds) {  // a loop shorter than kLoopBuilds + 1 passes
    Build();
  }
  *peak_rss_mb = reset_ok ? peak_mb : -1;
  return out;
}

// The traced loop: the same sequence through TracedRunner. Work counters come
// from the first full pass (deterministic); times from every traced request.
LoopResult Bench::TracedLoop(double seconds, std::vector<Metric>* m) {
  SpanLog log;
  TracedRunner runner(data_.db.get(), engine_->options(), plan_, &log);
  std::string error;
  if (!runner.Init(&error)) {
    std::fprintf(stderr, "traced prepare failed: %s\n", error.c_str());
    LoopResult failed;
    failed.attempted = failed.errors = 1;
    return failed;
  }
  const size_t n = plan_.sequence.size();
  ExecStats pass;  // summed over the first pass
  uint64_t pass_evictions = 0;
  runner.store().set_capture(true);
  LoopResult out = RunPasses(n, seconds, [&](size_t i, size_t p) {
    if (p == 1 && i == 0) {  // the first pass is over
      runner.store().set_capture(false);
      pass_evictions = runner.plan_cache_evictions();
    }
    const Request& r = plan_.sequence[i];
    log.set_request(static_cast<uint32_t>(p * n + i));
    auto t0 = Clock::now();
    Result<ResultTable> res = [&] {
      ScopedSpan root(&log, SpanKind::kRequest);
      return runner.Run(r);
    }();
    double ms = Millis(Clock::now() - t0);
    if (!res.ok()) {
      return Timed{Outcome::kError, ms};
    }
    if (!RightAnswer(r, res.value())) {
      return Timed{Outcome::kWrongAnswer, ms};
    }
    if (p == 0) {
      const ExecStats& s = res.value().exec_stats();
      pass.scan += s.scan;
      pass.data_queries += s.data_queries;
      pass.join_work += s.join_work;
      pass.final_tuples += s.final_tuples;
      pass.pushdown_applications += s.pushdown_applications;
      pass.plan_cache_hits += s.plan_cache_hits;
    }
    return Timed{Outcome::kOk, ms};
  }, [](double) {});
  if (out.passes.size() == 1) {
    pass_evictions = runner.plan_cache_evictions();
  }

  // Entity resolution of the first pass, replayed through the public
  // FindEntities at least three times and for at least 0.2 s; the fastest
  // replay counts, matching the fastest-pass latency figures.
  const std::vector<EntityLookup>& lookups = runner.store().lookups();
  double replay_total_s = 0;
  double replay_s = 0;
  for (int k = 0; k < 3 || replay_total_s < 0.2; ++k) {
    auto t0 = Clock::now();
    for (const EntityLookup& l : lookups) {
      data_.db->FindEntities(l.type, l.pred, l.agents);
    }
    double s = Seconds(Clock::now() - t0);
    replay_s = k == 0 ? s : std::min(replay_s, s);
    replay_total_s += s;
    if (lookups.empty()) {
      break;
    }
  }

  if (!args_.spans_out.empty() && !log.WriteCsv(args_.spans_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", args_.spans_out.c_str());
  }

  // Layer times come from the same fastest passes as the latency figures.
  const LatencySummary fast = Summarize(out);
  const SpanLog::Totals t = log.Summarize([&](uint32_t request) { return fast.used[request / n]; });
  const double reqs = static_cast<double>(std::max<size_t>(fast.passes_used * n, 1));
  auto self_ms = [&](std::initializer_list<SpanKind> kinds) {
    double ns = 0;
    for (SpanKind k : kinds) {
      ns += static_cast<double>(t.self_ns[static_cast<size_t>(k)]);
    }
    return ns / 1e6 / reqs;
  };
  double layers_ns = 0;  // every span but the request root
  for (size_t k = 1; k < kNumSpanKinds; ++k) {
    layers_ns += static_cast<double>(t.self_ns[k]);
  }
  const double request_ns = static_cast<double>(t.total_ns[0]);
  const double pass_n = static_cast<double>(std::max<size_t>(n, 1));
  auto per_req = [&](uint64_t v) { return static_cast<double>(v) / pass_n; };
  const double scanned = static_cast<double>(pass.scan.events_scanned);
  const double queries = static_cast<double>(pass.data_queries);

  *m = {
      {"lang.parse_ms", self_ms({SpanKind::kLangParse}), "ms"},
      {"lang.resolve_ms", self_ms({SpanKind::kLangResolve}), "ms"},
      {"lang.bind_ms", self_ms({SpanKind::kLangBind}), "ms"},
      {"storage.plan_ms", self_ms({SpanKind::kStoragePlan}), "ms"},
      {"storage.resolve_ms", replay_s * 1e3 / pass_n, "ms"},
      {"storage.scan_ms", self_ms({SpanKind::kStorageScan}), "ms"},
      {"storage.cache_ms",
       self_ms({SpanKind::kStorageFingerprint, SpanKind::kStorageCacheFind,
                SpanKind::kStorageCacheInsert}),
       "ms"},
      {"storage.fetch_self_ms", self_ms({SpanKind::kStorageFetch}), "ms"},
      {"storage.release_ms", self_ms({SpanKind::kStorageRelease}), "ms"},
      {"core.multievent_self_ms", self_ms({SpanKind::kCoreMultievent}), "ms"},
      {"core.anomaly_self_ms", self_ms({SpanKind::kCoreAnomaly}), "ms"},
      {"core.project_ms", self_ms({SpanKind::kCoreProject}), "ms"},
      {"trace.request_ms", request_ns / 1e6 / reqs, "ms"},
      {"trace.layer_coverage", request_ns > 0 ? layers_ns / request_ns : 0, "ratio"},
      {"storage.events_scanned", per_req(pass.scan.events_scanned), "count"},
      {"storage.partitions_scanned", per_req(pass.scan.partitions_scanned), "count"},
      {"storage.partitions_pruned", per_req(pass.scan.partitions_pruned), "count"},
      {"storage.index_lookups", per_req(pass.scan.index_lookups), "count"},
      {"storage.parallel_morsels", per_req(pass.scan.parallel_morsels), "count"},
      {"storage.scan_yield",
       scanned > 0 ? static_cast<double>(pass.scan.events_matched) / scanned : 0, "ratio"},
      {"storage.partitions_decoded", per_req(pass.scan.partitions_decoded), "count"},
      {"storage.decoded_mb", per_req(pass.scan.decoded_bytes) / (1024.0 * 1024.0), "MB"},
      {"storage.plan_cache.hit_ratio",
       queries > 0 ? static_cast<double>(pass.plan_cache_hits) / queries : 0, "ratio"},
      {"storage.plan_cache.evictions", static_cast<double>(pass_evictions), "count"},
      {"core.join_work", per_req(pass.join_work), "count"},
      {"core.final_tuples", per_req(pass.final_tuples), "count"},
      {"core.pushdown_applications", per_req(pass.pushdown_applications), "count"},
  };
  return out;
}

void Bench::PrintCounterTable(const std::map<std::string, IdStats>& per_id) const {
  std::printf("# per-request work counters (untraced loop; counters are per-request means)\n");
  std::printf("# %-8s %6s %10s %14s %12s %12s %12s %15s\n", "id", "n", "median_ms",
              "events_scanned", "join_work", "final_tuples", "data_queries", "plan_cache_hits");
  // Sequence order, so the table reads like the corpus.
  std::vector<std::string> order;
  for (const Request& r : plan_.sequence) {
    if (std::find(order.begin(), order.end(), r.id) == order.end()) {
      order.push_back(r.id);
    }
  }
  for (const std::string& id : order) {
    auto it = per_id.find(id);
    if (it == per_id.end()) {
      continue;
    }
    const IdStats& s = it->second;
    auto mean = [&](uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(s.ms.size());
    };
    std::printf("# %-8s %6zu %10.3f %14.1f %12.1f %12.1f %12.1f %15.1f\n", id.c_str(),
                s.ms.size(), Percentile(s.ms, 50), mean(s.sum.events_scanned),
                mean(s.sum.join_work), mean(s.sum.final_tuples), mean(s.sum.data_queries),
                mean(s.sum.plan_cache_hits));
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("# %s\n", title);
  for (const Metric& m : ms) {
    std::printf("#   %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(bool correct, size_t attempted, size_t failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Bench::Main() {
  const uint64_t bind_seed = args_.bind_seed.value_or(args_.seed);
  std::printf("# aiql perfbench: workload=%s seed=%llu bind_seed=%llu seconds=%g trace=%d\n",
              WorkloadName(kind_), static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(bind_seed), args_.seconds, args_.trace ? 1 : 0);
  data_ = Build();
  const Database& db = *data_.db;
  StorageFootprint fp = db.Footprint();
  std::printf("# dataset: %zu events, %zu partitions (%zu archived), decode cache %zu "
              "partitions, plan cache %zu entries\n",
              db.num_events(), fp.partitions, fp.archived_partitions,
              db.options().decode_cache_partitions, db.PlanCacheCapacity());

  plan_ = BuildRequestPlan(kind_, *data_.workload, bind_seed);
  engine_ = std::make_unique<AiqlEngine>(data_.db.get(), BenchEngineOptions());
  std::string error;
  prepared_ = PrepareShapes(*engine_, plan_, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "prepare failed: %s\n", error.c_str());
    return 1;
  }
  if (!plan_.shapes.empty()) {
    std::map<std::string, std::map<std::string, int>> binds;  // shape -> distinct binds
    for (const Request& r : plan_.sequence) {
      binds[r.id][r.key]++;
    }
    for (const auto& [shape, keys] : binds) {
      std::printf("# rebind shape %s: %zu distinct binds in a %zu-request pass\n",
                  shape.c_str(), keys.size(), plan_.sequence.size());
    }
  }
  bool correct = CheckAnswers();

  const double setup_check_peak_mb = ProcessPeakRssMb();
  std::map<std::string, IdStats> per_id;
  const double measured_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  double loop_peak_mb = -1;
  LoopResult loop = MeasuredLoop(measured_s, &per_id, &loop_peak_mb);
  const double peak_rss_mb = loop_peak_mb > 0 ? loop_peak_mb : ProcessPeakRssMb();
  std::printf("# rss: %.1f MB peak through set-up and answer check, %.1f MB peak of the %s\n",
              setup_check_peak_mb, peak_rss_mb,
              loop_peak_mb > 0 ? "timed loop" : "whole process (no peak reset)");
  PrintCounterTable(per_id);
  size_t attempted = loop.attempted;
  size_t failed = loop.errors + loop.wrong;
  correct = correct && loop.wrong == 0 && loop.errors == 0;
  const LatencySummary untraced = Summarize(loop);

  std::vector<Metric> layers;
  LoopResult traced;
  if (args_.trace) {
    traced = TracedLoop(args_.seconds / 2, &layers);
  }

  std::vector<Metric> e2e = {
      {"setup_s", Fastest(setup_s_), "s"},
      {"latency_ms.p50", untraced.p50, "ms"},
      {"latency_ms.p95", untraced.p95, "ms"},
      {"throughput_qps", untraced.qps, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintMetrics("end-to-end (untraced)", e2e);
  std::printf("#   %-30s %16.6f %s (%zu errors, %zu wrong answers of %zu requests)\n",
              "error_rate",
              static_cast<double>(failed) / static_cast<double>(std::max<size_t>(attempted, 1)),
              "ratio", loop.errors, loop.wrong, loop.attempted);
  std::printf("# latency samples: %zu requests from the fastest %zu of %zu passes\n",
              untraced.samples, untraced.passes_used, loop.passes.size());
  std::printf("# setup_s: fastest of %zu builds (one before the loop, %d inside it; median %.3f s)\n",
              setup_s_.size(), kLoopBuilds, Percentile(setup_s_, 50));

  if (!args_.trace) {
    PrintJson(correct, attempted, failed, e2e);
    return 0;
  }

  attempted += traced.attempted;
  failed += traced.errors + traced.wrong;
  // The traced path must reproduce the untraced answers exactly.
  correct = correct && traced.wrong == 0 && traced.errors == 0;
  const double traced_p50 = Summarize(traced).p50;
  layers.push_back({"trace.latency_ms.p50", traced_p50, "ms"});
  layers.push_back(
      {"trace.overhead_ratio", untraced.p50 > 0 ? traced_p50 / untraced.p50 : 0, "ratio"});
  layers.push_back({"workload.build_s", Fastest(build_s_), "s"});
  layers.push_back({"storage.finalize_s", Fastest(finalize_s_), "s"});
  PrintMetrics("per-layer (traced; times and counts are per-request means)", layers);
  std::printf("# traced loop: %zu requests, %zu errors, %zu answers differ from untraced\n",
              traced.attempted, traced.errors, traced.wrong);
  PrintJson(correct, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace aiql::perfbench

int main(int argc, char** argv) {
  using namespace aiql::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aiql_perfbench --workload case_study|history_hunt|rebind --seed N "
                 "--seconds S --trace 0|1 [--bind-seed N] [--spans-out FILE]\n");
    return 2;
  }
  std::optional<WorkloadKind> kind = ParseWorkloadKind(args.workload);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Bench bench(args, *kind);
  return bench.Main();
}
