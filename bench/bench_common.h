// Shared scaffolding for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper using the
// synthetic workload. Scale with AIQL_BENCH_SCALE (default 1.0): the default
// dataset is ~0.5M events (8 hosts x 3 days x 20k events); the paper's
// deployment was 2.5B events, so absolute times are not comparable — the
// SHAPE of the comparisons is what the benches reproduce (see
// EXPERIMENTS.md).
#ifndef AIQL_BENCH_BENCH_COMMON_H_
#define AIQL_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "src/core/engine.h"
#include "src/storage/database.h"
#include "src/workload/workload.h"

namespace aiql::bench {

inline double ScaleFromEnv() {
  const char* s = std::getenv("AIQL_BENCH_SCALE");
  if (s == nullptr) {
    return 1.0;
  }
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline int64_t BaselineBudgetMs() {
  const char* s = std::getenv("AIQL_BENCH_BUDGET_MS");
  if (s == nullptr) {
    return 30000;  // the analogue of the paper's 1-hour cap
  }
  return std::atoll(s);
}

inline ScenarioConfig DefaultScenario(double scale) {
  ScenarioConfig config;
  config.trace.num_hosts = 8;
  config.trace.num_days = 3;
  config.trace.events_per_host_per_day = static_cast<size_t>(20000 * scale);
  return config;
}

// Archive-tier knob: AIQL_ARCHIVE_AFTER_DAYS sets
// DatabaseOptions::archive_after_days for the archive ablation rows
// (0 = archive every partition, < 0 disables). Absent or malformed -> the
// fallback; 0 is meaningful, so garbage must not parse as 0.
inline int64_t ArchiveAfterDaysFromEnv(int64_t fallback) {
  const char* s = std::getenv("AIQL_ARCHIVE_AFTER_DAYS");
  if (s == nullptr || *s == '\0') {
    return fallback;
  }
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "ignoring malformed AIQL_ARCHIVE_AFTER_DAYS=%s\n", s);
    return fallback;
  }
  return static_cast<int64_t>(v);
}

struct World {
  ScenarioConfig config;
  std::unique_ptr<Database> optimized;  // time/space partitions + indexes
  std::unique_ptr<Database> baseline;   // monolithic storage (+ indexes)
  std::unique_ptr<Workload> workload;   // bound to `optimized`
};

// Builds the workload into the optimized store and, with `with_baseline`, the
// monolithic baseline store (identical event streams).
inline World BuildWorld(double scale, bool with_baseline,
                        DatabaseOptions optimized_options = {}) {
  World w;
  w.config = DefaultScenario(scale);
  w.optimized = std::make_unique<Database>(optimized_options);
  w.workload = std::make_unique<Workload>(w.config, w.optimized.get());
  w.workload->Build();
  w.optimized->Finalize();
  if (with_baseline) {
    w.baseline = std::make_unique<Database>(
        DatabaseOptions{.scheme = PartitionScheme::kNone, .build_indexes = true});
    Workload baseline_workload(w.config, w.baseline.get());
    baseline_workload.Build();
    w.baseline->Finalize();
  }
  return w;
}

// Wall-clock milliseconds of one invocation.
template <typename F>
double TimeMs(F&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Timing {
  double ms = 0;
  bool over_budget = false;
  bool ok = true;
  std::string error;
  // Work counters of a successful run.
  uint64_t events_scanned = 0;
  uint64_t join_work = 0;
};

// Runs a query on an engine, reporting budget blowouts like the paper's
// ">1 hour" entries.
inline Timing RunQuery(AiqlEngine& engine, const std::string& text) {
  Timing t;
  t.ms = TimeMs([&] {
    auto r = engine.Execute(text);
    if (r.ok()) {
      t.events_scanned = r.value().exec_stats().scan.events_scanned;
      t.join_work = r.value().exec_stats().join_work;
    } else {
      if (r.error().find("budget") != std::string::npos) {
        t.over_budget = true;
      } else {
        t.ok = false;
        t.error = r.error();
      }
    }
  });
  return t;
}

inline std::string FormatTiming(const Timing& t) {
  char buf[48];
  if (!t.ok) {
    return "ERROR";
  }
  if (t.over_budget) {
    std::snprintf(buf, sizeof(buf), ">%.0fs(cap)", static_cast<double>(BaselineBudgetMs()) / 1000);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.1f", t.ms);
  return buf;
}

}  // namespace aiql::bench

#endif  // AIQL_BENCH_BENCH_COMMON_H_
