// End-to-end example: build a small synthetic enterprise trace, inject the
// paper's APT scenario, and run one investigation query, printing the result
// table and the storage-layer statistics (partitions pruned via zone maps,
// events skipped without being touched).
//
// The second half demonstrates the prepare/bind/execute lifecycle: the
// initial-compromise pattern is compiled once with $agent/$from/$to
// parameters, then re-bound to different time windows without re-preparing —
// repeated runs serve their scan plans from the prepared query's cache.
//
//   ./investigate [events_per_host_per_day] [--param name=value ...]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/workload/workload.h"

using namespace aiql;

namespace {

// The c1-1 initial-compromise pattern with the spatial and temporal
// constraints lifted into $parameters.
constexpr const char* kCompromiseTemplate = R"(agentid = $agent (from $from to $to)
proc p1["%outlook.exe"] read ip i1 as evt1
proc p1 write file f1["%.xls"] as evt2
proc p1 start proc p2["%excel.exe"] as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, f1, p2)";

void PrintUsage(const char* prog) {
  std::printf(
      "usage: %s [events_per_host_per_day] [--param name=value ...]\n"
      "       %s --help\n"
      "\n"
      "End-to-end AIQL demo: builds a synthetic 6-host, 2-day enterprise\n"
      "trace with the paper's APT attack injected, runs the first case-study\n"
      "investigation query (c1-1: the initial-compromise pattern), and prints\n"
      "the result table plus storage-layer scan statistics.\n"
      "\n"
      "It then prepares the same pattern as a $parameterized template\n"
      "(engine.Prepare), binds it (PreparedQuery::Bind), and re-binds a\n"
      "different time window without re-preparing; the second run of each\n"
      "binding serves its scan plans from the prepared query's plan cache.\n"
      "\n"
      "arguments:\n"
      "  events_per_host_per_day   background events generated per host per\n"
      "                            day (default 5000; scales dataset size)\n"
      "  --param name=value        bind a template parameter explicitly.\n"
      "                            The template declares $agent (host id),\n"
      "                            $from and $to (datetime strings), e.g.:\n"
      "                            --param agent=1 --param from=01/02/2017\n"
      "                            --param \"to=01/03/2017\"\n"
      "\n"
      "The engine auto-sizes its scan parallelism to the machine's hardware\n"
      "concurrency; multi-core machines fan the partition scans out over a\n"
      "work queue of one entry per surviving partition (see ARCHITECTURE.md,\n"
      "\"Parallel query execution\").\n",
      prog, prog);
}

void PrintScanStats(const ExecStats& stats) {
  const ScanStats& scan = stats.scan;
  std::printf("scan stats: %llu partitions scanned, %llu pruned, %llu events scanned, "
              "%llu skipped, %llu matched, %llu index lookups, %llu plan-cache hits\n",
              static_cast<unsigned long long>(scan.partitions_scanned),
              static_cast<unsigned long long>(scan.partitions_pruned),
              static_cast<unsigned long long>(scan.events_scanned),
              static_cast<unsigned long long>(scan.events_skipped),
              static_cast<unsigned long long>(scan.events_matched),
              static_cast<unsigned long long>(scan.index_lookups),
              static_cast<unsigned long long>(stats.plan_cache_hits));
}

bool RunBinding(const PreparedQuery& prepared, const ParamSet& params, const char* label) {
  Result<BoundQuery> bound = prepared.Bind(params);
  if (!bound.ok()) {
    std::printf("bind error: %s\n", bound.error().c_str());
    return false;
  }
  Result<ResultTable> result = bound.value().Run();
  if (!result.ok()) {
    std::printf("error: %s\n", result.error().c_str());
    return false;
  }
  std::printf("--- binding: %s -> %zu row(s) ---\n%s", label, result.value().num_rows(),
              result.value().ToString().c_str());
  // Run the same binding again: the compiled scan plans are reused.
  Result<ResultTable> again = bound.value().Run();
  if (again.ok()) {
    PrintScanStats(again.value().exec_stats());
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t events_per_host_per_day = 5000;
  std::vector<std::pair<std::string, std::string>> cli_params;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--param") == 0) {
      if (i + 1 >= argc || std::strchr(argv[i + 1], '=') == nullptr) {
        std::printf("--param expects name=value (see --help)\n");
        return 1;
      }
      std::string kv = argv[++i];
      size_t eq = kv.find('=');
      cli_params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      continue;
    }
    char* end = nullptr;
    size_t n = std::strtoull(argv[i], &end, 10);
    if (argv[i][0] == '-' || end == argv[i] || *end != '\0') {
      std::printf("unrecognized argument '%s' (see --help)\n", argv[i]);
      return 1;
    }
    events_per_host_per_day = n;
  }

  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.num_days = 2;
  config.trace.events_per_host_per_day = events_per_host_per_day;

  Database db;  // columnar partitions + zone maps + secondary indexes
  Workload workload(config, &db);
  workload.Build();
  db.Finalize();
  std::printf("dataset: %zu events, %zu partitions\n\n", db.num_events(), db.num_partitions());

  const AiqlEngine engine(&db, EngineOptions{.time_budget_ms = 60000});

  // --- one-shot execution, as an interactive analyst would start ---------
  QuerySpec spec = workload.CaseStudyQueries().front();
  std::printf("query %s (one-shot Execute):\n%s\n\n", spec.id.c_str(), spec.text.c_str());
  Result<ResultTable> result = engine.Execute(spec.text);
  if (!result.ok()) {
    std::printf("error: %s\n", result.error().c_str());
    return 1;
  }
  std::printf("%s", result.value().ToString().c_str());
  PrintScanStats(result.value().exec_stats());

  // --- prepare once, re-bind the time window ------------------------------
  std::printf("\nprepared template:\n%s\n\n", kCompromiseTemplate);
  Result<PreparedQuery> prepared = engine.Prepare(kCompromiseTemplate);
  if (!prepared.ok()) {
    std::printf("prepare error: %s\n", prepared.error().c_str());
    return 1;
  }

  if (!cli_params.empty()) {
    // Explicit binding from the command line.
    ParamSet params;
    std::string label;
    for (const auto& [name, value] : cli_params) {
      params.Set(name, value);
      label += (label.empty() ? "" : ", ") + name + "=" + value;
    }
    return RunBinding(prepared.value(), params, label.c_str()) ? 0 : 1;
  }

  // Default demo: the attack day hits, the quiet day before it does not —
  // same PreparedQuery, two Binds, no re-parsing in between.
  std::string quiet_from = config.DateString(0);
  std::string attack_from = config.DateString(config.attack_day);
  std::string attack_to = config.DateString(config.attack_day + 1);
  bool ok = RunBinding(prepared.value(),
                       ParamSet().Set("agent", 1).Set("from", quiet_from).Set("to", attack_from),
                       ("quiet day " + quiet_from).c_str());
  ok = RunBinding(prepared.value(),
                  ParamSet().Set("agent", 1).Set("from", attack_from).Set("to", attack_to),
                  ("attack day " + attack_from).c_str()) &&
       ok;
  return ok ? 0 : 1;
}
