// aiqlsh: a small interactive AIQL shell over a synthetic deployment or an
// ingested audit log.
//
// Usage:
//   aiqlsh                      # synthetic workload (default scenario)
//   aiqlsh trace.log            # ingest an audit log (src/ingest format)
//
// Enter a query terminated by an empty line; ".help" lists commands.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/core/engine.h"
#include "src/ingest/audit_log.h"
#include "src/workload/workload.h"

using namespace aiql;

namespace {

void PrintHelp() {
  std::printf(
      ".help                this text\n"
      ".stats               database statistics\n"
      ".scheduler NAME      aiql | aiql-ff | bigjoin\n"
      ".quit                exit\n"
      "Anything else: an AIQL query, terminated by an empty line.\n"
      "Example:\n"
      "  agentid = 2 (at \"01/02/2017\")\n"
      "  proc p1 write ip i1[dstip = \"XXX.129\"] as evt1\n"
      "  return distinct p1, i1\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  ScenarioConfig config;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    AuditLogParser parser(&db);
    IngestReport report = parser.IngestText(buffer.str());
    std::printf("ingested %zu records (%zu errors) from %s\n", report.records_ingested,
                report.errors.size(), argv[1]);
    for (size_t i = 0; i < report.errors.size() && i < 5; ++i) {
      std::printf("  line %zu: %s\n", report.errors[i].line_number,
                  report.errors[i].message.c_str());
    }
  } else {
    config.trace.num_hosts = 8;
    config.trace.events_per_host_per_day = 8000;
    config.trace.num_days = 3;
    Workload workload(config, &db);
    workload.Build();
    std::printf("synthetic deployment: attack day is %s; hosts 1..%u\n",
                config.DateString(config.attack_day).c_str(), config.trace.num_hosts);
  }
  db.Finalize();
  std::printf("%zu events, %zu entities. Type .help for help.\n\n", db.num_events(),
              db.catalog().total_entities());

  EngineOptions options{.parallelism = 2, .time_budget_ms = 60000};
  std::string line, query;
  std::printf("aiql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (query.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") {
        break;
      }
      if (line == ".help") {
        PrintHelp();
      } else if (line == ".stats") {
        std::printf("events: %zu, partitions: %zu, entities: %zu, days:", db.num_events(),
                    db.num_partitions(), db.catalog().total_entities());
        for (int64_t day : db.DayIndices()) {
          std::printf(" %s", FormatTimestamp(DayStart(day)).substr(0, 10).c_str());
        }
        std::printf("\n");
      } else if (line.rfind(".scheduler ", 0) == 0) {
        std::string name = line.substr(11);
        if (name == "aiql") {
          options.scheduler = SchedulerKind::kRelationship;
        } else if (name == "aiql-ff") {
          options.scheduler = SchedulerKind::kFetchFilter;
        } else if (name == "bigjoin") {
          options.scheduler = SchedulerKind::kBigJoin;
        } else {
          std::printf("unknown scheduler '%s'\n", name.c_str());
        }
      } else {
        std::printf("unknown command %s\n", line.c_str());
      }
      std::printf("aiql> ");
      std::fflush(stdout);
      continue;
    }
    if (!line.empty()) {
      query += line + "\n";
      std::printf("  ... ");
      std::fflush(stdout);
      continue;
    }
    if (query.empty()) {
      std::printf("aiql> ");
      std::fflush(stdout);
      continue;
    }
    AiqlEngine engine(&db, options);
    double ms;
    {
      auto start = std::chrono::steady_clock::now();
      auto r = engine.Execute(query);
      ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
               .count();
      if (!r.ok()) {
        std::printf("error: %s\n", r.error().c_str());
      } else {
        std::printf("%s(%zu rows, %.1f ms, %s scheduler)\n", r.value().ToString(40).c_str(),
                    r.value().num_rows(), ms, SchedulerKindName(options.scheduler));
      }
    }
    query.clear();
    std::printf("aiql> ");
    std::fflush(stdout);
  }
  return 0;
}
