// Golden corpus: per-query work counters and answers, pinned in a checked-in
// file (tests/golden/corpus.txt).
//
// At a small fixed scale, every corpus query — the 26 case-study queries, the
// 19 behavior queries and the anomaly query (paper Query 5) — runs on the
// relationship scheduler with one scan thread. Each line of the golden file
// holds the query id, events_scanned, join_work, final_tuples, the row count,
// an FNV-1a digest of the rendered rows in lexicographic order, and
// window_group_evals (the anomaly windows' (window, group) evaluations). Any
// difference fails the test and prints one line per changed query.
//
// A change that is meant to move these numbers (a new plan order, a new
// answer) regenerates the file and shows the diff in review:
//
//   AIQL_UPDATE_GOLDEN=1 ./build/golden_corpus_test
//
// A second run builds the same data with every partition archived and a
// one-partition decode cache, scans on two threads, and drops the decode
// cache before each query, so every query decodes exactly the columns its
// own data queries ask for (DataQuery::columns). It must reproduce the same
// file: a column the engine reads but the mask leaves out shows here (and
// aborts under _GLIBCXX_ASSERTIONS, which bounds-checks the empty column).
//
// A third case pins the ablations of the paper's evaluation on the same data
// (tests/golden/ablation.txt): every corpus query under the full engine,
// pushdown off, the paper's and no relationship ordering, one monolithic
// partition, no indexes, and every partition archived. Each line holds the
// configuration, the query id, events_scanned, partitions_pruned,
// partitions_pruned_entity, index_lookups, bitmap_probes and join_work;
// the case also asserts the shape the paper reports on their sums.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

#include "src/core/engine.h"
#include "src/workload/workload.h"
#include "tests/golden_file.h"

namespace aiql {
namespace {

const char* const kGoldenPath = AIQL_SOURCE_DIR "/tests/golden/corpus.txt";
const char* const kColumns =
    "id events_scanned join_work final_tuples rows digest window_group_evals";
const char* const kAblationPath = AIQL_SOURCE_DIR "/tests/golden/ablation.txt";
const char* const kAblationColumns =
    "config id events_scanned partitions_pruned partitions_pruned_entity index_lookups "
    "bitmap_probes join_work";

// FNV-1a over the rendered rows, lexicographic row order, with field and row
// separators.
uint64_t RowsDigest(ResultTable table) {
  table.SortRowsLexicographically();
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) { h = (h ^ c) * 1099511628211ULL; };
  for (const std::vector<Value>& row : table.rows()) {
    for (const Value& v : row) {
      for (unsigned char c : v.ToString()) {
        mix(c);
      }
      mix(0xff);
    }
    mix(0xfe);
  }
  return h;
}

// How the corpus data is stored and scanned.
struct CorpusRun {
  DatabaseOptions db;
  EngineOptions engine{.parallelism = 1};
  bool cold_decode = false;  // drop the decode cache before each query
};

// Runs every corpus query under `run`, in corpus order, and returns one line
// per query: `render`'s, or "<id> error" for a query that fails.
std::vector<std::string> RunCorpus(
    const CorpusRun& run,
    const std::function<std::string(const QuerySpec&, const ResultTable&)>& render) {
  ScenarioConfig config;  // 8 hosts over 3 days
  config.trace.events_per_host_per_day = 3000;
  Database db(run.db);
  Workload workload(config, &db);
  workload.Build();
  db.Finalize();

  std::vector<QuerySpec> queries = workload.CaseStudyQueries();
  for (const QuerySpec& q : workload.BehaviorQueries()) {
    queries.push_back(q);
  }
  queries.push_back(workload.CaseStudyAnomalyQuery());

  const AiqlEngine engine(&db, run.engine);
  std::vector<std::string> lines;
  for (const QuerySpec& q : queries) {
    if (run.cold_decode) {
      db.decode_cache().Clear();
    }
    Result<ResultTable> r = engine.Execute(q.text);
    if (!r.ok()) {
      ADD_FAILURE() << q.id << ": " << r.error();
      lines.push_back(q.id + " error");
      continue;
    }
    lines.push_back(render(q, r.value()));
  }
  return lines;
}

// The golden lines (kColumns), in corpus order.
std::vector<std::string> CorpusLines(const CorpusRun& run) {
  return RunCorpus(run, [](const QuerySpec& q, const ResultTable& table) {
    const ExecStats& s = table.exec_stats();
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(RowsDigest(table)));
    std::ostringstream line;
    line << q.id << ' ' << s.scan.events_scanned << ' ' << s.join_work << ' ' << s.final_tuples
         << ' ' << table.num_rows() << ' ' << digest << ' ' << s.window_group_evals;
    return line.str();
  });
}

TEST(GoldenCorpusTest, CountersAndAnswersMatchGoldenFile) {
  const std::vector<std::string> got = CorpusLines(CorpusRun{});
  ASSERT_EQ(got.size(), 46u);  // 26 case-study + 19 behavior + 1 anomaly

  const std::optional<std::string> diff = golden::CompareOrUpdate(
      kGoldenPath,
      {kColumns,
       "Written by tests/golden_corpus_test.cc; regenerate with",
       "  AIQL_UPDATE_GOLDEN=1 ./build/golden_corpus_test"},
      got);
  if (!diff.has_value()) {
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  EXPECT_TRUE(diff->empty()) << "corpus counters or answers changed (" << kColumns << "):\n"
                             << *diff;
}

TEST(GoldenCorpusTest, ColdArchivedRunMatchesGoldenFile) {
  const std::vector<std::string> got = CorpusLines(CorpusRun{
      .db = DatabaseOptions{.archive_after_days = 0, .decode_cache_partitions = 1},
      .engine = EngineOptions{.parallelism = 2},
      .cold_decode = true});
  ASSERT_EQ(got.size(), 46u);
  const std::string diff = golden::Compare(kGoldenPath, got);
  EXPECT_TRUE(diff.empty()) << "the cold archived run differs from the golden file ("
                            << kColumns << "):\n"
                            << diff;
}

// One ablation row of the paper's evaluation: a name and how it runs.
struct Ablation {
  const char* name;
  CorpusRun run;
};

// The corpus's summed work counters under one ablation.
struct AblationSums {
  uint64_t events_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t index_lookups = 0;
  uint64_t bitmap_probes = 0;
  uint64_t join_work = 0;
};

TEST(GoldenCorpusTest, AblationCountersMatchGoldenFile) {
  const std::vector<Ablation> ablations = {
      {"full", {}},
      {"pushdown_off", {.engine = EngineOptions{.parallelism = 1, .pushdown = false}}},
      {"order_paper",
       {.engine = EngineOptions{.parallelism = 1, .ordering = RelationshipOrdering::kPaper}}},
      {"order_none",
       {.engine = EngineOptions{.parallelism = 1, .ordering = RelationshipOrdering::kNone}}},
      {"monolithic", {.db = DatabaseOptions{.scheme = PartitionScheme::kNone}}},
      {"no_indexes", {.db = DatabaseOptions{.build_indexes = false}}},
      {"archived", {.db = DatabaseOptions{.archive_after_days = 0}}},
  };
  std::vector<std::string> got;
  std::map<std::string, AblationSums> sums;
  for (const Ablation& a : ablations) {
    AblationSums& sum = sums[a.name];
    const std::vector<std::string> lines =
        RunCorpus(a.run, [&](const QuerySpec& q, const ResultTable& table) {
          const ExecStats& s = table.exec_stats();
          sum.events_scanned += s.scan.events_scanned;
          sum.partitions_pruned += s.scan.partitions_pruned;
          sum.index_lookups += s.scan.index_lookups;
          sum.bitmap_probes += s.scan.bitmap_probes;
          sum.join_work += s.join_work;
          std::ostringstream line;
          line << a.name << ' ' << q.id << ' ' << s.scan.events_scanned << ' '
               << s.scan.partitions_pruned << ' ' << s.scan.partitions_pruned_entity << ' '
               << s.scan.index_lookups << ' ' << s.scan.bitmap_probes << ' ' << s.join_work;
          return line.str();
        });
    ASSERT_EQ(lines.size(), 46u) << a.name;
    got.insert(got.end(), lines.begin(), lines.end());
  }

  // The paper's shape: pushdown and the time/space partitioning each cut
  // the events scanned, posting lists are the only index lookups, and the
  // cost ordering joins less than the paper's.
  const AblationSums& full = sums["full"];
  EXPECT_LT(full.events_scanned, sums["pushdown_off"].events_scanned);
  EXPECT_EQ(sums["monolithic"].partitions_pruned, 0u);
  EXPECT_LT(full.events_scanned, sums["monolithic"].events_scanned);
  EXPECT_EQ(sums["no_indexes"].index_lookups, 0u);
  EXPECT_LT(sums["monolithic"].events_scanned, sums["no_indexes"].events_scanned);
  EXPECT_GT(sums["no_indexes"].bitmap_probes, 0u);
  EXPECT_LT(full.join_work, sums["order_paper"].join_work);
  // Archiving changes where columns live, not what a query touches.
  EXPECT_EQ(sums["archived"].events_scanned, full.events_scanned);
  EXPECT_EQ(sums["archived"].join_work, full.join_work);

  const std::optional<std::string> diff = golden::CompareOrUpdate(
      kAblationPath,
      {kAblationColumns,
       "Written by tests/golden_corpus_test.cc; regenerate with",
       "  AIQL_UPDATE_GOLDEN=1 ./build/golden_corpus_test"},
      got);
  if (!diff.has_value()) {
    GTEST_SKIP() << "rewrote " << kAblationPath;
  }
  EXPECT_TRUE(diff->empty()) << "ablation counters changed (" << kAblationColumns << "):\n"
                             << *diff;
}

}  // namespace
}  // namespace aiql
