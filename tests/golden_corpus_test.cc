// Golden corpus: per-query work counters and answers, pinned in a checked-in
// file (tests/golden/corpus.txt).
//
// At a small fixed scale, every corpus query — the 26 case-study queries, the
// 19 behavior queries and the anomaly query (paper Query 5) — runs on the
// relationship scheduler with one scan thread. Each line of the golden file
// holds the query id, events_scanned, join_work, final_tuples, the row count
// and an FNV-1a digest of the rendered rows in lexicographic order. Any
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
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/core/engine.h"
#include "src/workload/workload.h"
#include "tests/golden_file.h"

namespace aiql {
namespace {

const char* const kGoldenPath = AIQL_SOURCE_DIR "/tests/golden/corpus.txt";

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

// How CorpusLines stores and scans the corpus data.
struct CorpusRun {
  DatabaseOptions db;
  size_t parallelism = 1;
  bool cold_decode = false;  // drop the decode cache before each query
};

// The golden lines ("id events_scanned join_work final_tuples rows digest"),
// in corpus order.
std::vector<std::string> CorpusLines(const CorpusRun& run) {
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

  const AiqlEngine engine(&db, EngineOptions{.parallelism = run.parallelism});
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
    const ExecStats& s = r.value().exec_stats();
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(RowsDigest(r.value())));
    std::ostringstream line;
    line << q.id << ' ' << s.scan.events_scanned << ' ' << s.join_work << ' ' << s.final_tuples
         << ' ' << r.value().num_rows() << ' ' << digest;
    lines.push_back(line.str());
  }
  return lines;
}

TEST(GoldenCorpusTest, CountersAndAnswersMatchGoldenFile) {
  const std::vector<std::string> got = CorpusLines(CorpusRun{});
  ASSERT_EQ(got.size(), 46u);  // 26 case-study + 19 behavior + 1 anomaly

  const std::optional<std::string> diff = golden::CompareOrUpdate(
      kGoldenPath,
      {"id events_scanned join_work final_tuples rows digest",
       "Written by tests/golden_corpus_test.cc; regenerate with",
       "  AIQL_UPDATE_GOLDEN=1 ./build/golden_corpus_test"},
      got);
  if (!diff.has_value()) {
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  EXPECT_TRUE(diff->empty()) << "corpus counters or answers changed "
                             << "(id events_scanned join_work final_tuples rows digest):\n"
                             << *diff;
}

TEST(GoldenCorpusTest, ColdArchivedRunMatchesGoldenFile) {
  const std::vector<std::string> got = CorpusLines(CorpusRun{
      .db = DatabaseOptions{.archive_after_days = 0, .decode_cache_partitions = 1},
      .parallelism = 2,
      .cold_decode = true});
  ASSERT_EQ(got.size(), 46u);
  const std::string diff = golden::Compare(kGoldenPath, got);
  EXPECT_TRUE(diff.empty()) << "the cold archived run differs from the golden file "
                            << "(id events_scanned join_work final_tuples rows digest):\n"
                            << diff;
}

}  // namespace
}  // namespace aiql
