// Concurrency tests for the re-entrant engine facade: many threads executing
// against a single const AiqlEngine (shared thread pool, shared plan cache)
// must race-free produce identical results, each with its own stats.
// CI runs this binary under ThreadSanitizer (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/storage/database.h"

namespace aiql {
namespace {

constexpr const char* kChainQuery = R"(
    agentid = 1 (at "01/01/2017")
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 write ip i1[dstip = "XXX.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1)";

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TimestampMs t0 = MakeTimestamp(2017, 1, 1, 12, 0, 0);
    uint32_t cmd = db_.catalog().InternProcess(1, 10, "C:\\Windows\\cmd.exe", "alice");
    uint32_t osql = db_.catalog().InternProcess(1, 11, "C:\\SQL\\osql.exe", "alice");
    uint32_t sqlservr = db_.catalog().InternProcess(1, 12, "C:\\SQL\\sqlservr.exe", "system");
    uint32_t mal = db_.catalog().InternProcess(1, 13, "C:\\Temp\\sbblv.exe", "alice");
    uint32_t dump = db_.catalog().InternFile(1, "C:\\DB\\BACKUP1.DMP");
    uint32_t atk = db_.catalog().InternNetwork(1, "10.0.0.1", "XXX.129", 1111, 443);
    db_.RecordEvent(1, cmd, Operation::kStart, EntityType::kProcess, osql, t0);
    db_.RecordEvent(1, sqlservr, Operation::kWrite, EntityType::kFile, dump, t0 + 2 * kMinuteMs,
                    1000000);
    db_.RecordEvent(1, mal, Operation::kRead, EntityType::kFile, dump, t0 + 4 * kMinuteMs);
    db_.RecordEvent(1, mal, Operation::kWrite, EntityType::kNetwork, atk, t0 + 6 * kMinuteMs,
                    500000);
    // Noise across more partitions so parallel scans have real morsels.
    for (int i = 0; i < 500; ++i) {
      db_.RecordEvent(1, cmd, Operation::kRead, EntityType::kFile, dump,
                      t0 + (i % 300) * kSecondMs);
    }
    db_.Finalize();
  }

  Database db_;
};

// The acceptance bar from the redesign: >= 4 concurrent executions against a
// single const engine, TSan-clean, all agreeing with a serial reference.
TEST_F(ConcurrencyTest, ConcurrentExecuteOnOneConstEngine) {
  const AiqlEngine engine(&db_, EngineOptions{.parallelism = 4});
  auto reference = engine.Execute(kChainQuery);
  ASSERT_TRUE(reference.ok()) << reference.error();

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 5;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        auto r = engine.Execute(kChainQuery);
        // Each result carries the stats of the run that produced it.
        if (!r.ok() || !r.value().SameRowsAs(reference.value()) ||
            r.value().exec_stats().data_queries == 0) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

// One BoundQuery shared by many threads: per-run sessions isolate stats, the
// plan cache is hit concurrently, and every run returns the same table.
TEST_F(ConcurrencyTest, ConcurrentRunsShareOnePlanCache) {
  const AiqlEngine engine(&db_, EngineOptions{.parallelism = 4});
  auto prepared = engine.Prepare(kChainQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind();
  ASSERT_TRUE(bound.ok()) << bound.error();

  auto reference = bound.value().Run();
  ASSERT_TRUE(reference.ok()) << reference.error();

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  std::vector<uint64_t> hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        auto r = bound.value().Run();
        if (!r.ok() || !r.value().SameRowsAs(reference.value())) {
          ++failures[t];
        } else {
          hits[t] += r.value().exec_stats().plan_cache_hits;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t total_hits = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    total_hits += hits[t];
  }
  EXPECT_GT(total_hits, 0u);  // the warmed cache served concurrent runs
}

// Cancellation from another thread: a session flag set mid-run aborts without
// racing (cooperative checks at fetch/join/projection boundaries).
TEST_F(ConcurrencyTest, CancelFromAnotherThread) {
  const AiqlEngine engine(&db_, EngineOptions{.parallelism = 2});
  auto prepared = engine.Prepare(kChainQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind();
  ASSERT_TRUE(bound.ok()) << bound.error();

  ExecutionSession session;
  std::thread canceller([&] { session.RequestCancel(); });
  auto r = bound.value().Run(&session);
  canceller.join();
  // Depending on timing the run either completed or aborted with the
  // cancellation diagnostic; both are valid, racing is not.
  if (!r.ok()) {
    EXPECT_NE(r.error().find("cancelled"), std::string::npos);
  }
}

}  // namespace
}  // namespace aiql
