// Prepare/bind/execute lifecycle tests: PreparedQuery/BoundQuery semantics,
// $parameter binding, plan-cache reuse across Runs, per-session cancellation,
// and a randomized property test asserting Prepare-once/Bind-many results are
// identical to fresh one-shot Execute with literals substituted — at
// parallelism 1/8.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/engine.h"
#include "src/mpp/mpp_cluster.h"
#include "src/storage/database.h"
#include "src/util/rng.h"

namespace aiql {
namespace {

// Same fixture shape as engine_test: one host, an attack-like chain + noise.
class PreparedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = MakeTimestamp(2017, 1, 1, 12, 0, 0);
    cmd_ = db_.catalog().InternProcess(1, 10, "C:\\Windows\\cmd.exe", "alice");
    osql_ = db_.catalog().InternProcess(1, 11, "C:\\SQL\\osql.exe", "alice");
    sqlservr_ = db_.catalog().InternProcess(1, 12, "C:\\SQL\\sqlservr.exe", "system");
    mal_ = db_.catalog().InternProcess(1, 13, "C:\\Temp\\sbblv.exe", "alice");
    dump_ = db_.catalog().InternFile(1, "C:\\DB\\BACKUP1.DMP");
    doc_ = db_.catalog().InternFile(1, "C:\\Users\\doc.txt");
    atk_ = db_.catalog().InternNetwork(1, "10.0.0.1", "XXX.129", 1111, 443);

    db_.RecordEvent(1, cmd_, Operation::kStart, EntityType::kProcess, osql_, t0_);
    db_.RecordEvent(1, sqlservr_, Operation::kWrite, EntityType::kFile, dump_,
                    t0_ + 2 * kMinuteMs, 1000000);
    db_.RecordEvent(1, mal_, Operation::kRead, EntityType::kFile, dump_, t0_ + 4 * kMinuteMs);
    db_.RecordEvent(1, mal_, Operation::kWrite, EntityType::kNetwork, atk_,
                    t0_ + 6 * kMinuteMs, 500000);
    db_.RecordEvent(1, cmd_, Operation::kRead, EntityType::kFile, doc_, t0_ + kMinuteMs);
    db_.RecordEvent(1, sqlservr_, Operation::kWrite, EntityType::kFile, doc_,
                    t0_ + 10 * kMinuteMs);
    db_.Finalize();
  }

  Database db_;
  uint32_t cmd_, osql_, sqlservr_, mal_, dump_, doc_, atk_;
  TimestampMs t0_;
};

constexpr const char* kChainTemplate = R"(
    agentid = $agent (at $day)
    proc p1[$cmd] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 write ip i1[dstip = "XXX.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1)";

constexpr const char* kChainLiteral = R"(
    agentid = 1 (at "01/01/2017")
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 write ip i1[dstip = "XXX.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1)";

TEST_F(PreparedQueryTest, PrepareBindRunMatchesOneShotExecute) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(kChainTemplate);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  ASSERT_EQ(prepared.value().params().size(), 3u);
  EXPECT_EQ(prepared.value().params()[1].name, "day");
  EXPECT_EQ(prepared.value().params()[1].type, ParamType::kTimestamp);

  auto bound = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", "01/01/2017").Set("cmd", "%cmd.exe"));
  ASSERT_TRUE(bound.ok()) << bound.error();
  auto via_prepared = bound.value().Run();
  ASSERT_TRUE(via_prepared.ok()) << via_prepared.error();

  auto one_shot = engine.Execute(kChainLiteral);
  ASSERT_TRUE(one_shot.ok()) << one_shot.error();
  EXPECT_TRUE(via_prepared.value().SameRowsAs(one_shot.value()));
  EXPECT_EQ(via_prepared.value().ToString(), one_shot.value().ToString());
  ASSERT_EQ(via_prepared.value().num_rows(), 1u);
}

TEST_F(PreparedQueryTest, SecondRunHitsPlanCache) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(kChainTemplate);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", "01/01/2017").Set("cmd", "%cmd.exe"));
  ASSERT_TRUE(bound.ok()) << bound.error();

  auto first = bound.value().Run();
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value().exec_stats().plan_cache_hits, 0u);

  auto second = bound.value().Run();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_GT(second.value().exec_stats().plan_cache_hits, 0u);
  EXPECT_TRUE(second.value().SameRowsAs(first.value()));
  // Cached planning replays its recorded counters: aggregate scan statistics
  // are identical run to run.
  EXPECT_EQ(second.value().exec_stats().scan.events_scanned,
            first.value().exec_stats().scan.events_scanned);
  EXPECT_EQ(second.value().exec_stats().scan.partitions_pruned,
            first.value().exec_stats().scan.partitions_pruned);

  // Re-binding the same values reuses the same cache across bindings too.
  auto rebound = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", "01/01/2017").Set("cmd", "%cmd.exe"));
  ASSERT_TRUE(rebound.ok()) << rebound.error();
  auto third = rebound.value().Run();
  ASSERT_TRUE(third.ok()) << third.error();
  EXPECT_GT(third.value().exec_stats().plan_cache_hits, 0u);
}

// A prepared query run again after the database was re-finalized sees the
// events recorded since: plans cached under the earlier finalization are not
// reused. Covers an event appended into an existing partition and into a new
// one, hot and archived partitions, and an engine over MPP segments rebuilt
// from the re-finalized database.
TEST(PreparedRefinalizeTest, RerunAfterRefinalizeSeesNewEvents) {
  constexpr const char* kTwoDays = R"(
      agentid = 1 (from "2017-01-01 00:00" to "2017-01-03 00:00")
      proc p1["%cmd.exe"] read file f1 as evt1
      return f1, evt1.amount)";
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1, 12, 0, 0);
  for (const bool new_partition : {false, true}) {
    for (const int archive_after_days : {-1, 0}) {
      for (const bool mpp : {false, true}) {
        SCOPED_TRACE(std::string(new_partition ? "new" : "existing") + " partition, archive " +
                     std::to_string(archive_after_days) + (mpp ? ", mpp" : ""));
        DatabaseOptions options;
        options.archive_after_days = archive_after_days;
        Database db(options);
        const uint32_t cmd = db.catalog().InternProcess(1, 10, "C:\\Windows\\cmd.exe");
        const uint32_t doc = db.catalog().InternFile(1, "C:\\doc.txt");
        db.RecordEvent(1, cmd, Operation::kRead, EntityType::kFile, doc, t0, 100);
        db.Finalize();
        MppCluster cluster(2, DistributionPolicy::kSemanticsAware, options);
        if (mpp) {
          cluster.BuildFrom(db);
        }
        const AiqlEngine engine(mpp ? static_cast<const EventStore*>(&cluster) : &db);
        auto prepared = engine.Prepare(kTwoDays);
        ASSERT_TRUE(prepared.ok()) << prepared.error();
        auto bound = prepared.value().Bind(ParamSet());
        ASSERT_TRUE(bound.ok()) << bound.error();
        auto before = bound.value().Run();
        ASSERT_TRUE(before.ok()) << before.error();
        EXPECT_EQ(before.value().num_rows(), 1u);

        const TimestampMs t = new_partition ? t0 + kDayMs : t0 + kMinuteMs;
        db.RecordEvent(1, cmd, Operation::kRead, EntityType::kFile, doc, t, 200);
        db.Finalize();
        if (mpp) {
          cluster.BuildFrom(db);
        }
        auto after = bound.value().Run();
        ASSERT_TRUE(after.ok()) << after.error();
        auto fresh = engine.Execute(kTwoDays);
        ASSERT_TRUE(fresh.ok()) << fresh.error();
        EXPECT_EQ(fresh.value().num_rows(), 2u);
        EXPECT_TRUE(after.value().SameRowsAs(fresh.value()))
            << "rerun:\n" << after.value().ToString() << "fresh:\n" << fresh.value().ToString();
      }
    }
  }
}

TEST_F(PreparedQueryTest, RebindTimeWindowWithoutRepreparing) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(kChainTemplate);
  ASSERT_TRUE(prepared.ok()) << prepared.error();

  auto attack_day = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", "01/01/2017").Set("cmd", "%cmd.exe"));
  ASSERT_TRUE(attack_day.ok()) << attack_day.error();
  auto hit = attack_day.value().Run();
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_EQ(hit.value().num_rows(), 1u);

  auto quiet_day = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", "01/02/2017").Set("cmd", "%cmd.exe"));
  ASSERT_TRUE(quiet_day.ok()) << quiet_day.error();
  auto miss = quiet_day.value().Run();
  ASSERT_TRUE(miss.ok()) << miss.error();
  EXPECT_EQ(miss.value().num_rows(), 0u);
}

TEST_F(PreparedQueryTest, ExecuteRejectsUnboundParameters) {
  const AiqlEngine engine(&db_);
  auto r = engine.Execute(kChainTemplate);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unbound parameter $agent"), std::string::npos);
}

TEST_F(PreparedQueryTest, BindDiagnostics) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(kChainTemplate);
  ASSERT_TRUE(prepared.ok()) << prepared.error();

  auto missing = prepared.value().Bind(ParamSet().Set("agent", 1));
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("unbound parameter $"), std::string::npos);

  auto unknown = prepared.value().Bind(ParamSet()
                                           .Set("agent", 1)
                                           .Set("day", "01/01/2017")
                                           .Set("cmd", "%cmd.exe")
                                           .Set("typo", 7));
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("unknown parameter $typo"), std::string::npos);

  auto mistyped = prepared.value().Bind(
      ParamSet().Set("agent", 1).Set("day", 20170101).Set("cmd", "%cmd.exe"));
  ASSERT_FALSE(mistyped.ok());
  EXPECT_NE(mistyped.error().find("expects a datetime string"), std::string::npos);
}

TEST_F(PreparedQueryTest, PrepareValidatesInferenceEagerly) {
  const AiqlEngine engine(&db_);
  // 'bogus' is not a process attribute: the error must surface at Prepare,
  // before any Bind.
  auto prepared = engine.Prepare("proc p1[bogus = $x] read file f1 return p1");
  ASSERT_FALSE(prepared.ok());
  EXPECT_NE(prepared.error().find("bogus"), std::string::npos);
}

TEST_F(PreparedQueryTest, AnomalyHavingThresholdParameter) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(R"(
      (at $day)
      agentid = 1
      window = 1 min, step = 1 min
      proc p write file f as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > $thr)");
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto strict = prepared.value().Bind(ParamSet().Set("day", "01/01/2017").Set("thr", 500000));
  ASSERT_TRUE(strict.ok()) << strict.error();
  auto strict_result = strict.value().Run();
  ASSERT_TRUE(strict_result.ok()) << strict_result.error();
  EXPECT_EQ(strict_result.value().num_rows(), 1u);  // only the 1MB dump write

  auto lax = prepared.value().Bind(ParamSet().Set("day", "01/01/2017").Set("thr", -1));
  ASSERT_TRUE(lax.ok()) << lax.error();
  auto lax_result = lax.value().Run();
  ASSERT_TRUE(lax_result.ok()) << lax_result.error();
  EXPECT_GT(lax_result.value().num_rows(), strict_result.value().num_rows());
}

TEST_F(PreparedQueryTest, SessionCancellationAborts) {
  const AiqlEngine engine(&db_);
  auto prepared = engine.Prepare(kChainLiteral);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind();
  ASSERT_TRUE(bound.ok()) << bound.error();

  ExecutionSession session;
  session.RequestCancel();  // cancelled before the first pattern fetch
  auto r = bound.value().Run(&session);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("cancelled"), std::string::npos);
}

TEST_F(PreparedQueryTest, SessionTimeBudgetOverridesEngine) {
  const AiqlEngine engine(&db_);  // no engine-level budget
  auto prepared = engine.Prepare(kChainLiteral);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind();
  ASSERT_TRUE(bound.ok()) << bound.error();
  ExecutionSession session;
  session.time_budget_ms = 60000;
  auto r = bound.value().Run(&session);
  ASSERT_TRUE(r.ok()) << r.error();  // generous budget: still succeeds
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(PreparedQueryTest, PlanCacheStaysBoundedUnderDistinctWindowRebinds) {
  // PR-5 bugfix: the plan cache was an unbounded map, and since the plan
  // began pinning per-survivor entity bitmaps, a long-lived PreparedQuery
  // re-bound across many distinct time windows grew without limit. With
  // capacity 8, a 1000-distinct-window re-bind loop must evict exactly
  // 1000 - 8 entries (every window is a distinct constraint fingerprint and
  // a cache miss), leaving at most `capacity` resident.
  DatabaseOptions opts;
  opts.plan_cache_capacity = 8;
  Database db{opts};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/w");
  uint32_t f = db.catalog().InternFile(1, "/w/f");
  for (int i = 0; i < 2000; ++i) {
    db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f,
                   MakeTimestamp(2017, 1, 1) + i * kMinuteMs);
  }
  db.Finalize();
  const AiqlEngine engine(&db, EngineOptions{.parallelism = 1});
  auto prepared =
      engine.Prepare("agentid = 1 (from $t0 to $t1) proc p1 write file f1 return p1");
  ASSERT_TRUE(prepared.ok()) << prepared.error();

  const int kWindows = 1000;
  uint64_t last_evictions = 0;
  uint64_t hits = 0;
  for (int i = 0; i < kWindows; ++i) {
    char t0[32], t1[32];
    std::snprintf(t0, sizeof(t0), "2017-01-01 %02d:%02d", i / 60, i % 60);
    std::snprintf(t1, sizeof(t1), "2017-01-01 %02d:%02d", (i + 1) / 60, (i + 1) % 60);
    auto bound = prepared.value().Bind(ParamSet().Set("t0", t0).Set("t1", t1));
    ASSERT_TRUE(bound.ok()) << bound.error();
    auto r = bound.value().Run();
    ASSERT_TRUE(r.ok()) << r.error();
    hits += r.value().exec_stats().plan_cache_hits;
    last_evictions = r.value().exec_stats().plan_cache_evictions;
  }
  EXPECT_EQ(hits, 0u);  // every window is a distinct constraint set
  EXPECT_EQ(last_evictions, static_cast<uint64_t>(kWindows) - 8u);

  // Re-running a recent window still hits; an evicted one replans.
  auto recent = prepared.value().Bind(
      ParamSet().Set("t0", "2017-01-01 16:39").Set("t1", "2017-01-01 16:40"));
  ASSERT_TRUE(recent.ok()) << recent.error();
  auto rr = recent.value().Run();
  ASSERT_TRUE(rr.ok()) << rr.error();
  EXPECT_GT(rr.value().exec_stats().plan_cache_hits, 0u);
}

// --- randomized property: Prepare-once/Bind-many == fresh Execute ----------

class PreparedPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PreparedPropertyTest, BindManyMatchesLiteralExecute) {
  const size_t parallelism = GetParam();
  Database db;
  Rng rng(271828);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 12; ++i) {
    procs.push_back(db.catalog().InternProcess(1 + i % 4, 100 + i, "/bin/p" + std::to_string(i),
                                               i % 2 == 0 ? "root" : "alice"));
  }
  for (int i = 0; i < 40; ++i) {
    files.push_back(db.catalog().InternFile(1 + i % 4, "/d/f" + std::to_string(i)));
  }
  for (int i = 0; i < 6000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    AgentId agent = db.catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = files[rng.Below(files.size())];
    } while (db.catalog().AgentOf(EntityType::kFile, obj) != agent);
    db.RecordEvent(agent, subj, rng.Chance(0.5) ? Operation::kRead : Operation::kWrite,
                   EntityType::kFile, obj, base + static_cast<TimestampMs>(rng.Below(2 * kDayMs)),
                   rng.Range(0, 10000));
  }
  db.Finalize();

  const AiqlEngine engine(&db, EngineOptions{.parallelism = parallelism});
  auto prepared = engine.Prepare(R"(
      agentid = $agent (from $t0 to $t1)
      proc p1[$pat] read || write file f1 as evt1[amount > $thr]
      proc p2 write file f1 as evt2
      with evt1 before evt2
      return p1, p2, f1, evt1.amount
      sort by evt1.amount desc
      top 50)");
  ASSERT_TRUE(prepared.ok()) << prepared.error();

  const char* kDays[] = {"2017-01-01", "2017-01-02", "2017-01-03"};
  for (int trial = 0; trial < 24; ++trial) {
    int64_t agent = rng.Range(1, 4);
    int64_t thr = rng.Range(0, 10000);
    std::string pat = "%p" + std::to_string(rng.Below(12)) + "%";
    const char* t0 = kDays[rng.Below(2)];
    const char* t1 = kDays[rng.Below(2) + 1];

    auto bound = prepared.value().Bind(ParamSet()
                                           .Set("agent", agent)
                                           .Set("t0", t0)
                                           .Set("t1", t1)
                                           .Set("pat", pat)
                                           .Set("thr", thr));
    ASSERT_TRUE(bound.ok()) << bound.error();
    auto via_prepared = bound.value().Run();
    ASSERT_TRUE(via_prepared.ok()) << via_prepared.error();

    // The reference: a fresh one-shot Execute of the literal-substituted text
    // (fresh engine, so no shared state of any kind).
    std::string literal = std::string("agentid = ") + std::to_string(agent) + " (from \"" + t0 +
                          "\" to \"" + t1 + "\")\n" +
                          "proc p1[\"" + pat + "\"] read || write file f1 as evt1[amount > " +
                          std::to_string(thr) + "]\n" +
                          "proc p2 write file f1 as evt2\n"
                          "with evt1 before evt2\n"
                          "return p1, p2, f1, evt1.amount\n"
                          "sort by evt1.amount desc\n"
                          "top 50";
    const AiqlEngine fresh(&db, EngineOptions{.parallelism = parallelism});
    auto one_shot = fresh.Execute(literal);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error() << "\n" << literal;
    // top 50 bounds the table, so the rendering covers every row: the
    // prepared-path output is byte-identical to the one-shot reference.
    EXPECT_EQ(via_prepared.value().ToString(10000), one_shot.value().ToString(10000))
        << "trial " << trial << "\n" << literal;
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, PreparedPropertyTest, ::testing::Values(1, 8),
                         [](const auto& info) { return "P" + std::to_string(info.param); });

}  // namespace
}  // namespace aiql
