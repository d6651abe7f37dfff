// Core engine tests: executors, projector, temporal semantics, anomaly
// execution, budgets — on a small hand-crafted database.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/engine.h"
#include "src/core/projector.h"
#include "src/core/tuple_set.h"
#include "src/storage/database.h"
#include "tests/event_table.h"

namespace aiql {
namespace {

// Fixture: one host, a six-event attack-like chain plus noise.
class EngineTest : public ::testing::Test {
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
    // Noise.
    db_.RecordEvent(1, cmd_, Operation::kRead, EntityType::kFile, doc_, t0_ + kMinuteMs);
    db_.RecordEvent(1, sqlservr_, Operation::kWrite, EntityType::kFile, doc_,
                    t0_ + 10 * kMinuteMs);
    db_.Finalize();
  }

  Result<ResultTable> Run(const std::string& text, SchedulerKind scheduler) {
    AiqlEngine engine(&db_, EngineOptions{.scheduler = scheduler});
    return engine.Execute(text);
  }

  Database db_;
  uint32_t cmd_, osql_, sqlservr_, mal_, dump_, doc_, atk_;
  TimestampMs t0_;
};

constexpr const char* kChainQuery = R"(
    agentid = 1 (at "01/01/2017")
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 write ip i1[dstip = "XXX.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1)";

TEST_F(EngineTest, ChainQueryFindsAttack) {
  auto r = Run(kChainQuery, SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  const auto& row = r.value().rows()[0];
  EXPECT_EQ(row[0].ToString(), "C:\\Windows\\cmd.exe");
  EXPECT_EQ(row[3].ToString(), "C:\\DB\\BACKUP1.DMP");
  EXPECT_EQ(row[5].ToString(), "XXX.129");
}

TEST_F(EngineTest, AllSchedulersAgree) {
  auto relationship = Run(kChainQuery, SchedulerKind::kRelationship);
  auto ff = Run(kChainQuery, SchedulerKind::kFetchFilter);
  auto bigjoin = Run(kChainQuery, SchedulerKind::kBigJoin);
  ASSERT_TRUE(relationship.ok()) << relationship.error();
  ASSERT_TRUE(ff.ok()) << ff.error();
  ASSERT_TRUE(bigjoin.ok()) << bigjoin.error();
  EXPECT_TRUE(relationship.value().SameRowsAs(ff.value()));
  EXPECT_TRUE(relationship.value().SameRowsAs(bigjoin.value()));
}

TEST_F(EngineTest, TemporalBeforeIsStrict) {
  // evt2 before evt1 is unsatisfiable for the injected chain.
  auto r = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt2 before evt1
      return p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 0u);
}

TEST_F(EngineTest, TemporalRangeBounds) {
  // The dump write happens exactly 2 minutes after the osql start.
  auto within = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt1 before[1-3 minutes] evt2
      return p1)",
                    SchedulerKind::kRelationship);
  ASSERT_TRUE(within.ok()) << within.error();
  EXPECT_EQ(within.value().num_rows(), 1u);
  auto outside = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt1 before[3-10 minutes] evt2
      return p1)",
                     SchedulerKind::kRelationship);
  ASSERT_TRUE(outside.ok()) << outside.error();
  EXPECT_EQ(outside.value().num_rows(), 0u);
}

TEST_F(EngineTest, WithinIsSymmetric) {
  auto r = Run(R"(
      agentid = 1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      with evt1 within [0-5 minutes] evt2
      return p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(EngineTest, EventAttributeConstraint) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write ip i1 as evt1[amount > 100000]
      return p1, evt1.amount)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][1].as_int(), 500000);
}

TEST_F(EngineTest, IntraPatternRelationship) {
  // Subject/object attribute comparison within a single pattern.
  auto r = Run(R"(
      agentid = 1
      proc p1 start proc p2 as evt1
      with p1.user = p2.user
      return p1, p2)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);  // cmd(alice) starts osql(alice)
}

TEST_F(EngineTest, CountAll) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write file f1
      return count p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].as_int(), 2);  // dump + doc writes
}

TEST_F(EngineTest, GroupByAggregation) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write file f1
      return p1, count(f1) as n
      group by p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].ToString(), "C:\\SQL\\sqlservr.exe");
  EXPECT_EQ(r.value().rows()[0][1].as_int(), 2);
}

TEST_F(EngineTest, HavingFiltersGroups) {
  auto r = Run(R"(
      agentid = 1
      proc p1 read || write file f1
      return p1, count(f1) as n
      group by p1
      having n > 1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);  // only sqlservr touches 2 files
}

TEST_F(EngineTest, SortAndTop) {
  auto r = Run(R"(
      agentid = 1
      proc p1 read || write file f1 as evt1
      return p1, f1, evt1.start_time
      sort by evt1.start_time desc
      top 2)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_GE(r.value().rows()[0][2].as_int(), r.value().rows()[1][2].as_int());
}

TEST_F(EngineTest, DistinctCollapsesDuplicates) {
  db_.RecordEvent(1, mal_, Operation::kRead, EntityType::kFile, dump_, t0_ + 5 * kMinuteMs);
  db_.Finalize();
  auto r = Run(R"(
      agentid = 1
      proc p1["%sbblv.exe"] read file f1
      return distinct p1, f1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(EngineTest, BudgetAborts) {
  AiqlEngine engine(&db_, EngineOptions{.scheduler = SchedulerKind::kBigJoin,
                                        .max_join_work = 2});
  auto r = engine.Execute(R"(
      agentid = 1
      proc p1 read || write file f1 as evt1
      proc p2 read || write file f2 as evt2
      with evt1 before evt2
      return p1, p2)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("budget"), std::string::npos);
}

// The join budget stops on the run's ScanContext at its row check cadence
// (BudgetGuard::kStopCheckRows), with the same diagnostics as every other
// layer.
// The time budget a run arms covers its projection too: the session holds
// the run's one scan context, so ProjectResults on that session stops once
// the deadline ExecuteMultievent armed has passed. Re-running on the same
// session with no budget clears the deadline.
TEST_F(EngineTest, ProjectionHonorsTheRunDeadline) {
  Result<QueryContext> ctx = CompileQuery(kChainQuery);
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ExecutionSession session;
  Result<TupleSet> tuples = ExecuteMultievent(db_, ctx.value(),
                                              ExecOptions{.time_budget_ms = 200}, nullptr,
                                              &session);
  ASSERT_TRUE(tuples.ok()) << tuples.error();
  ASSERT_EQ(tuples.value().num_rows(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Result<ResultTable> late = ProjectResults(ctx.value(), tuples.value(), db_.catalog(), &session);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error(), "execution budget exceeded: time limit reached");

  tuples = ExecuteMultievent(db_, ctx.value(), ExecOptions{}, nullptr, &session);
  ASSERT_TRUE(tuples.ok()) << tuples.error();
  Result<ResultTable> unbudgeted =
      ProjectResults(ctx.value(), tuples.value(), db_.catalog(), &session);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.error();
  EXPECT_EQ(unbudgeted.value().num_rows(), 1u);
}

TEST(BudgetGuardTest, ChargeStopsOnACancelledOrExpiredContext) {
  std::atomic<bool> cancel{true};
  const ScanContext cancelled{.cancel = &cancel};
  const ScanContext expired{
      .deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      .has_deadline = true};
  const ScanContext live;
  struct Case {
    const ScanContext* ctx;
    const char* error;  // null = the charge succeeds
  };
  for (const Case& c : {Case{&cancelled, "execution cancelled"},
                        Case{&expired, "execution budget exceeded: time limit reached"},
                        Case{&live, nullptr}, Case{nullptr, nullptr}}) {
    BudgetGuard guard(/*max_rows=*/0, c.ctx);
    EXPECT_TRUE(guard.Charge(1).ok());  // below the check cadence
    Status s = guard.Charge(4096);
    if (c.error == nullptr) {
      EXPECT_TRUE(s.ok()) << s.message();
    } else {
      EXPECT_EQ(s.message(), c.error);
    }
  }
}

// A join that examines many rows but emits none (every probe misses its
// bucket, fails a residual relationship or falls outside the temporal window,
// or the build side alone is large) still sees a cancelled run: the stop
// check runs over visited rows, not only over produced ones, and visits
// charge nothing to the budget.
TEST(TupleJoinerTest, JoinsThatEmitNothingStopOnCancellation) {
  constexpr size_t kRows = 100000;
  const EntityCatalog catalog;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  // The big side: kRows events with amount 7, all after the small side's
  // single event (at t0, with amount `small_amount`).
  std::vector<Event> big(kRows);
  for (Event& e : big) {
    e.start_time = t0 + 1000;
    e.amount = 7;
  }
  std::vector<Event> small(1);
  small[0].start_time = t0;
  const EventColumns big_table = EventTable(big);
  auto matches = [](size_t pattern, const EventColumns& table) {
    return TupleSet::FromMatches(pattern, ViewsOf(table));
  };
  auto same_amount = [] {
    Relationship r;
    const AttrDef* amount = FindAttr(AttrOwner::kEvent, "amount");
    r.attr = AttrRelation{.left_pattern = 0, .left_side = RefSide::kEvent,
                          .left_attr = amount, .right_pattern = 1,
                          .right_side = RefSide::kEvent, .right_attr = amount};
    return r;
  };
  auto big_before_small = [](size_t big_pattern) {  // never true here
    Relationship r;
    r.kind = Relationship::Kind::kTemp;
    r.temp = TempRelation{.left_pattern = big_pattern, .right_pattern = 1 - big_pattern};
    return r;
  };

  struct Case {
    const char* name;
    bool big_left;  // the big side probes (left) or is built (right)
    int64_t small_amount;
    std::vector<Relationship> rels;
  };
  const Case cases[] = {
      {"hash probes miss every bucket", true, 8, {same_amount()}},
      {"hash probes fail the residual", true, 7, {same_amount(), big_before_small(0)}},
      {"hash build side is big", false, 8, {same_amount()}},
      {"temporal probes find no window", true, 7, {big_before_small(0)}},
      {"temporal build side is big", false, 7, {big_before_small(1)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    small[0].amount = c.small_amount;
    const EventColumns small_table = EventTable(small);
    const TupleSet left = c.big_left ? matches(0, big_table) : matches(0, small_table);
    const TupleSet right = c.big_left ? matches(1, small_table) : matches(1, big_table);
    std::atomic<bool> cancel{false};
    const ScanContext ctx{.cancel = &cancel};
    {
      BudgetGuard live(/*max_rows=*/0, &ctx);
      auto r = TupleJoiner(catalog, &live, JoinStrategy{}).Join(left, right, c.rels);
      ASSERT_TRUE(r.ok()) << r.error();
      EXPECT_EQ(r.value().num_rows(), 0u);
    }
    cancel = true;
    BudgetGuard guard(/*max_rows=*/0, &ctx);
    auto r = TupleJoiner(catalog, &guard, JoinStrategy{}).Join(left, right, c.rels);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "execution cancelled");
    EXPECT_EQ(guard.rows_produced(), 0u);
  }
}

// A TupleSet is one flat EventView array with stride = pattern count. A
// fetch moves in without a copy, a pattern-less set has no rows, every join
// family writes each output row as the left row then the right row, in the
// same order, and Filter compacts whole rows.
TEST(TupleSetTest, FlatRowsJoinLeftThenRight) {
  EXPECT_EQ(TupleSet().num_rows(), 0u);
  const EntityCatalog catalog;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  std::vector<Event> events(4);  // ids 0-3, one second apart, amounts 0 1 0 1
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].id = static_cast<int64_t>(i);
    events[i].start_time = t0 + static_cast<TimestampMs>(i) * 1000;
    events[i].amount = static_cast<int64_t>(i % 2);
  }
  const EventColumns table = EventTable(events);
  std::vector<EventView> views = ViewsOf(table);
  const EventView* fetched = views.data();
  const TupleSet left = TupleSet::FromMatches(0, std::move(views));
  EXPECT_EQ(left.Row(0).data(), fetched);
  const TupleSet right = TupleSet::FromMatches(1, {EventView(&table, 1), EventView(&table, 2)});
  auto ids = [](const TupleSet& set) {
    std::vector<std::vector<int64_t>> out;
    for (size_t r = 0; r < set.num_rows(); ++r) {
      std::vector<int64_t>& row = out.emplace_back();
      for (const EventView& e : set.Row(r)) {
        row.push_back(e.id());
      }
    }
    return out;
  };
  Relationship same_amount;
  const AttrDef* amount = FindAttr(AttrOwner::kEvent, "amount");
  same_amount.attr = AttrRelation{.left_pattern = 0, .left_side = RefSide::kEvent,
                                  .left_attr = amount, .right_pattern = 1,
                                  .right_side = RefSide::kEvent, .right_attr = amount};
  Relationship before;
  before.kind = Relationship::Kind::kTemp;
  before.temp = TempRelation{.left_pattern = 0, .right_pattern = 1};
  const std::vector<std::vector<int64_t>> by_amount = {{0, 2}, {1, 1}, {2, 2}, {3, 1}};
  const std::vector<std::vector<int64_t>> by_time = {{0, 1}, {0, 2}, {1, 2}};
  for (bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "hash and temporal joins" : "nested loops");
    BudgetGuard budget;
    TupleJoiner joiner(catalog, &budget, JoinStrategy{.indexed = indexed});
    Result<TupleSet> equal = joiner.Join(left, right, {same_amount});
    ASSERT_TRUE(equal.ok()) << equal.error();
    EXPECT_EQ(equal.value().patterns(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(ids(equal.value()), by_amount);
    Result<TupleSet> timed = joiner.Join(left, right, {before});
    ASSERT_TRUE(timed.ok()) << timed.error();
    EXPECT_EQ(ids(timed.value()), by_time);
    TupleSet filtered = equal.take();
    filtered.Filter(before, catalog);
    EXPECT_EQ(ids(filtered), (std::vector<std::vector<int64_t>>{{0, 2}}));
  }
}

TEST_F(EngineTest, ParseErrorSurfaces) {
  auto r = Run("proc p1 banana file f1 return p1", SchedulerKind::kRelationship);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("banana"), std::string::npos);
}

TEST_F(EngineTest, StatsPopulated) {
  AiqlEngine engine(&db_, EngineOptions{});
  auto r = engine.Execute(kChainQuery);
  ASSERT_TRUE(r.ok()) << r.error();
  const ExecStats& stats = r.value().exec_stats();
  EXPECT_EQ(stats.pattern_matches.size(), 4u);
  EXPECT_GT(stats.data_queries, 0u);
  EXPECT_GT(stats.pushdown_applications, 0u);
  EXPECT_EQ(stats.final_tuples, 1u);
}

TEST_F(EngineTest, PushdownDisabledStillCorrect) {
  AiqlEngine engine(&db_,
                    EngineOptions{.pushdown = false, .ordering = RelationshipOrdering::kNone});
  auto r = engine.Execute(kChainQuery);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().exec_stats().pushdown_applications, 0u);
}

// --- anomaly execution ---

class AnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = MakeTimestamp(2017, 1, 1, 0, 0, 0);
    uploader_ = db_.catalog().InternProcess(1, 20, "/usr/bin/uploader", "bob");
    dst_ = db_.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
    // Baseline: 10 KB per minute for 30 minutes, then a 1-minute burst.
    for (int i = 0; i < 30; ++i) {
      db_.RecordEvent(1, uploader_, Operation::kWrite, EntityType::kNetwork, dst_,
                      t0_ + i * kMinuteMs, 10240);
    }
    for (int i = 0; i < 6; ++i) {
      db_.RecordEvent(1, uploader_, Operation::kWrite, EntityType::kNetwork, dst_,
                      t0_ + 30 * kMinuteMs + i * 10 * kSecondMs, 10 << 20);
    }
    db_.Finalize();
  }

  Database db_;
  uint32_t uploader_, dst_;
  TimestampMs t0_;
};

TEST_F(AnomalyTest, MovingAverageDetectsSpike) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].ToString(), FormatTimestamp(t0_ + 30 * kMinuteMs));
}

TEST_F(AnomalyTest, HistoryStatesPerGroup) {
  // A second process with constant traffic must never alert.
  uint32_t calm = db_.catalog().InternProcess(1, 21, "/usr/bin/calm", "bob");
  for (int i = 0; i < 36; ++i) {
    db_.RecordEvent(1, calm, Operation::kWrite, EntityType::kNetwork, dst_, t0_ + i * kMinuteMs,
                    4 << 20);
  }
  db_.Finalize();
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  // The SMA3 formula alerts on any cold start (empty history); skip the
  // first three windows and require calm silence afterwards.
  TimestampMs warmup = t0_ + 3 * kMinuteMs;
  for (const auto& row : r.value().rows()) {
    if (row[1].ToString() == "/usr/bin/calm") {
      auto parsed = ParseDateTime(row[0].ToString().substr(0, 19));
      ASSERT_TRUE(parsed.ok());
      EXPECT_LT(parsed.value(), warmup) << row[0].ToString();
    }
  }
}

TEST_F(AnomalyTest, EwmaBuiltinDetectsSpike) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having (amt - EWMA(amt, 0.9)) / (EWMA(amt, 0.9) + 1) > 0.2 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(AnomalyTest, CountDistinctAggregate) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 5 min, step = 5 min
      proc p write ip i as evt
      return p, count(distinct i) as nips
      group by p
      having nips > 0)");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_GT(r.value().num_rows(), 0u);
  for (const auto& row : r.value().rows()) {
    EXPECT_EQ(row[2].as_int(), 1);  // single destination throughout
  }
}

TEST_F(AnomalyTest, TumblingWindowDefaultStep) {
  AiqlEngine engine(&db_);
  // step omitted -> step = window (tumbling).
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 10 min
      proc p write ip i as evt
      return p, count(i) as n
      group by p
      having n > 0)");
  ASSERT_TRUE(r.ok()) << r.error();
  // 4 active 10-minute tumbling windows (0-10, 10-20, 20-30, 30-40).
  EXPECT_EQ(r.value().num_rows(), 4u);
}

TEST_F(AnomalyTest, WindowLoopHonorsTimeBudget) {
  // The fetch is tiny; ~2.7M one-second windows are not. The budget must stop
  // the window loop itself instead of letting it run to completion.
  AiqlEngine engine(&db_, EngineOptions{.time_budget_ms = 1});
  auto r = engine.Execute(R"(
      (from "01/01/2017" to "02/01/2017")
      agentid = 1
      window = 1 sec, step = 1 sec
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "execution budget exceeded: time limit reached");
}

// --- moving-average math ---

TEST(MovingAverageTest, Sma) {
  std::vector<double> s{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Sma(s, 2), 3.5);
  EXPECT_DOUBLE_EQ(Sma(s, 10), 2.5);  // clamps to available history
  EXPECT_DOUBLE_EQ(Sma({}, 3), 0);
}

TEST(MovingAverageTest, Cma) {
  EXPECT_DOUBLE_EQ(Cma({2, 4, 6}), 4);
}

TEST(MovingAverageTest, Wma) {
  // Weights 2,1 over the last two values: (2*4 + 1*3) / 3.
  EXPECT_DOUBLE_EQ(Wma({3, 4}, 2), (2 * 4 + 1 * 3) / 3.0);
}

TEST(MovingAverageTest, EwmaConvergesToConstant) {
  std::vector<double> s(50, 7.0);
  EXPECT_NEAR(Ewma(s, 0.9), 7.0, 1e-9);
}

TEST(MovingAverageTest, EwmaWeightsHistory) {
  // alpha=0.9: one spike barely moves the average.
  std::vector<double> s(20, 1.0);
  s.push_back(100.0);
  EXPECT_LT(Ewma(s, 0.9), 15.0);
}

}  // namespace
}  // namespace aiql
