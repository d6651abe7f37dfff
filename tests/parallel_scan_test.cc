// Parallel-scan equivalence: the pooled partition scan (ExecuteQueryCached
// with a pool, on Database and MppCluster) must be indistinguishable from the
// serial path — byte-identical result sequences
// and identical aggregate ScanStats — at every parallelism level and through
// the engine's day-split fallback — and the serial path must match the
// brute-force reference scan. These tests are the ones the ThreadSanitizer CI
// job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/core/engine.h"
#include "src/mpp/mpp_cluster.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/reference_scan.h"

namespace aiql {
namespace {

// Builds a 3-day, 4-host event stream with mixed object types. Identical for
// every database constructed from the same seed.
void FillDatabase(Database* db) {
  Rng rng(17);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<uint32_t> p, f, n;
  for (int i = 0; i < 8; ++i) {
    p.push_back(db->catalog().InternProcess(1 + i % 4, 100 + i, "/bin/p" + std::to_string(i),
                                            i % 2 == 0 ? "root" : "alice"));
  }
  for (int i = 0; i < 20; ++i) {
    f.push_back(db->catalog().InternFile(1 + i % 4, "/d/f" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    n.push_back(db->catalog().InternNetwork(1 + i % 4, "10.0.0.1",
                                            "8.8." + std::to_string(i) + ".8", 1000 + i, 443));
  }
  for (int i = 0; i < 6000; ++i) {
    uint32_t subj = p[rng.Below(p.size())];
    AgentId agent = db->catalog().AgentOf(EntityType::kProcess, subj);
    EntityType ot = rng.Chance(0.2)   ? EntityType::kNetwork
                    : rng.Chance(0.3) ? EntityType::kProcess
                                      : EntityType::kFile;
    uint32_t obj = 0;
    if (ot == EntityType::kFile) {
      do {
        obj = f[rng.Below(f.size())];
      } while (db->catalog().AgentOf(EntityType::kFile, obj) != agent);
    } else if (ot == EntityType::kNetwork) {
      do {
        obj = n[rng.Below(n.size())];
      } while (db->catalog().AgentOf(EntityType::kNetwork, obj) != agent);
    } else {
      obj = p[rng.Below(p.size())];
    }
    auto op = static_cast<Operation>(rng.Below(kNumOperations));
    db->RecordEvent(agent, subj, op, ot, obj,
                    base + static_cast<TimestampMs>(rng.Below(3 * kDayMs)),
                    rng.Range(0, 5000), static_cast<int32_t>(rng.Below(3)));
  }
  db->Finalize();
}

PredExpr Leaf(const char* attr, CmpOp op, Value v) {
  AttrPredicate p;
  p.attr = attr;
  p.op = op;
  p.values = {std::move(v)};
  return PredExpr::Leaf(std::move(p));
}

// Draws a random data query exercising op masks, time ranges, agent
// constraints, entity predicates, and both vectorizable and residual event
// predicates.
DataQuery RandomQuery(Rng* rng) {
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  DataQuery q;
  q.object_type = static_cast<EntityType>(rng->Below(3));
  if (rng->Chance(0.5)) {
    q.op_mask = static_cast<OpMask>(rng->Range(1, kAllOps));
  }
  if (rng->Chance(0.6)) {
    TimestampMs a = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    TimestampMs b = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    q.time = TimeRange{std::min(a, b), std::max(a, b) + 1};
  }
  if (rng->Chance(0.4)) {
    q.agent_ids = std::vector<AgentId>{static_cast<AgentId>(rng->Range(1, 4))};
  }
  if (rng->Chance(0.3)) {
    q.subject_pred = Leaf("user", CmpOp::kEq, Value(rng->Chance(0.5) ? "root" : "alice"));
  }
  switch (rng->Below(5)) {
    case 0:
      q.event_pred = Leaf("amount", CmpOp::kGt, Value(static_cast<int64_t>(rng->Below(5000))));
      break;
    case 1:
      q.event_pred = PredExpr::And(
          Leaf("amount", CmpOp::kGe, Value(static_cast<int64_t>(rng->Below(2500)))),
          Leaf("failure_code", CmpOp::kEq, Value(static_cast<int64_t>(rng->Below(3)))));
      break;
    case 2:
      q.event_pred = Leaf("optype", CmpOp::kEq,
                          Value(OperationName(static_cast<Operation>(rng->Below(kNumOperations)))));
      break;
    case 3:
      // Disjunction: not vectorizable, exercises the residual scan stage.
      q.event_pred =
          PredExpr::Or(Leaf("amount", CmpOp::kLt, Value(static_cast<int64_t>(rng->Below(1000)))),
                       Leaf("failure_code", CmpOp::kNe, Value(int64_t{0})));
      break;
    default:
      break;  // no event predicate
  }
  return q;
}

std::vector<int64_t> IdsOf(const std::vector<EventView>& events) {
  std::vector<int64_t> ids;
  ids.reserve(events.size());
  for (const EventView& e : events) {
    ids.push_back(e.id());
  }
  return ids;
}

// Strategy-invariant ScanStats fields (everything but parallel_morsels).
std::vector<uint64_t> InvariantStats(const ScanStats& s) {
  return {s.events_scanned,  s.events_matched,          s.partitions_pruned,
          s.partitions_scanned, s.events_skipped,       s.index_lookups,
          s.partitions_pruned_entity, s.bitmap_probes};
}

TEST(ParallelScanPropertyTest, ParallelismDoesNotChangeResultsOrStats) {
  Database db{DatabaseOptions{.agent_group_size = 2}};
  FillDatabase(&db);
  ASSERT_GT(db.num_partitions(), 2u);

  // parallelism = 1 is the no-pool fallback; 2 and 8 exercise under- and
  // over-subscribed work queues (8 workers over a handful of partitions).
  ThreadPool pool2(1), pool8(7);
  std::vector<ThreadPool*> pools = {nullptr, &pool2, &pool8};

  Rng rng(303);
  for (int trial = 0; trial < 120; ++trial) {
    DataQuery q = RandomQuery(&rng);
    ScanStats serial_stats;
    std::vector<EventView> serial = db.ExecuteQuery(q, &serial_stats);
    EXPECT_EQ(RowsOf(serial), RowsOf(ReferenceScan(db, q))) << "trial " << trial;
    std::vector<int64_t> serial_ids = IdsOf(serial);
    for (ThreadPool* pool : pools) {
      ScanStats par_stats;
      std::vector<int64_t> par_ids =
          IdsOf(db.ExecuteQueryCached(q, &par_stats, pool, nullptr, nullptr));
      size_t parallelism = pool == nullptr ? 1 : pool->max_participants();
      EXPECT_EQ(par_ids, serial_ids) << "trial " << trial << " parallelism " << parallelism;
      EXPECT_EQ(InvariantStats(par_stats), InvariantStats(serial_stats))
          << "trial " << trial << " parallelism " << parallelism;
      // A surviving partition is the one unit of work: a pooled scan of two
      // or more queues exactly one entry per partition; a single survivor
      // (or no pool) scans inline and queues nothing.
      if (pool != nullptr && par_stats.partitions_scanned >= 2) {
        EXPECT_EQ(par_stats.parallel_morsels, par_stats.partitions_scanned)
            << "trial " << trial << " parallelism " << parallelism;
      } else {
        EXPECT_EQ(par_stats.parallel_morsels, 0u)
            << "trial " << trial << " parallelism " << parallelism;
      }
    }
  }
}

TEST(MppParallelScanTest, EveryEntryPointMatchesReference) {
  // ExecuteQuery and ExecuteQueryCached (a null pool — the cluster's own —
  // and 2 and 8 participants) must return the reference scan's rows with the
  // same strategy-invariant stats — for both distribution policies, over hot
  // segments and over archived segments whose one-partition decode cache
  // evicts mid-scan.
  Database source;
  FillDatabase(&source);
  struct Storage {
    const char* name;
    DatabaseOptions options;
  };
  const Storage storages[] = {
      {"hot", DatabaseOptions{.agent_group_size = 2}},
      {"archived", DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0,
                                   .decode_cache_partitions = 1}},
  };
  ThreadPool pool2(1), pool8(7);
  for (DistributionPolicy policy :
       {DistributionPolicy::kArrivalRoundRobin, DistributionPolicy::kSemanticsAware}) {
    for (const Storage& storage : storages) {
      MppCluster cluster(3, policy, storage.options);
      cluster.BuildFrom(source);
      Rng rng(404);
      for (int trial = 0; trial < 40; ++trial) {
        DataQuery q = RandomQuery(&rng);
        const std::vector<ReferenceRow> expected = RowsOf(ReferenceScan(source, q));
        const std::string where = std::string(DistributionPolicyName(policy)) + "/" +
                                  storage.name + " trial " + std::to_string(trial);
        // Rows are read while a sink pins their decoded columns, as the
        // engine's session does.
        ScanStats private_stats;
        {
          ColumnPins pins;
          ScanContext ctx;
          ctx.pins = &pins;
          EXPECT_EQ(RowsOf(cluster.ExecuteQuery(q, &private_stats, &ctx)), expected) << where;
        }
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
          const size_t participants = pool == nullptr ? 1 : pool->max_participants();
          ColumnPins pins;
          ScanContext ctx;
          ctx.pins = &pins;
          ScanStats stats;
          EXPECT_EQ(RowsOf(cluster.ExecuteQueryCached(q, &stats, pool, nullptr, nullptr, &ctx)),
                    expected)
              << where << " participants " << participants;
          EXPECT_EQ(InvariantStats(stats), InvariantStats(private_stats))
              << where << " participants " << participants;
        }
        // Without a sink the loop pins only through its own merge, so the
        // returned views may point into evicted columns: count them, never
        // read them. A merge reading an unpinned column fails under ASan.
        ScanStats unpinned_stats;
        EXPECT_EQ(cluster.ExecuteQuery(q, &unpinned_stats).size(), expected.size()) << where;
        EXPECT_EQ(InvariantStats(unpinned_stats), InvariantStats(private_stats)) << where;
      }
    }
  }
}

TEST(EngineParallelismTest, AutoSizedParallelismResolvesToAtLeastOne) {
  Database db;
  FillDatabase(&db);
  AiqlEngine engine(&db);  // parallelism = 0: auto-size from the hardware
  EXPECT_GE(engine.options().parallelism, 1u);
}

TEST(EngineParallelismTest, StorageParallelAndDaySplitAgree) {
  Database db;
  FillDatabase(&db);
  // A multi-day query that the relationship scheduler splits/fans out.
  const std::string query = R"((from "2017-01-01 00:00" to "2017-01-04 00:00")
proc p1 read file f1 as evt1
proc p2["/bin/p3"] write file f2 as evt2
with evt1 before evt2
return distinct p1, f2)";
  AiqlEngine serial(&db, EngineOptions{.parallelism = 1});
  AiqlEngine morsel(&db, EngineOptions{.parallelism = 4});
  AiqlEngine day_split(&db, EngineOptions{.parallelism = 4, .storage_parallel = false});
  auto rs = serial.Execute(query);
  auto rm = morsel.Execute(query);
  auto rd = day_split.Execute(query);
  ASSERT_TRUE(rs.ok()) << rs.error();
  ASSERT_TRUE(rm.ok()) << rm.error();
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_TRUE(rs.value().SameRowsAs(rm.value()));
  EXPECT_TRUE(rs.value().SameRowsAs(rd.value()));
  const ExecStats& serial_stats = rs.value().exec_stats();
  const ExecStats& morsel_stats = rm.value().exec_stats();
  const ExecStats& day_split_stats = rd.value().exec_stats();
  // The pooled engine went through the storage fan-out; day-split did not.
  EXPECT_GT(morsel_stats.scan.parallel_morsels, 0u);
  EXPECT_EQ(day_split_stats.scan.parallel_morsels, 0u);
  EXPECT_GT(day_split_stats.parallel_slices, 0u);
  // The pooled scan aggregates the exact serial stats. Day-split re-plans
  // per day (pruning the other days' partitions in every sub-query, re-
  // resolving entities), so only the touched/matched totals are invariant.
  EXPECT_EQ(InvariantStats(morsel_stats.scan), InvariantStats(serial_stats.scan));
  EXPECT_EQ(day_split_stats.scan.events_scanned, serial_stats.scan.events_scanned);
  EXPECT_EQ(day_split_stats.scan.events_matched, serial_stats.scan.events_matched);
}

// --- cooperative cancellation in the storage scan loop -----------------------

TEST(ScanCancellationTest, CancelledContextStopsTheMorselLoop) {
  // Before the stop check existed, a cancelled session still finished every
  // planned partition. The flag is checked between partitions, so a scan entered
  // with the flag already set must touch no partition at all — the prompt-
  // return guarantee, independent of scan size.
  Database db{DatabaseOptions{.agent_group_size = 2}};
  FillDatabase(&db);
  DataQuery q;
  q.object_type = EntityType::kFile;  // full unfiltered scan: many partitions

  ScanStats full_stats;
  size_t full = db.ExecuteQuery(q, &full_stats).size();
  ASSERT_GT(full, 0u);

  std::atomic<bool> cancelled{true};
  ScanContext ctx;
  ctx.cancel = &cancelled;
  ThreadPool pool(3);
  for (bool parallel : {false, true}) {
    ScanStats stats;
    auto events = parallel ? db.ExecuteQueryCached(q, &stats, &pool, nullptr, nullptr, &ctx)
                           : db.ExecuteQuery(q, &stats, &ctx);
    EXPECT_TRUE(events.empty()) << (parallel ? "parallel" : "serial");
    EXPECT_EQ(stats.partitions_scanned, 0u) << (parallel ? "parallel" : "serial");
    EXPECT_EQ(stats.events_scanned, 0u) << (parallel ? "parallel" : "serial");
  }

  // Un-cancelled, the same context scans everything.
  cancelled.store(false);
  ScanStats ok_stats;
  EXPECT_EQ(db.ExecuteQueryCached(q, &ok_stats, &pool, nullptr, nullptr, &ctx).size(), full);
}

TEST(ScanCancellationTest, ExpiredDeadlineStopsTheMorselLoop) {
  Database db{DatabaseOptions{.agent_group_size = 2}};
  FillDatabase(&db);
  DataQuery q;
  q.object_type = EntityType::kFile;

  ScanContext ctx;
  ctx.ArmDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(ctx.DeadlineExpired());
  ThreadPool pool(3);
  ScanStats stats;
  EXPECT_TRUE(db.ExecuteQueryCached(q, &stats, &pool, nullptr, nullptr, &ctx).empty());
  EXPECT_EQ(stats.partitions_scanned, 0u);
}

TEST(ScanCancellationTest, MppMorselLoopHonorsCancellation) {
  Database source;
  FillDatabase(&source);
  MppCluster cluster(3, DistributionPolicy::kSemanticsAware);
  cluster.BuildFrom(source);
  DataQuery q;
  q.object_type = EntityType::kFile;
  std::atomic<bool> cancelled{true};
  ScanContext ctx;
  ctx.cancel = &cancelled;
  ThreadPool pool(3);
  ScanStats stats;
  EXPECT_TRUE(cluster.ExecuteQueryCached(q, &stats, &pool, nullptr, nullptr, &ctx).empty());
  EXPECT_EQ(stats.partitions_scanned, 0u);
}

TEST(ScanCancellationTest, MidRunCancelSurfacesAsSessionError) {
  // Engine level: a session cancelled before Run aborts at the first check
  // with the cancellation diagnostic and a partial-result-free error; a
  // session cancelled from another thread mid-run either finishes or aborts
  // with the same diagnostic — never anything else.
  Database db{DatabaseOptions{.agent_group_size = 2}};
  FillDatabase(&db);
  const AiqlEngine engine(&db, EngineOptions{.parallelism = 4});
  const std::string query = R"((from "2017-01-01 00:00" to "2017-01-04 00:00")
proc p1 read file f1 as evt1
proc p2 write file f2 as evt2
with evt1 before evt2
return distinct p1, f2)";
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto bound = prepared.value().Bind();
  ASSERT_TRUE(bound.ok()) << bound.error();

  ExecutionSession pre;
  pre.RequestCancel();
  auto r = bound.value().Run(&pre);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("cancelled"), std::string::npos);

  ExecutionSession mid;
  std::thread canceller([&] { mid.RequestCancel(); });
  auto rm = bound.value().Run(&mid);
  canceller.join();
  if (!rm.ok()) {
    EXPECT_NE(rm.error().find("cancelled"), std::string::npos);
  }
}

}  // namespace
}  // namespace aiql
