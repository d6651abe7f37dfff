// Unit tests for src/storage: catalog interning, predicates, partitioning,
// indexes, data-query execution, pushdown candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/storage/database.h"
#include "src/util/rng.h"
#include "tests/reference_scan.h"

namespace aiql {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  // A tiny two-agent, two-day dataset.
  void SetUp() override {
    bash_ = db_.catalog().InternProcess(1, 100, "/usr/bin/bash", "root");
    vim_ = db_.catalog().InternProcess(1, 101, "/usr/bin/vim", "alice");
    sshd_ = db_.catalog().InternProcess(2, 200, "/usr/sbin/sshd", "root");
    etc_ = db_.catalog().InternFile(1, "/etc/passwd");
    log_ = db_.catalog().InternFile(1, "/var/log/syslog");
    ip_ = db_.catalog().InternNetwork(2, "10.0.0.2", "8.8.8.8", 1234, 443);

    t0_ = MakeTimestamp(2017, 1, 1, 10, 0, 0);
    db_.RecordEvent(1, bash_, Operation::kRead, EntityType::kFile, etc_, t0_);
    db_.RecordEvent(1, vim_, Operation::kWrite, EntityType::kFile, log_, t0_ + kMinuteMs, 512);
    db_.RecordEvent(1, bash_, Operation::kStart, EntityType::kProcess, vim_,
                    t0_ + 2 * kMinuteMs);
    db_.RecordEvent(2, sshd_, Operation::kConnect, EntityType::kNetwork, ip_,
                    t0_ + kDayMs, 2048);
    db_.Finalize();
  }

  Database db_;
  uint32_t bash_, vim_, sshd_, etc_, log_, ip_;
  TimestampMs t0_;
};

TEST_F(StorageTest, InterningDeduplicates) {
  EXPECT_EQ(db_.catalog().InternProcess(1, 100, "/usr/bin/bash"), bash_);
  EXPECT_EQ(db_.catalog().InternFile(1, "/etc/passwd"), etc_);
  // Same name on a different agent is a different entity.
  EXPECT_NE(db_.catalog().InternFile(2, "/etc/passwd"), etc_);
}

TEST_F(StorageTest, EntityIdsAreUnique) {
  std::set<int64_t> ids;
  for (const auto& p : db_.catalog().processes()) {
    ids.insert(p.id);
  }
  for (const auto& f : db_.catalog().files()) {
    ids.insert(f.id);
  }
  for (const auto& n : db_.catalog().networks()) {
    ids.insert(n.id);
  }
  EXPECT_EQ(ids.size(), db_.catalog().total_entities());
}

TEST_F(StorageTest, AttrAccess) {
  const EntityCatalog& catalog = db_.catalog();
  auto read = [&](EntityType t, uint32_t idx, std::string_view name) {
    return ReadAttr(FindAttr(OwnerOf(t), name), catalog, t, idx);
  };
  EXPECT_EQ(read(EntityType::kProcess, bash_, "exe_name").ToString(), "/usr/bin/bash");
  EXPECT_EQ(read(EntityType::kProcess, bash_, "user").ToString(), "root");
  EXPECT_EQ(read(EntityType::kNetwork, ip_, "dst_port").as_int(), 443);
  EXPECT_EQ(FindAttr(AttrOwner::kFile, "bogus"), nullptr);
}

TEST_F(StorageTest, PartitioningByDayAndAgentGroup) {
  // Agents 1,2 with group size 4 share a group; two days -> 2 partitions.
  EXPECT_EQ(db_.num_partitions(), 2u);
  Database flat{DatabaseOptions{.scheme = PartitionScheme::kNone}};
  uint32_t p = flat.catalog().InternProcess(1, 1, "x");
  uint32_t f = flat.catalog().InternFile(1, "/a");
  flat.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 0);
  flat.RecordEvent(2, p, Operation::kRead, EntityType::kFile, f, kDayMs * 3);
  EXPECT_EQ(flat.num_partitions(), 1u);
}

TEST_F(StorageTest, TimeRangeQuery) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{t0_, t0_ + 90 * kSecondMs};
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].op(), Operation::kRead);
  EXPECT_EQ(events[1].op(), Operation::kWrite);
}

TEST_F(StorageTest, OpMaskFilters) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kWrite);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].amount(), 512);
}

TEST_F(StorageTest, AgentConstraintPrunes) {
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.agent_ids = std::vector<AgentId>{2};
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].agent_id(), 2u);
  q.agent_ids = std::vector<AgentId>{1};
  EXPECT_TRUE(db_.ExecuteQuery(q).empty());
}

TEST_F(StorageTest, SubjectPredicateViaIndex) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/usr/bin/bash")};
  q.subject_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject_idx(), bash_);
  EXPECT_GT(stats.index_lookups, 0u);
}

TEST_F(StorageTest, LikePredicateFallsBackToScan) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "name";
  pred.op = CmpOp::kLike;
  pred.values = {Value("/var/log%")};
  q.object_pred = PredExpr::Leaf(pred);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object_idx(), log_);
}

TEST_F(StorageTest, PushdownCandidatesNarrow) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.subject_pred = IdIn(db_.catalog(), EntityType::kProcess, {vim_});
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject_idx(), vim_);
  // Candidate set intersected with a contradicting predicate is empty.
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/usr/bin/bash")};
  q.subject_pred = PredExpr::And(std::move(q.subject_pred), PredExpr::Leaf(pred));
  EXPECT_TRUE(db_.ExecuteQuery(q).empty());
}

TEST_F(StorageTest, PushedTimeNarrows) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.pushed_time = TimeRange{t0_ + 30 * kSecondMs, t0_ + 2 * kMinuteMs};
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].op(), Operation::kWrite);
}

TEST_F(StorageTest, ResultsSortedByTimeThenId) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  auto events = db_.ExecuteQuery(q);
  for (size_t i = 1; i < events.size(); ++i) {
    bool ordered = events[i - 1].start_time() < events[i].start_time() ||
                   (events[i - 1].start_time() == events[i].start_time() &&
                    events[i - 1].id() < events[i].id());
    EXPECT_TRUE(ordered);
  }
}

TEST_F(StorageTest, PartitionPruningStats) {
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.time = TimeRange{t0_ + kDayMs - kHourMs, t0_ + kDayMs + kHourMs};
  ScanStats stats;
  db_.ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.partitions_pruned, 1u);  // day-0 partition skipped
  EXPECT_EQ(stats.partitions_scanned, 1u);
  EXPECT_EQ(stats.events_skipped, 3u);  // the three day-0 events, never touched
}

TEST_F(StorageTest, ZoneMapPrunesByOpMask) {
  // No partition stores a delete: both are pruned before any scan.
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kDelete);
  ScanStats stats;
  EXPECT_TRUE(db_.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_pruned, 2u);
  EXPECT_EQ(stats.partitions_scanned, 0u);
  EXPECT_EQ(stats.events_skipped, db_.num_events());
  EXPECT_EQ(stats.events_scanned, 0u);
}

TEST_F(StorageTest, ZoneMapPrunesByObjectType) {
  // Day-0 holds file/process events only; a network query skips it.
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.partitions_pruned, 1u);
  EXPECT_EQ(stats.partitions_scanned, 1u);
}

TEST_F(StorageTest, ZoneMapPrunesByNumericRange) {
  // amount > 10000 exceeds every stored amount: zone maps prune everything.
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "amount";
  pred.op = CmpOp::kGt;
  pred.values = {Value(int64_t{10000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  EXPECT_TRUE(db_.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_scanned, 0u);
  EXPECT_EQ(stats.events_skipped, db_.num_events());
}

TEST_F(StorageTest, ZoneMapPrunesByAgentWithinGroup) {
  // Agents 1 and 2 share a partition group, so scheme keys cannot separate
  // them — the per-partition agent set can. Day-0 holds only agent 1.
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.agent_ids = std::vector<AgentId>{2};
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.partitions_pruned, 1u);
  EXPECT_EQ(stats.partitions_scanned, 1u);
}

TEST_F(StorageTest, OptypePredicateCompilesToOpMask) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "optype";
  pred.op = CmpOp::kEq;
  pred.values = {Value("write")};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].amount(), 512);
  // An impossible optype value matches nothing without touching storage.
  pred.values = {Value("no-such-op")};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats none;
  EXPECT_TRUE(db_.ExecuteQuery(q, &none).empty());
  EXPECT_EQ(none.partitions_scanned, 0u);
}

TEST_F(StorageTest, ColumnarIngestAfterFinalize) {
  // Appending to a finalized columnar database appends to its columns, and
  // re-finalization must restore query results over the full data.
  db_.RecordEvent(1, bash_, Operation::kDelete, EntityType::kFile, log_, t0_ + 5 * kMinuteMs);
  db_.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kDelete);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object_idx(), log_);
  EXPECT_EQ(db_.num_events(), 5u);
}

TEST_F(StorageTest, NoIndexModeStillCorrect) {
  Database plain{DatabaseOptions{.build_indexes = false}};
  uint32_t p = plain.catalog().InternProcess(1, 1, "/bin/x");
  uint32_t f = plain.catalog().InternFile(1, "/data");
  plain.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 1000);
  plain.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/x")};
  q.subject_pred = PredExpr::Leaf(pred);
  EXPECT_EQ(plain.ExecuteQuery(q).size(), 1u);
}

TEST_F(StorageTest, ForEachEventVisitsAll) {
  size_t n = 0;
  db_.ForEachEvent([&](const Event&) { ++n; });
  EXPECT_EQ(n, db_.num_events());
}

TEST_F(StorageTest, AppendRawPreservesIds) {
  Database copy;
  db_.ForEachEvent([&](const Event& e) { copy.AppendRaw(e); });
  EXPECT_EQ(copy.num_events(), db_.num_events());
  std::set<int64_t> original_ids, copied_ids;
  db_.ForEachEvent([&](const Event& e) { original_ids.insert(e.id); });
  copy.ForEachEvent([&](const Event& e) { copied_ids.insert(e.id); });
  EXPECT_EQ(original_ids, copied_ids);
}

TEST(StorageOrderTest, OutOfOrderAppendRawScansInTimeIdOrder) {
  // Replayed events arrive out of time order, with runs of equal start times
  // whose ids descend, over two days and two agent groups; a second batch
  // lands in already-finalized partitions. Every scan returns
  // (start_time, id) order, and each partition stores its rows in it.
  Database db{DatabaseOptions{.agent_group_size = 2}};
  const uint32_t proc = db.catalog().InternProcess(1, 1, "/bin/replay");
  const uint32_t file = db.catalog().InternFile(1, "/replay/f");
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  Rng rng(61);
  int64_t next_id = 1000;
  std::vector<std::pair<TimestampMs, int64_t>> expected;
  auto ingest = [&](int events) {
    for (int i = 0; i < events; ++i) {
      Event e;
      e.id = next_id--;  // descending ids: every tie must be reordered
      e.agent_id = static_cast<AgentId>(rng.Below(4));
      e.op = Operation::kRead;
      e.object_type = EntityType::kFile;
      e.subject_idx = proc;
      e.object_idx = file;
      e.start_time = t0 + static_cast<TimestampMs>(rng.Below(2)) * kDayMs +
                     static_cast<TimestampMs>(rng.Below(8)) * 1000;
      e.end_time = e.start_time;
      db.AppendRaw(e);
      expected.emplace_back(e.start_time, e.id);
    }
    db.Finalize();
    std::sort(expected.begin(), expected.end());
  };
  auto scanned = [&](const DataQuery& q) {
    std::vector<std::pair<TimestampMs, int64_t>> out;
    for (const EventView& v : db.ExecuteQuery(q)) {
      out.emplace_back(v.start_time(), v.id());
    }
    return out;
  };
  DataQuery q;
  q.object_type = EntityType::kFile;
  for (int batch : {200, 50}) {
    ingest(batch);
    SCOPED_TRACE(testing::Message() << db.num_events() << " events");
    EXPECT_EQ(scanned(q), expected);
    EXPECT_EQ(db.num_partitions(), 4u);
    // Storage order: (start_time, id) ascending within each partition.
    std::vector<std::pair<TimestampMs, int64_t>> stored;
    db.ForEachEvent([&](const Event& e) { stored.emplace_back(e.start_time, e.id); });
    size_t breaks = 0;
    for (size_t i = 1; i < stored.size(); ++i) {
      breaks += stored[i] < stored[i - 1] ? 1 : 0;
    }
    EXPECT_LE(breaks, db.num_partitions() - 1) << "a partition is out of order";
    for (AgentId a = 0; a < 4; ++a) {
      DataQuery one = q;
      one.agent_ids = std::vector<AgentId>{a};
      std::vector<std::pair<TimestampMs, int64_t>> want;
      for (const Event& e : ReferenceScan(db, one)) {
        want.emplace_back(e.start_time, e.id);
      }
      EXPECT_EQ(scanned(one), want) << "agent " << a;
    }
  }
}

TEST(StorageOrderTest, RefinalizeLeavesUntouchedArchivedPartitionsAlone) {
  // Two archived partitions (two days of one agent group); ingest into one
  // and re-finalize. The ingest decodes that partition back, the re-finalize
  // archives it again, the other stays encoded throughout, and every scan
  // matches the reference on each day.
  Database db{DatabaseOptions{.archive_after_days = 0}};
  const uint32_t proc = db.catalog().InternProcess(1, 1, "/bin/cold");
  const uint32_t file = db.catalog().InternFile(1, "/cold/f");
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 300; ++i) {
    db.RecordEvent(1, proc, static_cast<Operation>(i % kNumOperations), EntityType::kFile,
                   file, t0 + (i % 2) * kDayMs + (299 - i) * 1000, i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_partitions(), 2u);
  ASSERT_EQ(db.num_archived_partitions(), 2u);

  db.RecordEvent(1, proc, Operation::kWrite, EntityType::kFile, file, t0 + 500, 7);
  db.RecordEvent(1, proc, Operation::kRead, EntityType::kFile, file, t0 + 1, 8);
  EXPECT_EQ(db.num_archived_partitions(), 1u) << "ingest decodes the partition it lands in";
  db.Finalize();
  EXPECT_EQ(db.num_archived_partitions(), 2u);
  EXPECT_EQ(db.Footprint().hot_column_bytes, 0u);

  for (TimestampMs day : {t0, t0 + kDayMs}) {
    DataQuery q;
    q.object_type = EntityType::kFile;
    q.time = TimeRange{day, day + kDayMs};
    const std::vector<Event> want = ReferenceScan(db, q);
    EXPECT_EQ(want.size(), day == t0 ? 152u : 150u);
    ColumnPins pins;
    const ScanContext ctx{.pins = &pins};
    EXPECT_EQ(RowsOf(db.ExecuteQuery(q, nullptr, &ctx)), RowsOf(want)) << "day " << day;
  }
}

// --- predicate expression tests ---

// An archived partition emits only the query's columns: a narrow mask
// decodes exactly those columns' bytes, and a later query that also reads
// amount decodes amount alone.
TEST(EmissionColumnsTest, NarrowMaskDecodesOnlyTheQuerysColumns) {
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  constexpr size_t kRows = 300;
  for (size_t i = 0; i < kRows; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f,
                   MakeTimestamp(2017, 1, 1) + static_cast<int64_t>(i), /*amount=*/i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 1u);

  DataQuery q;
  q.object_type = EntityType::kFile;
  q.columns = kEmitBaseColumns;
  ScanStats narrow;
  std::vector<EventView> base = db.ExecuteQuery(q, &narrow);
  ASSERT_EQ(base.size(), kRows);
  EXPECT_EQ(narrow.partitions_decoded, 1u);
  // id + start_time + subject_idx + object_idx + object_type.
  EXPECT_EQ(narrow.decoded_bytes,
            kRows * (sizeof(int64_t) + sizeof(TimestampMs) + 2 * sizeof(uint32_t) +
                     sizeof(EntityType)));
  EXPECT_EQ(base[7].start_time(), MakeTimestamp(2017, 1, 1) + 7);

  q.columns |= ColumnBit(EventColumnId::kAmount);
  ScanStats wider;
  std::vector<EventView> with_amount = db.ExecuteQuery(q, &wider);
  EXPECT_EQ(wider.partitions_decoded, 0u);
  EXPECT_EQ(wider.decoded_bytes, kRows * sizeof(int64_t));
  ASSERT_EQ(with_amount.size(), kRows);
  EXPECT_EQ(with_amount[7].amount(), 7);
}

TEST(PredicateTest, CmpOps) {
  AttrPredicate p;
  p.attr = "x";
  p.op = CmpOp::kGe;
  p.values = {Value(int64_t{10})};
  EXPECT_TRUE(p.Eval(Value(int64_t{10})));
  EXPECT_TRUE(p.Eval(Value(int64_t{11})));
  EXPECT_FALSE(p.Eval(Value(int64_t{9})));
}

TEST(PredicateTest, InWithHashSet) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(Value(int64_t{i * 2}));
  }
  AttrPredicate p = AttrPredicate::In("x", values);
  ASSERT_NE(p.value_set, nullptr);  // large lists materialize the set
  EXPECT_TRUE(p.Eval(Value(int64_t{50})));
  EXPECT_FALSE(p.Eval(Value(int64_t{51})));
}

TEST(PredicateTest, BooleanTree) {
  auto leaf = [](const char* attr, CmpOp op, Value v) {
    AttrPredicate p;
    p.attr = attr;
    p.op = op;
    p.values = {std::move(v)};
    return PredExpr::Leaf(std::move(p));
  };
  PredExpr expr = PredExpr::And(leaf("a", CmpOp::kEq, Value(int64_t{1})),
                                PredExpr::Or(leaf("b", CmpOp::kEq, Value(int64_t{2})),
                                             PredExpr::Not(leaf("c", CmpOp::kEq, Value("x")))));
  auto source = [&](std::string_view attr) -> std::optional<Value> {
    if (attr == "a") {
      return Value(int64_t{1});
    }
    if (attr == "b") {
      return Value(int64_t{3});
    }
    if (attr == "c") {
      return Value("y");
    }
    return std::nullopt;
  };
  EXPECT_TRUE(expr.Eval(source));
  EXPECT_EQ(expr.CountConstraints(), 3u);
}

TEST(PredicateTest, EqualityValuesForConjunction) {
  AttrPredicate p;
  p.attr = "name";
  p.op = CmpOp::kEq;
  p.values = {Value("x")};
  PredExpr expr = PredExpr::Leaf(p);
  auto vals = expr.EqualityValuesFor("name");
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0].ToString(), "x");
  EXPECT_TRUE(expr.EqualityValuesFor("other").empty());
}

TEST(PredicateTest, EqualityValuesForDisjunctionNeedsAllBranches) {
  auto eq = [](const char* attr, const char* v) {
    AttrPredicate p;
    p.attr = attr;
    p.op = CmpOp::kEq;
    p.values = {Value(v)};
    return PredExpr::Leaf(std::move(p));
  };
  PredExpr both = PredExpr::Or(eq("name", "a"), eq("name", "b"));
  EXPECT_EQ(both.EqualityValuesFor("name").size(), 2u);
  PredExpr mixed = PredExpr::Or(eq("name", "a"), eq("owner", "b"));
  EXPECT_TRUE(mixed.EqualityValuesFor("name").empty());
}

TEST(PredicateTest, LikeWithoutWildcardsUsableForIndex) {
  AttrPredicate p;
  p.attr = "name";
  p.op = CmpOp::kLike;
  p.values = {Value("exact.txt")};
  EXPECT_EQ(PredExpr::Leaf(p).EqualityValuesFor("name").size(), 1u);
  p.values = {Value("%wild%")};
  EXPECT_TRUE(PredExpr::Leaf(p).EqualityValuesFor("name").empty());
}

}  // namespace
}  // namespace aiql
