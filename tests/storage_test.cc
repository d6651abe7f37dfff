// Unit tests for src/storage: catalog interning, predicates, partitioning,
// indexes, data-query execution, pushdown candidates.
#include <gtest/gtest.h>

#include "src/storage/database.h"

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
  q.subject_candidates = std::vector<uint32_t>{vim_};
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject_idx(), vim_);
  // Candidate set intersected with a contradicting predicate is empty.
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/usr/bin/bash")};
  q.subject_pred = PredExpr::Leaf(pred);
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

TEST_F(StorageTest, ColumnarIngestAfterFinalizeRehydrates) {
  // Appending to a finalized columnar database must rebuild the row buffer,
  // and re-finalization must restore query results over the full data.
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

// --- predicate expression tests ---

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
