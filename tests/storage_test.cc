// Unit tests for src/storage: catalog interning, predicates, partitioning,
// indexes, data-query execution, pushdown candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/mpp/mpp_cluster.h"
#include "src/storage/database.h"
#include "src/storage/entity_search.h"
#include "src/storage/plan_cache.h"
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

// --- finalize: the parallel build and the CSR posting lists ----------------

// `count` events over `days` days and agents 0..5, each naming one of five
// processes of its agent as subject and a file or a process of that agent as
// object, ingested in random (not time) order.
std::vector<Event> RandomEvents(EntityCatalog& catalog, int days, int count, uint64_t seed) {
  constexpr int kPerAgent = 5;
  std::vector<uint32_t> procs;
  std::vector<uint32_t> files;
  for (AgentId a = 0; a < 6; ++a) {
    for (int i = 0; i < kPerAgent; ++i) {
      procs.push_back(catalog.InternProcess(a, 100 + i, "/bin/p" + std::to_string(i)));
      files.push_back(catalog.InternFile(a, "/data/f" + std::to_string(i)));
    }
  }
  Rng rng(seed);
  const TimestampMs t0 = MakeTimestamp(2017, 3, 1);
  std::vector<Event> events(static_cast<size_t>(count));
  int64_t id = 1;
  for (Event& e : events) {
    e.id = id++;
    e.seq = e.id;
    e.agent_id = static_cast<AgentId>(rng.Below(6));
    e.op = static_cast<Operation>(rng.Below(kNumOperations));
    e.subject_idx = procs[e.agent_id * kPerAgent + rng.Below(kPerAgent)];
    e.object_type = rng.Below(3) == 0 ? EntityType::kProcess : EntityType::kFile;
    e.object_idx = (e.object_type == EntityType::kProcess
                        ? procs
                        : files)[e.agent_id * kPerAgent + rng.Below(kPerAgent)];
    e.start_time = t0 + static_cast<TimestampMs>(rng.Below(static_cast<uint64_t>(days))) * kDayMs +
                   static_cast<TimestampMs>(rng.Below(kDayMs));
    e.end_time = e.start_time + static_cast<TimestampMs>(rng.Below(1000));
    e.amount = rng.Range(0, 1 << 20);
  }
  return events;
}

void ExpectSamePostings(const PostingIndex& got, const PostingIndex& want) {
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.rows, want.rows);
}

void ExpectSameZoneMap(const ZoneMap& got, const ZoneMap& want) {
  for (int c = 0; c < kNumEventColumns; ++c) {
    EXPECT_EQ(got.min[c], want.min[c]) << "column " << c;
    EXPECT_EQ(got.max[c], want.max[c]) << "column " << c;
  }
  EXPECT_EQ(got.op_mask, want.op_mask);
  EXPECT_EQ(got.object_type_mask, want.object_type_mask);
  EXPECT_EQ(got.agents, want.agents);
  EXPECT_EQ(got.subject_bloom.num_blocks(), want.subject_bloom.num_blocks());
  EXPECT_EQ(got.object_bloom.num_blocks(), want.object_bloom.num_blocks());
  for (uint32_t idx = 0; idx < 512; ++idx) {
    EXPECT_EQ(got.subject_bloom.MayContain(idx), want.subject_bloom.MayContain(idx)) << idx;
    for (EntityType t : {EntityType::kFile, EntityType::kProcess}) {
      EXPECT_EQ(got.object_bloom.MayContain(PackObjectKey(t, idx)),
                want.object_bloom.MayContain(PackObjectKey(t, idx)))
          << idx;
    }
  }
}

void ExpectSameEncoding(const ArchivedColumns& got, const ArchivedColumns& want) {
  ASSERT_EQ(got.count, want.count);
  EXPECT_EQ(got.EncodedBytes(), want.EncodedBytes());
  for (int c = 0; c < kNumEventColumns; ++c) {
    const EncodedInts& g = got.cols[c];
    const EncodedInts& w = want.cols[c];
    EXPECT_EQ(g.codec, w.codec) << "column " << c;
    EXPECT_EQ(g.words, w.words) << "column " << c;
    ASSERT_EQ(g.blocks.size(), w.blocks.size()) << "column " << c;
    for (size_t b = 0; b < g.blocks.size(); ++b) {
      EXPECT_EQ(std::tie(g.blocks[b].base, g.blocks[b].first, g.blocks[b].word_offset,
                         g.blocks[b].width),
                std::tie(w.blocks[b].base, w.blocks[b].first, w.blocks[b].word_offset,
                         w.blocks[b].width))
          << "column " << c << " block " << b;
    }
  }
}

TEST(ParallelFinalizeTest, DatabaseFinalizeEqualsPartitionByPartitionBuild) {
  // Six days x three agent groups, the five older days archived: the
  // database builds its partitions on a pool, the reference builds the same
  // events one partition at a time through Partition::Finalize + Archive.
  constexpr int kDays = 6;
  Database db{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 1}};
  const std::vector<Event> events = RandomEvents(db.catalog(), kDays, 12000, 8);
  std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Partition>> solo;
  for (const Event& e : events) {
    db.AppendRaw(e);
    const PartitionKey key{DayIndex(e.start_time), e.agent_id / 2};
    std::unique_ptr<Partition>& p = solo[{key.day_index, key.agent_group}];
    if (p == nullptr) {
      p = std::make_unique<Partition>(key);
    }
    p->Append(e);
  }
  db.Finalize();
  const int64_t newest_day = solo.rbegin()->first.first;
  for (auto& [key, p] : solo) {
    p->Finalize(/*build_indexes=*/true);
    if (newest_day - key.first >= 1) {
      p->Archive(db.generation());
    }
  }

  const std::vector<const Partition*> built = db.partitions();
  ASSERT_EQ(built.size(), solo.size());
  ASSERT_EQ(built.size(), 3u * kDays);
  EXPECT_EQ(db.num_archived_partitions(), 3u * (kDays - 1));
  size_t i = 0;
  for (const auto& [key, want] : solo) {
    const Partition& got = *built[i++];
    SCOPED_TRACE(testing::Message() << "day " << key.first << " group " << key.second);
    EXPECT_EQ(got.key(), want->key());
    ASSERT_EQ(got.archived(), want->archived());
    EXPECT_EQ(got.archive_generation(), want->archive_generation());
    ExpectSameZoneMap(got.zone_map(), want->zone_map());
    ExpectSamePostings(got.subject_postings(), want->subject_postings());
    ExpectSamePostings(got.object_postings(), want->object_postings());
    if (got.archived()) {
      ExpectSameEncoding(*got.archived_columns(), *want->archived_columns());
    } else {
      std::vector<Event> got_rows;
      std::vector<Event> want_rows;
      got.ForEachEvent([&](const Event& e) { got_rows.push_back(e); });
      want->ForEachEvent([&](const Event& e) { want_rows.push_back(e); });
      EXPECT_EQ(RowsOf(got_rows), RowsOf(want_rows));
    }
  }

  // Scans through the posting lists (candidate sets of one to three
  // entities), each day on its own (five archived, one hot) and all at once.
  const EntityCatalog& catalog = db.catalog();
  const TimestampMs t0 = MakeTimestamp(2017, 3, 1);
  Rng rng(81);
  uint64_t index_lookups = 0;
  for (int day = 0; day <= kDays; ++day) {
    for (int trial = 0; trial < 6; ++trial) {
      DataQuery q;
      q.object_type = trial % 2 == 0 ? EntityType::kFile : EntityType::kProcess;
      if (day < kDays) {
        q.time = TimeRange{t0 + day * kDayMs, t0 + (day + 1) * kDayMs};
      }
      std::vector<uint32_t> idxs;
      for (size_t k = 0; k <= rng.Below(3); ++k) {
        idxs.push_back(events[rng.Below(events.size())].subject_idx);
      }
      (trial % 3 == 0 ? q.object_pred : q.subject_pred) = IdIn(catalog, EntityType::kProcess, idxs);
      ScanStats stats;
      ColumnPins pins;
      const ScanContext ctx{.pins = &pins};
      EXPECT_EQ(RowsOf(db.ExecuteQuery(q, &stats, &ctx)), RowsOf(ReferenceScan(db, q)))
          << "day " << day << " trial " << trial;
      index_lookups += stats.index_lookups;
    }
  }
  EXPECT_GT(index_lookups, 0u) << "no scan took the posting-list path";
}

// The catalog's per-entity event counts, published at Finalize, against a
// count over every stored event: from the posting offsets (indexes built)
// and from the entity columns (no indexes; archived ones decode), before and
// after a re-finalize that ingests more events.
TEST(EntityEventCountsTest, CountsMatchTheStoredEvents) {
  const std::pair<const char*, DatabaseOptions> configs[] = {
      {"indexed", DatabaseOptions{.agent_group_size = 2}},
      {"indexed archived", DatabaseOptions{.agent_group_size = 2, .archive_after_days = 1}},
      {"no indexes", DatabaseOptions{.agent_group_size = 2, .build_indexes = false}},
      {"no indexes archived", DatabaseOptions{.agent_group_size = 2, .build_indexes = false,
                                              .archive_after_days = 1}},
  };
  for (const auto& [name, options] : configs) {
    SCOPED_TRACE(name);
    Database db{options};
    const std::vector<Event> events = RandomEvents(db.catalog(), 4, 6000, 11);
    const size_t half = events.size() / 2;
    for (const bool refinalized : {false, true}) {
      for (size_t i = refinalized ? half : 0; i < (refinalized ? events.size() : half); ++i) {
        db.AppendRaw(events[i]);
      }
      db.Finalize();
      const EntityCatalog& catalog = db.catalog();
      EntityEventCounts want = catalog.ZeroEventCounts();
      std::map<AgentId, uint64_t> agent_events;
      db.ForEachEvent([&](const Event& e) {
        ++want.subject[e.subject_idx];
        ++want.object[static_cast<size_t>(e.object_type)][e.object_idx];
        ++agent_events[e.agent_id];
      });
      for (uint32_t i = 0; i < want.subject.size(); ++i) {
        EXPECT_EQ(catalog.SubjectEvents(i), want.subject[i]) << "subject " << i;
      }
      for (EntityType t : {EntityType::kFile, EntityType::kProcess, EntityType::kNetwork}) {
        const std::vector<uint32_t>& counts = want.object[static_cast<size_t>(t)];
        for (uint32_t i = 0; i < counts.size(); ++i) {
          EXPECT_EQ(catalog.ObjectEvents(t, i), counts[i]) << EntityTypeName(t) << " " << i;
        }
      }
      EXPECT_EQ(catalog.AgentEvents(std::nullopt), db.num_events());
      for (const auto& [agent, n] : agent_events) {
        EXPECT_EQ(catalog.AgentEvents(std::vector<AgentId>{agent}), n) << "agent " << agent;
      }
      EXPECT_EQ(catalog.generation(), db.generation());
    }
  }
}

// MPP segments share their source's catalog and finalize over a shard each;
// the catalog must keep describing the whole store.
TEST(EntityEventCountsTest, MppSegmentsKeepTheWholeStoreCounts) {
  Database db{DatabaseOptions{.agent_group_size = 2}};
  for (const Event& e : RandomEvents(db.catalog(), 3, 3000, 5)) {
    db.AppendRaw(e);
  }
  db.Finalize();
  const EntityCatalog& catalog = db.catalog();
  std::vector<uint64_t> before;
  for (uint32_t i = 0; i < catalog.CountOf(EntityType::kProcess); ++i) {
    before.push_back(catalog.SubjectEvents(i));
  }
  MppCluster cluster(3, DistributionPolicy::kArrivalRoundRobin);
  cluster.BuildFrom(db);
  ASSERT_EQ(&cluster.catalog(), &catalog);
  for (uint32_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(catalog.SubjectEvents(i), before[i]) << "subject " << i;
  }
  EXPECT_EQ(catalog.AgentEvents(std::nullopt), db.num_events());
  EXPECT_EQ(catalog.generation(), db.generation());
}

// The resolver checks the run's stop state every kResolveStopStride
// dictionary values and entities: a run already cancelled or out of time
// resolves nothing.
TEST(EntityResolutionTest, StoppedRunResolvesNothing) {
  Database db;
  for (int i = 0; i < 3000; ++i) {
    db.catalog().InternProcess(1, i, "/bin/p" + std::to_string(i));
  }
  db.Finalize();
  AttrPredicate like;
  like.attr = "exe_name";
  like.op = CmpOp::kLike;
  like.values = {Value("/bin/%")};
  const PredExpr pred = PredExpr::Leaf(like);
  EXPECT_EQ(
      ResolveEntities(db.catalog(), EntityType::kProcess, pred, std::nullopt, nullptr).size(),
      3000u);

  std::atomic<bool> cancelled{true};
  ScanContext cancel{.cancel = &cancelled};
  EXPECT_TRUE(
      ResolveEntities(db.catalog(), EntityType::kProcess, pred, std::nullopt, nullptr, &cancel)
          .empty());
  ScanContext expired;
  expired.has_deadline = true;
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(
      ResolveEntities(db.catalog(), EntityType::kProcess, pred, std::nullopt, nullptr, &expired)
          .empty());
  EXPECT_NE(expired.StopStatus().message().find("time limit"), std::string::npos);
}

// Candidates narrowed by pushdown are part of the plan-cache key: two
// queries with the same predicates but different pushed entities must not
// share a plan. Un-narrowed candidates are a function of the predicates (and
// the generation the caller appends), so they leave the key alone.
TEST(EntityResolutionTest, NarrowedCandidatesAreKeyed) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate like;
  like.attr = "name";
  like.op = CmpOp::kLike;
  like.values = {Value("%.dll")};
  q.object_pred = PredExpr::Leaf(like);
  const std::string plain = DataQueryFingerprint(q);

  DataQuery resolved = q;
  resolved.object_candidates =
      std::make_shared<const EntityCandidates>(EntityCandidates{.ids = {1, 2, 3}});
  EXPECT_EQ(DataQueryFingerprint(resolved), plain);

  DataQuery a = q;
  DataQuery b = q;
  a.object_candidates =
      std::make_shared<const EntityCandidates>(EntityCandidates{.ids = {1, 2}, .narrowed = true});
  b.object_candidates =
      std::make_shared<const EntityCandidates>(EntityCandidates{.ids = {1, 3}, .narrowed = true});
  EXPECT_NE(DataQueryFingerprint(a), plain);
  EXPECT_NE(DataQueryFingerprint(a), DataQueryFingerprint(b));
  DataQuery a_again = q;
  a_again.object_candidates =
      std::make_shared<const EntityCandidates>(EntityCandidates{.ids = {1, 2}, .narrowed = true});
  EXPECT_EQ(DataQueryFingerprint(a), DataQueryFingerprint(a_again));
  // The same ids pushed onto the other side are another query.
  DataQuery subject = q;
  subject.subject_candidates = a.object_candidates;
  EXPECT_NE(DataQueryFingerprint(subject), DataQueryFingerprint(a));
}

// Strings the oracle catalog draws every string attribute from: case
// variants of one value, strings holding LIKE's wildcard characters, strings
// that read as numbers, the empty string and UTF-8 bytes >= 0x80.
const char* const kOracleStrings[] = {
    "/bin/bash",        "/BIN/Bash",
    "/bin/BASH",        "C:\\Windows\\System32\\cmd.exe",
    "c:\\windows\\system32\\CMD.EXE", "/usr/bin/python3",
    "/tmp/50%_off.sh",  "/tmp/50%_OFF.sh",
    "42",               "7",
    "-3",               "root",
    "Root",             "alice",
    "",                 "caf\xc3\x89",
    "caf\xc3\xa9",      "10.0.0.1",
    "10.0.0.10",        "tcp",
    "TCP",              "udp",
    "a_b",              "a%b",
    "ab",
};

// One attribute spelling the generator may constrain (canonical names,
// aliases and one the type lacks) and whether its values are strings.
struct OracleAttr {
  const char* name;
  bool string;
};
const std::vector<OracleAttr> kOracleAttrs[3] = {
    {{"name", true},
     {"owner", true},
     {"group", true},
     {"id", false},
     {"agentid", false},
     {"vol_id", false},
     {"dataid", false},
     {"nosuch", true}},
    {{"exe_name", true},
     {"exename", true},
     {"name", true},
     {"user", true},
     {"cmd", true},
     {"sig", true},
     {"id", false},
     {"agent_id", false},
     {"pid", false}},
    {{"dst_ip", true},
     {"src_ip", true},
     {"protocol", true},
     {"id", false},
     {"agentid", false},
     {"src_port", false},
     {"dstport", false}},
};

// The oracle's attribute values, read from the entity structs by name
// without the schema.
std::optional<Value> OracleRead(const EntityCatalog& c, EntityType t, uint32_t idx,
                                std::string_view a) {
  auto num = [](int64_t v) { return std::optional<Value>(Value(v)); };
  auto str = [](const std::string& v) { return std::optional<Value>(Value(v)); };
  switch (t) {
    case EntityType::kFile: {
      const FileEntity& e = c.files()[idx];
      if (a == "name") return str(e.name);
      if (a == "owner") return str(e.owner);
      if (a == "group") return str(e.group);
      if (a == "id") return num(e.id);
      if (a == "agentid") return num(e.agent_id);
      if (a == "vol_id") return num(e.vol_id);
      if (a == "dataid") return num(e.data_id);
      return std::nullopt;
    }
    case EntityType::kProcess: {
      const ProcessEntity& e = c.processes()[idx];
      if (a == "exe_name" || a == "exename" || a == "name") return str(e.exe_name);
      if (a == "user") return str(e.user);
      if (a == "cmd") return str(e.cmd);
      if (a == "sig") return str(e.signature);
      if (a == "id") return num(e.id);
      if (a == "agent_id") return num(e.agent_id);
      if (a == "pid") return num(e.pid);
      return std::nullopt;
    }
    case EntityType::kNetwork: {
      const NetworkEntity& e = c.networks()[idx];
      if (a == "dst_ip") return str(e.dst_ip);
      if (a == "src_ip") return str(e.src_ip);
      if (a == "protocol") return str(e.protocol);
      if (a == "id") return num(e.id);
      if (a == "agentid") return num(e.agent_id);
      if (a == "src_port") return num(e.src_port);
      if (a == "dstport") return num(e.dst_port);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::vector<uint32_t> OracleResolve(const EntityCatalog& c, EntityType t, const PredExpr& pred,
                                    const std::optional<std::vector<AgentId>>& agents) {
  std::vector<uint32_t> out;
  for (uint32_t idx = 0; idx < c.CountOf(t); ++idx) {
    if (agents.has_value() &&
        std::find(agents->begin(), agents->end(), c.AgentOf(t, idx)) == agents->end()) {
      continue;
    }
    if (pred.Eval([&](std::string_view a) { return OracleRead(c, t, idx, a); })) {
      out.push_back(idx);
    }
  }
  return out;
}

// Random predicate trees over the oracle catalog.
class OraclePredGen {
 public:
  explicit OraclePredGen(uint64_t seed) : rng_(seed) {}

  PredExpr Tree(EntityType t, int depth) {
    if (depth == 0 || rng_.Chance(0.35)) {
      return PredExpr::Leaf(Leaf(t));
    }
    switch (rng_.Below(3)) {
      case 0:
        return PredExpr::Not(Tree(t, depth - 1));
      case 1:
        return PredExpr::And(Tree(t, depth - 1), Tree(t, depth - 1));
      default:
        return PredExpr::Or(Tree(t, depth - 1), Tree(t, depth - 1));
    }
  }

  // Exact values of the type's default attribute (the lookup path when the
  // catalog is indexed): =, IN, or LIKE without wildcards.
  PredExpr DefaultExact(EntityType t) {
    const char* attr = kOracleAttrs[static_cast<size_t>(t)][0].name;
    AttrPredicate p;
    switch (rng_.Below(3)) {
      case 0:
        p.attr = attr;
        p.values = {Value(Cased(Pick()))};
        break;
      case 1:
        p.attr = attr;
        p.op = CmpOp::kLike;
        p.values = {Value(Cased(Pick()))};
        break;
      default:
        p = AttrPredicate::In(attr, {Value(Cased(Pick())), Value(Cased(Pick()))});
        break;
    }
    return PredExpr::Leaf(std::move(p));
  }

 private:
  std::string Pick() { return kOracleStrings[rng_.Below(std::size(kOracleStrings))]; }

  // `s` with each ASCII letter's case flipped at random, or unchanged.
  std::string Cased(std::string s) {
    if (rng_.Chance(0.5)) {
      return s;
    }
    for (char& ch : s) {
      if (std::isalpha(static_cast<unsigned char>(ch)) && rng_.Chance(0.3)) {
        ch = static_cast<char>(std::islower(static_cast<unsigned char>(ch))
                                   ? std::toupper(static_cast<unsigned char>(ch))
                                   : std::tolower(static_cast<unsigned char>(ch)));
      }
    }
    return s;
  }

  Value Operand(bool string) {
    if (rng_.Chance(0.2)) {
      string = !string;  // a string literal on an integer attribute, or the reverse
    }
    if (string) {
      return Value(Cased(Pick()));
    }
    return rng_.Chance(0.1) ? Value(static_cast<double>(rng_.Range(-4, 60)) / 2)
                            : Value(static_cast<int64_t>(rng_.Range(-4, 60)));
  }

  // A LIKE pattern: a piece of a catalog string or a number, in random case,
  // some characters replaced by '_', with '%' and '_' at its ends and in it.
  std::string Pattern() {
    std::string base = rng_.Chance(0.85) ? Pick() : std::to_string(rng_.Range(-4, 60));
    if (!base.empty() && rng_.Chance(0.5)) {
      size_t b = rng_.Below(base.size());
      size_t e = b + rng_.Below(base.size() - b + 1);
      base = base.substr(b, e - b);
    }
    std::string out;
    for (char ch : Cased(base)) {
      if (rng_.Chance(0.08)) {
        out += '%';
      }
      out += rng_.Chance(0.08) ? '_' : ch;
    }
    auto wild = [&] { return std::string(rng_.Chance(0.8) ? "%" : "_"); };
    if (rng_.Chance(0.5)) {
      out = wild() + out;
    }
    if (rng_.Chance(0.5)) {
      out += wild();
    }
    return out;
  }

  AttrPredicate Leaf(EntityType t) {
    const auto& attrs = kOracleAttrs[static_cast<size_t>(t)];
    const OracleAttr& a = attrs[rng_.Below(attrs.size())];
    AttrPredicate p;
    p.attr = a.name;
    const CmpOp op = static_cast<CmpOp>(rng_.Below(static_cast<uint64_t>(CmpOp::kNotIn) + 1));
    if (op == CmpOp::kIn || op == CmpOp::kNotIn) {
      // Both sides of the 16-value threshold above which In() hashes.
      const int64_t n = rng_.Chance(0.5) ? rng_.Range(1, 16) : rng_.Range(17, 40);
      std::vector<Value> values;
      for (int64_t i = 0; i < n; ++i) {
        values.push_back(Operand(a.string));
      }
      p = AttrPredicate::In(a.name, std::move(values));
      p.op = op;
      return p;
    }
    p.op = op;
    if (op == CmpOp::kLike || op == CmpOp::kNotLike) {
      p.values = {rng_.Chance(0.9) ? Value(Pattern()) : Operand(a.string)};
    } else {
      p.values = {Operand(a.string)};
    }
    return p;
  }

  Rng rng_;
};

// The compiled resolver against OracleResolve on random trees, with and
// without an agent restriction, over an indexed and an unindexed copy of
// one catalog.
TEST(EntityResolutionTest, CompiledMatchesReference) {
  Database indexed;
  Database plain{DatabaseOptions{.build_indexes = false}};
  for (Database* db : {&indexed, &plain}) {
    Rng rng(2024);
    auto pick = [&] { return std::string(kOracleStrings[rng.Below(std::size(kOracleStrings))]); };
    for (int i = 0; i < 160; ++i) {
      const AgentId agent = static_cast<AgentId>(1 + rng.Below(4));
      db->catalog().InternFile(agent, pick(), pick(), pick());
      db->catalog().InternProcess(agent, rng.Range(0, 60), pick(), pick(), pick(), pick());
      db->catalog().InternNetwork(agent, pick(), pick(), static_cast<int32_t>(rng.Range(0, 60)),
                                  static_cast<int32_t>(rng.Range(0, 60)), pick());
    }
    db->Finalize();
  }

  OraclePredGen gen(7);
  ScanStats indexed_stats;
  ScanStats plain_stats;
  size_t selective = 0;  // cases matching some but not all entities
  for (int trial = 0; trial < 300; ++trial) {
    for (EntityType t : {EntityType::kFile, EntityType::kProcess, EntityType::kNetwork}) {
      PredExpr pred = gen.Tree(t, 3);
      if (trial % 3 == 0) {
        pred = PredExpr::And(gen.DefaultExact(t), std::move(pred));
      }
      for (const std::optional<std::vector<AgentId>>& agents :
           {std::optional<std::vector<AgentId>>(), std::optional<std::vector<AgentId>>({3, 1})}) {
        const std::vector<uint32_t> want = OracleResolve(indexed.catalog(), t, pred, agents);
        ASSERT_EQ(ResolveEntities(indexed.catalog(), t, pred, agents, &indexed_stats), want)
            << EntityTypeName(t) << " indexed: " << pred.ToString();
        ASSERT_EQ(ResolveEntities(plain.catalog(), t, pred, agents, &plain_stats), want)
            << EntityTypeName(t) << " plain: " << pred.ToString();
        selective += !want.empty() && want.size() < indexed.catalog().CountOf(t);
      }
    }
  }
  EXPECT_GT(selective, 300u);
  EXPECT_GT(indexed_stats.index_lookups, 0u);
  EXPECT_EQ(plain_stats.index_lookups, 0u);
  EXPECT_GT(plain_stats.entity_evals, indexed_stats.entity_evals);
}

// Entities interned after a Finalize are coded as they are interned, so the
// exact lookup and the catalog pass both find them, before the next
// Finalize and after it.
TEST(EntityResolutionTest, EntitiesInternedAfterFinalizeResolve) {
  Database db;
  const uint32_t bash = db.catalog().InternProcess(1, 1, "/bin/bash");
  db.catalog().InternProcess(1, 2, "/usr/bin/vim");
  db.Finalize();
  // A new value, and an existing value (an existing code) on another host.
  const uint32_t fresh = db.catalog().InternProcess(2, 3, "/usr/local/New/Tool");
  const uint32_t bash2 = db.catalog().InternProcess(2, 4, "/BIN/bash");

  auto resolve = [&](CmpOp op, const char* value) {
    AttrPredicate p;
    p.attr = "exe_name";
    p.op = op;
    p.values = {Value(value)};
    ScanStats stats;
    return ResolveEntities(db.catalog(), EntityType::kProcess, PredExpr::Leaf(p), std::nullopt,
                           &stats);
  };
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "before the next Finalize" : "after it");
    EXPECT_EQ(resolve(CmpOp::kEq, "/usr/local/New/Tool"), std::vector<uint32_t>{fresh});
    EXPECT_EQ(resolve(CmpOp::kLike, "/usr/local/new/tool"), std::vector<uint32_t>{fresh});
    EXPECT_EQ(resolve(CmpOp::kLike, "%new%"), std::vector<uint32_t>{fresh});
    EXPECT_EQ(resolve(CmpOp::kLike, "/bin/bash"), (std::vector<uint32_t>{bash, bash2}));
    EXPECT_EQ(resolve(CmpOp::kEq, "/BIN/bash"), std::vector<uint32_t>{bash2});
    db.Finalize();
  }
}

TEST(PostingIndexTest, EachKeysRowsAreExactlyTheRowsHoldingIt) {
  // Random tables with narrow, medium and full-width key ranges (one to
  // three radix passes): the keys are the distinct keys ascending, each
  // key's rows are exactly the rows holding it in ascending order, absent
  // keys find nothing, and every key hits its bloom.
  Rng rng(3141);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t span = trial % 3 == 0 ? 8 : trial % 3 == 1 ? 5000 : uint64_t{1} << 32;
    std::vector<Event> rows(rng.Below(2500));
    for (Event& e : rows) {
      e.subject_idx = static_cast<uint32_t>(rng.Below(span));
      e.object_type = static_cast<EntityType>(rng.Below(3));
      e.object_idx = static_cast<uint32_t>(rng.Below(span));
    }
    const EventColumns cols = EventTable(rows);
    const PostingIndex subjects = PostingIndex::Subjects(cols, /*with_rows=*/true);
    const PostingIndex objects = PostingIndex::Objects(cols, /*with_rows=*/true);
    std::map<uint64_t, std::vector<uint32_t>> want_subjects;
    std::map<uint64_t, std::vector<uint32_t>> want_objects;
    for (uint32_t r = 0; r < rows.size(); ++r) {
      want_subjects[rows[r].subject_idx].push_back(r);
      want_objects[PackObjectKey(rows[r].object_type, rows[r].object_idx)].push_back(r);
    }
    const ZoneMap zone(cols, subjects, objects);
    auto check = [&](const PostingIndex& index,
                     const std::map<uint64_t, std::vector<uint32_t>>& want,
                     const BlockedBloom& bloom) {
      std::vector<uint64_t> want_keys;
      for (const auto& [key, key_rows] : want) {
        want_keys.push_back(key);
        const std::span<const uint32_t> got = index.Find(key);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), key_rows) << "key " << key;
        EXPECT_TRUE(bloom.MayContain(key)) << "key " << key;
      }
      EXPECT_EQ(index.keys, want_keys);
      EXPECT_EQ(index.rows.size(), rows.size());
      EXPECT_EQ(index.offsets.size(), rows.empty() ? 0u : want_keys.size() + 1);
      for (int probe = 0; probe < 20; ++probe) {
        const uint64_t key = rng.Below(span);
        if (want.count(key) == 0) {
          EXPECT_TRUE(index.Find(key).empty()) << "absent key " << key;
        }
      }
    };
    SCOPED_TRACE(testing::Message() << "trial " << trial << " span " << span);
    check(subjects, want_subjects, zone.subject_bloom);
    check(objects, want_objects, zone.object_bloom);
    // Without rows (a store built without secondary indexes) the keys stay.
    const PostingIndex keys_only = PostingIndex::Objects(cols, /*with_rows=*/false);
    EXPECT_EQ(keys_only.keys, objects.keys);
    EXPECT_TRUE(keys_only.rows.empty());
    EXPECT_TRUE(keys_only.offsets.empty());
    if (!rows.empty()) {
      EXPECT_TRUE(keys_only.Find(objects.keys[0]).empty());
    }
  }
}

TEST(StorageOrderTest, RefinalizeRebuildsOnlyTheTouchedPartitions) {
  // Three days x two agent groups, the two older days archived. One event
  // lands in a hot partition and one in an archived one, on days that
  // already hold data, and the database is finalized again: exactly those
  // two are rebuilt (fresh posting arrays; the archived one re-encoded under
  // the new generation). The other four keep the very arrays and encoding
  // they had, and every scan still matches the reference.
  Database db{DatabaseOptions{.agent_group_size = 3, .archive_after_days = 1}};
  const std::vector<Event> events = RandomEvents(db.catalog(), 3, 3000, 5);
  for (const Event& e : events) {
    db.AppendRaw(e);
  }
  db.Finalize();
  ASSERT_EQ(db.num_partitions(), 6u);
  ASSERT_EQ(db.num_archived_partitions(), 4u);
  const uint64_t first_generation = db.generation();
  struct Snapshot {
    const uint32_t* posting_rows;
    const ArchivedColumns* encoded;
    uint64_t generation;
    size_t size;
  };
  auto snapshot = [&] {
    std::vector<Snapshot> out;
    for (const Partition* p : db.partitions()) {
      out.push_back(Snapshot{p->subject_postings().rows.data(), p->archived_columns(),
                             p->archive_generation(), p->size()});
    }
    return out;
  };
  const std::vector<Snapshot> before = snapshot();

  // Partitions are (day, group) ordered: 1 is (day 0, group 1), archived;
  // 4 is (day 2, group 0), hot.
  Event archived_event = events[0];
  archived_event.id = 100000;
  archived_event.agent_id = 4;
  archived_event.start_time = MakeTimestamp(2017, 3, 1) + 5;
  Event hot_event = archived_event;
  hot_event.id = 100001;
  hot_event.agent_id = 1;
  hot_event.start_time = MakeTimestamp(2017, 3, 3) + 5;
  db.AppendRaw(archived_event);
  db.AppendRaw(hot_event);
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 4u);

  const std::vector<Snapshot> after = snapshot();
  for (size_t i = 0; i < after.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "partition " << i);
    if (i == 1 || i == 4) {
      EXPECT_EQ(after[i].size, before[i].size + 1);
      EXPECT_NE(after[i].posting_rows, before[i].posting_rows) << "not rebuilt";
      EXPECT_EQ(after[i].generation, i == 1 ? db.generation() : 0u);
    } else {
      EXPECT_EQ(after[i].size, before[i].size);
      EXPECT_EQ(after[i].posting_rows, before[i].posting_rows) << "rebuilt";
      EXPECT_EQ(after[i].encoded, before[i].encoded) << "re-encoded";
      EXPECT_EQ(after[i].generation, before[i].generation);
    }
  }
  EXPECT_EQ(after[0].generation, first_generation);

  for (EntityType type : {EntityType::kFile, EntityType::kProcess}) {
    DataQuery q;
    q.object_type = type;
    q.subject_pred = IdIn(db.catalog(), EntityType::kProcess, {archived_event.subject_idx});
    ColumnPins pins;
    const ScanContext ctx{.pins = &pins};
    EXPECT_EQ(RowsOf(db.ExecuteQuery(q, nullptr, &ctx)), RowsOf(ReferenceScan(db, q)));
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
