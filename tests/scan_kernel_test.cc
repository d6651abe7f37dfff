// The entity-aware scan path must be invisible in results: dense-bitmap
// membership kernels and zone-map entity (range + bloom) partition pruning
// are pure performance features. These tests prove that bitmap-probe,
// hash-set and posting-list scans with bloom/range pruning ≡ the brute-force
// reference scan (pruning observable via partitions_pruned_entity, bitmaps
// via bitmap_probes) at parallelism 1/8, plus unit coverage for the blocked
// bloom (false-positive-only), the dense bitmap translation, and the
// sorted-run merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/storage/bloom.h"
#include "src/storage/database.h"
#include "src/storage/scan_kernels.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/event_table.h"
#include "tests/reference_scan.h"

namespace aiql {
namespace {

// A 3-day, 4-host stream with agent-affine files, so candidate sets drawn
// from one host's entities give the (day, agent-group) partitions disjoint
// entity ranges — the shape entity zone pruning exists for.
void FillDatabase(Database* db, int events = 6000) {
  Rng rng(91);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<uint32_t> p, f;
  for (int i = 0; i < 12; ++i) {
    p.push_back(db->catalog().InternProcess(1 + i % 4, 500 + i, "/bin/k" + std::to_string(i),
                                            i % 2 == 0 ? "root" : "bob"));
  }
  for (int i = 0; i < 120; ++i) {
    f.push_back(db->catalog().InternFile(1 + i % 4, "/k/f" + std::to_string(i)));
  }
  for (int i = 0; i < events; ++i) {
    uint32_t subj = p[rng.Below(p.size())];
    AgentId agent = db->catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = f[rng.Below(f.size())];
    } while (db->catalog().AgentOf(EntityType::kFile, obj) != agent);
    auto op = static_cast<Operation>(rng.Below(kNumOperations));
    db->RecordEvent(agent, subj, op, EntityType::kFile, obj,
                    base + static_cast<TimestampMs>(rng.Below(3 * kDayMs)), rng.Range(0, 5000),
                    static_cast<int32_t>(rng.Below(3)));
  }
  db->Finalize();
}

// Random data query exercising the membership paths: candidate sets of
// varying sizes, pushed down as `id IN` predicates (flat small-set probe,
// bitmap, hash fallback), agent sets, op masks, time ranges, and vectorizable
// event predicates.
DataQuery RandomQuery(Rng* rng, const EntityCatalog& catalog) {
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  DataQuery q;
  q.object_type = EntityType::kFile;
  if (rng->Chance(0.4)) {
    q.op_mask = static_cast<OpMask>(rng->Range(1, kAllOps));
  }
  if (rng->Chance(0.5)) {
    TimestampMs a = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    TimestampMs b = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    q.time = TimeRange{std::min(a, b), std::max(a, b) + 1};
  }
  if (rng->Chance(0.4)) {
    std::vector<AgentId> agents;
    size_t n = 1 + rng->Below(3);
    for (size_t i = 0; i < n; ++i) {
      agents.push_back(static_cast<AgentId>(rng->Range(1, 4)));
    }
    q.agent_ids = agents;
  }
  if (rng->Chance(0.7)) {
    // Candidate subject processes: sometimes <= kSmallSetProbe (flat array),
    // sometimes larger (bitmap / hash).
    size_t n = rng->Chance(0.5) ? 1 + rng->Below(4) : 6 + rng->Below(6);
    std::vector<uint32_t> cand;
    for (size_t i = 0; i < n; ++i) {
      cand.push_back(static_cast<uint32_t>(rng->Below(12)));
    }
    q.subject_pred = IdIn(catalog, EntityType::kProcess, cand);
  }
  if (rng->Chance(0.7)) {
    size_t n = rng->Chance(0.5) ? 1 + rng->Below(6) : 10 + rng->Below(40);
    std::vector<uint32_t> cand;
    for (size_t i = 0; i < n; ++i) {
      cand.push_back(static_cast<uint32_t>(rng->Below(120)));
    }
    q.object_pred = IdIn(catalog, EntityType::kFile, cand);
  }
  if (rng->Chance(0.4)) {
    AttrPredicate pred;
    pred.attr = "amount";
    pred.op = CmpOp::kGe;
    pred.values = {Value(static_cast<int64_t>(rng->Below(4000)))};
    q.event_pred = PredExpr::Leaf(pred);
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

TEST(BlockedBloomTest, FalsePositiveOnly) {
  Rng rng(7);
  for (size_t n : {1u, 10u, 100u, 5000u}) {
    BlockedBloom bloom;
    bloom.Build(n);
    std::unordered_set<uint64_t> keys;
    while (keys.size() < n) {
      keys.insert(rng.Next());
    }
    for (uint64_t k : keys) {
      bloom.Add(k);
    }
    // Never a false negative.
    for (uint64_t k : keys) {
      EXPECT_TRUE(bloom.MayContain(k)) << "n=" << n;
    }
    // False positives are rare (sized at ~4 bytes/key, ~1% expected; assert a
    // loose 5% so the test is not seed-sensitive).
    int fp = 0;
    const int probes = 10000;
    for (int i = 0; i < probes; ++i) {
      uint64_t k = rng.Next();
      if (keys.count(k) == 0 && bloom.MayContain(k)) {
        ++fp;
      }
    }
    EXPECT_LT(fp, probes / 20) << "n=" << n;
  }
}

TEST(BlockedBloomTest, EmptyFilterClaimsEverything) {
  BlockedBloom bloom;
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.MayContain(42));
}

TEST(DenseBitmapTest, SetTestCovers) {
  DenseBitmap bm(100, 70);
  EXPECT_TRUE(bm.Covers(100));
  EXPECT_TRUE(bm.Covers(169));
  EXPECT_FALSE(bm.Covers(99));
  EXPECT_FALSE(bm.Covers(170));
  bm.Set(100);
  bm.Set(163);
  EXPECT_EQ(bm.Test(100), 1u);
  EXPECT_EQ(bm.Test(163), 1u);
  EXPECT_EQ(bm.Test(101), 0u);
  EXPECT_EQ(bm.Test(169), 0u);
}

TEST(DenseBitmapTest, TranslateCandidatesHeuristics) {
  std::unordered_set<uint32_t> small = {1, 2, 3};
  // Small sets take the flat probe, never a bitmap.
  EXPECT_FALSE(TranslateCandidates(small, 0, 1000, 1000).has_value());

  std::unordered_set<uint32_t> set;
  for (uint32_t i = 0; i < 100; ++i) {
    set.insert(i * 3);
  }
  auto bm = TranslateCandidates(set, 0, 400, 1000);
  ASSERT_TRUE(bm.has_value());
  for (uint32_t v = 0; v <= 400; ++v) {
    EXPECT_EQ(bm->Test(v), set.count(v) > 0 ? 1u : 0u) << v;
  }
  // A zone range far wider than the partition is not affordable.
  EXPECT_FALSE(TranslateCandidates(set, 0, 100 << 20, 64).has_value());
}

TEST(MergeSortedRunsTest, TiedTimestampsComeBackInIdOrder) {
  // AppendRaw replay with descending ids at one timestamp: the partition
  // must emit (start_time, id) order without relying on a final global sort.
  Database db;
  db.catalog().InternProcess(1, 1, "/bin/tie");
  db.catalog().InternFile(1, "/tie/f");
  for (int64_t id : {7, 3, 9, 1}) {
    Event e;
    e.id = id;
    e.agent_id = 1;
    e.op = Operation::kRead;
    e.object_type = EntityType::kFile;
    e.start_time = 1000;
    e.end_time = 1000;
    db.AppendRaw(e);
  }
  db.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  EXPECT_EQ(IdsOf(db.ExecuteQuery(q)), (std::vector<int64_t>{1, 3, 7, 9}));
}

TEST(MergeSortedRunsTest, MergesOverlappingRuns) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    // 1-5 runs of sorted events with overlapping time ranges.
    std::vector<Event> storage;
    std::vector<size_t> run_starts;
    std::vector<std::vector<TimestampMs>> runs(1 + rng.Below(5));
    int64_t id = 1;
    for (auto& r : runs) {
      size_t n = rng.Below(20);
      for (size_t i = 0; i < n; ++i) {
        r.push_back(static_cast<TimestampMs>(rng.Below(50)));
      }
      std::sort(r.begin(), r.end());
    }
    for (const auto& r : runs) {
      run_starts.push_back(storage.size());
      for (TimestampMs t : r) {
        Event e;
        e.id = id++;
        e.start_time = t;
        storage.push_back(e);
      }
    }
    const EventColumns table = EventTable(storage);
    std::vector<EventView> views = ViewsOf(table);
    std::vector<EventView> expected = views;
    std::sort(expected.begin(), expected.end(), EventViewTimeIdLess);
    MergeSortedRuns(&views, &run_starts);
    EXPECT_EQ(IdsOf(views), IdsOf(expected)) << "trial " << trial;
  }
}

// The zone map Partition::Finalize builds over `cols`: its blooms take the
// posting indexes' distinct keys.
ZoneMap ZoneMapOf(const EventColumns& cols) {
  return ZoneMap(cols, PostingIndex::Subjects(cols, /*with_rows=*/false),
                 PostingIndex::Objects(cols, /*with_rows=*/false));
}

TEST(ZoneMapTest, ContainsAnyAgentBothDirections) {
  std::vector<Event> rows(4);
  rows[0].agent_id = 1000;
  rows[1].agent_id = 5;
  rows[2].agent_id = 9;
  rows[3].agent_id = 5;
  const ZoneMap z = ZoneMapOf(EventTable(rows));
  EXPECT_EQ(z.agents, (std::vector<AgentId>{5, 9, 1000}));
  // Small candidate sets (binary-search direction).
  EXPECT_TRUE(z.ContainsAnyAgent(std::unordered_set<AgentId>{1000}));
  EXPECT_TRUE(z.ContainsAnyAgent(std::unordered_set<AgentId>{5, 6}));
  EXPECT_FALSE(z.ContainsAnyAgent(std::unordered_set<AgentId>{6, 7}));
  // Candidates much larger than the agent list (swapped direction: the zone
  // agents probe the candidate hash set).
  std::unordered_set<AgentId> big;
  for (AgentId a = 100; a < 400; ++a) {
    big.insert(a);
  }
  EXPECT_FALSE(z.ContainsAnyAgent(big));
  big.insert(9);
  EXPECT_TRUE(z.ContainsAnyAgent(big));
}

TEST(ZoneMapTest, ColumnBuildEqualsPerRowFold) {
  Rng rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Event> rows(1 + rng.Below(3000));
    for (Event& e : rows) {
      e.id = rng.Range(-1000, 1000000);
      e.seq = rng.Range(0, 5000);
      e.agent_id = static_cast<AgentId>(rng.Below(40));
      e.op = static_cast<Operation>(rng.Below(kNumOperations));
      e.object_type = static_cast<EntityType>(rng.Below(3));
      e.subject_idx = static_cast<uint32_t>(rng.Below(1 + rng.Below(100000)));
      e.object_idx = static_cast<uint32_t>(rng.Below(5000));
      e.start_time = rng.Range(0, int64_t{1} << 40);
      e.end_time = e.start_time + rng.Range(0, 1000);
      e.amount = rng.Range(-(int64_t{1} << 50), int64_t{1} << 50);
      e.failure_code = static_cast<int32_t>(rng.Range(-5, 5));
    }
    const ZoneMap z = ZoneMapOf(EventTable(rows));

    // The per-row fold: every column widened to int64, as the scan compares.
    int64_t min[kNumEventColumns], max[kNumEventColumns];
    std::fill(std::begin(min), std::end(min), INT64_MAX);
    std::fill(std::begin(max), std::end(max), INT64_MIN);
    OpMask ops = 0;
    uint8_t types = 0;
    std::vector<AgentId> agents;
    for (const Event& e : rows) {
      const int64_t fields[kNumEventColumns] = {
          e.id,          e.seq,          e.agent_id,  static_cast<int64_t>(e.op),
          static_cast<int64_t>(e.object_type), e.subject_idx, e.object_idx, e.start_time,
          e.end_time,    e.amount,       e.failure_code};
      for (int c = 0; c < kNumEventColumns; ++c) {
        min[c] = std::min(min[c], fields[c]);
        max[c] = std::max(max[c], fields[c]);
      }
      ops |= OpBit(e.op);
      types |= static_cast<uint8_t>(1u << static_cast<int>(e.object_type));
      agents.push_back(e.agent_id);
    }
    std::sort(agents.begin(), agents.end());
    agents.erase(std::unique(agents.begin(), agents.end()), agents.end());

    for (int c = 0; c < kNumEventColumns; ++c) {
      EXPECT_EQ(z.min[c], min[c]) << "column " << c << " trial " << trial;
      EXPECT_EQ(z.max[c], max[c]) << "column " << c << " trial " << trial;
    }
    EXPECT_EQ(z.op_mask, ops) << "trial " << trial;
    EXPECT_EQ(z.object_type_mask, types) << "trial " << trial;
    EXPECT_EQ(z.agents, agents) << "trial " << trial;
    for (const Event& e : rows) {
      EXPECT_TRUE(z.subject_bloom.MayContain(e.subject_idx)) << "trial " << trial;
      EXPECT_TRUE(z.object_bloom.MayContain(PackObjectKey(e.object_type, e.object_idx)))
          << "trial " << trial;
    }
  }
}

// --- equivalence properties -------------------------------------------------

struct NamedDb {
  const char* name;
  Database db;
};

TEST(ScanEquivalenceTest, BitmapAndBloomPathsMatchReference) {
  // Dense-bitmap membership probes and entity zone pruning, with candidate
  // sets probed row-by-row (no indexes) or unioned from postings (indexed),
  // serial and pooled, against the brute-force reference scan.
  std::vector<NamedDb> variants;
  variants.emplace_back(NamedDb{
      "no-indexes", Database{DatabaseOptions{.agent_group_size = 2, .build_indexes = false}}});
  variants.emplace_back(NamedDb{"indexed", Database{DatabaseOptions{.agent_group_size = 2}}});
  for (NamedDb& v : variants) {
    FillDatabase(&v.db);
  }

  ThreadPool pool8(7);
  Rng rng(404);
  uint64_t bitmap_probes = 0, pruned_entity = 0;
  for (int trial = 0; trial < 100; ++trial) {
    DataQuery q = RandomQuery(&rng, variants[0].db.catalog());
    std::vector<ReferenceRow> expected = RowsOf(ReferenceScan(variants[0].db, q));
    for (NamedDb& v : variants) {
      ScanStats serial_stats;
      EXPECT_EQ(RowsOf(v.db.ExecuteQuery(q, &serial_stats)), expected)
          << v.name << " trial " << trial;
      ScanStats par_stats;
      EXPECT_EQ(RowsOf(v.db.ExecuteQueryCached(q, &par_stats, &pool8, nullptr, nullptr)),
                expected)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.events_scanned, serial_stats.events_scanned)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.events_matched, serial_stats.events_matched)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.partitions_pruned_entity, serial_stats.partitions_pruned_entity)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.bitmap_probes, serial_stats.bitmap_probes)
          << v.name << " trial " << trial;
      bitmap_probes += serial_stats.bitmap_probes;
      pruned_entity += serial_stats.partitions_pruned_entity;
    }
  }
  // The entity-aware machinery actually fired somewhere in the sweep.
  EXPECT_GT(bitmap_probes, 0u);
  EXPECT_GT(pruned_entity, 0u);
}

TEST(ScanEquivalenceTest, HashSetFallbackMatchesReference) {
  // A candidate set beyond the flat probe but more than 4x a partition's rows
  // gets no bitmap (TranslateCandidates), and without indexes no posting
  // lists, so the scan probes the hash set itself. ~5 rows per partition make
  // that the common case.
  Database db{DatabaseOptions{.agent_group_size = 2, .build_indexes = false}};
  FillDatabase(&db, 30);
  ThreadPool pool8(7);
  Rng rng(707);
  int hash_probed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    DataQuery q = RandomQuery(&rng, db.catalog());
    std::vector<ReferenceRow> expected = RowsOf(ReferenceScan(db, q));
    ScanStats serial_stats, par_stats;
    EXPECT_EQ(RowsOf(db.ExecuteQuery(q, &serial_stats)), expected) << "trial " << trial;
    EXPECT_EQ(RowsOf(db.ExecuteQueryCached(q, &par_stats, &pool8, nullptr, nullptr)), expected)
        << "trial " << trial;
    // The object candidate set the plan resolves (the file objects are host-
    // local, so the agent constraint narrows it).
    const size_t objects =
        q.object_pred.is_true()
            ? 0
            : db.FindEntities(EntityType::kFile, q.object_pred, q.agent_ids).size();
    // Rows passed a large object set with no bitmap probe: the hash kernel
    // decided them.
    if (objects > kSmallSetProbe && serial_stats.bitmap_probes == 0 &&
        serial_stats.events_matched > 0) {
      ++hash_probed;
    }
  }
  EXPECT_GT(hash_probed, 0);
}

// --- archive tier ------------------------------------------------------------

TEST(ArchiveEquivalenceTest, ArchivedPartitionsMatchHotAcrossParallelism) {
  // The same stream in three storages: hot columnar (reference), everything
  // archived, and archived with a decode cache smaller than the partition
  // count (evictions mid-sweep). Results must be identical at parallelism 1
  // and 8; archived scans may only ever decode partitions the hot scan would
  // have scanned.
  NamedDb reference{"hot", Database{DatabaseOptions{.agent_group_size = 2}}};
  std::vector<NamedDb> variants;
  variants.emplace_back(NamedDb{
      "archived", Database{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0}}});
  variants.emplace_back(NamedDb{
      "archived/tiny-cache",
      Database{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0,
                               .decode_cache_partitions = 1}}});
  variants.emplace_back(NamedDb{
      "archived/no-indexes",
      Database{DatabaseOptions{.agent_group_size = 2, .build_indexes = false,
                               .archive_after_days = 0}}});
  FillDatabase(&reference.db);
  for (NamedDb& v : variants) {
    FillDatabase(&v.db);
    EXPECT_GT(v.db.num_archived_partitions(), 0u) << v.name;
    // Archiving actually shrinks the resident column bytes.
    StorageFootprint f = v.db.Footprint();
    EXPECT_EQ(f.hot_column_bytes, 0u) << v.name;
    EXPECT_GT(f.archived_bytes, 0u) << v.name;
    EXPECT_GE(reference.db.Footprint().hot_column_bytes, 3 * f.archived_bytes) << v.name;
  }

  ThreadPool pool8(7);
  Rng rng(606);
  uint64_t decoded = 0;
  for (int trial = 0; trial < 100; ++trial) {
    DataQuery q = RandomQuery(&rng, reference.db.catalog());
    ScanStats ref_stats;
    std::vector<int64_t> ref_ids = IdsOf(reference.db.ExecuteQuery(q, &ref_stats));
    for (NamedDb& v : variants) {
      // Views from archived partitions are valid while pinned (or cache-
      // resident); pin per execution exactly as the engine's session does.
      ColumnPins pins;
      ScanContext ctx;
      ctx.pins = &pins;
      ScanStats serial_stats;
      EXPECT_EQ(IdsOf(v.db.ExecuteQuery(q, &serial_stats, &ctx)), ref_ids)
          << v.name << " trial " << trial;
      ScanStats par_stats;
      EXPECT_EQ(IdsOf(v.db.ExecuteQueryCached(q, &par_stats, &pool8, nullptr, nullptr, &ctx)),
                ref_ids)
          << v.name << " trial " << trial;
      // The scan work over decoded columns is identical to the hot scan.
      EXPECT_EQ(serial_stats.events_matched, ref_stats.events_matched)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.events_matched, serial_stats.events_matched)
          << v.name << " trial " << trial;
      // Decoding only ever happens on partitions the plan would scan.
      EXPECT_LE(serial_stats.partitions_decoded, serial_stats.partitions_scanned)
          << v.name << " trial " << trial;
      decoded += serial_stats.partitions_decoded + par_stats.partitions_decoded;
      EXPECT_LE(v.db.decode_cache().size(), v.db.options().decode_cache_partitions) << v.name;
    }
    EXPECT_EQ(ref_stats.partitions_decoded, 0u);  // hot reference never decodes
  }
  EXPECT_GT(decoded, 0u);  // the archive path actually ran somewhere
}

TEST(ArchiveEquivalenceTest, PrunedArchivedPartitionsAreNeverDecoded) {
  Database db{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0}};
  // Processes of a host that records no event: real entities whose catalog
  // indices lie below every partition's subject zone range.
  std::vector<uint32_t> idle;
  for (int i = 0; i < 10; ++i) {
    idle.push_back(db.catalog().InternProcess(9, 900 + i, "/bin/idle" + std::to_string(i)));
  }
  FillDatabase(&db);
  ASSERT_GT(db.num_archived_partitions(), 0u);
  db.decode_cache().Clear();

  // Out-of-window query: every partition dies on the scheme key / zone map,
  // so the archive tier must not touch a single encoded byte.
  DataQuery q;
  q.object_type = EntityType::kFile;
  TimestampMs base = MakeTimestamp(2019, 6, 1);
  q.time = TimeRange{base, base + kDayMs};
  ScanStats stats;
  EXPECT_TRUE(db.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_decoded, 0u);
  EXPECT_EQ(stats.decoded_bytes, 0u);
  EXPECT_EQ(db.decode_cache().size(), 0u);

  // Entity pruning works the same without decode: a candidate set from a
  // foreign host range prunes via the zone summaries.
  DataQuery q2;
  q2.object_type = EntityType::kFile;
  q2.subject_pred = IdIn(db.catalog(), EntityType::kProcess, idle);
  ScanStats stats2;
  EXPECT_TRUE(db.ExecuteQuery(q2, &stats2).empty());
  EXPECT_GT(stats2.partitions_pruned_entity, 0u);
  EXPECT_EQ(stats2.partitions_decoded, 0u);
  EXPECT_EQ(db.decode_cache().size(), 0u);
}

TEST(ArchiveEquivalenceTest, ReFinalizeAfterIngestRearchives) {
  // Ingest into an archived partition: Append decodes it back, Finalize
  // rebuilds and re-archives, and queries see the merged data.
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 100; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, base + i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 1u);
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f, base + 50);
  db.Finalize();
  EXPECT_EQ(db.num_archived_partitions(), 1u);
  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats stats;
  EXPECT_EQ(db.ExecuteQuery(q, &stats).size(), 101u);
}

}  // namespace
}  // namespace aiql
