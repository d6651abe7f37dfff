// Micro-benchmarks (google-benchmark): ingest rate (in and out of time
// order), LIKE matching, entity index lookup, entity resolution at catalog
// scale, partition time-slice scans,
// full-scan throughput per scan parallelism, a cold archived-partition scan
// per emission mask, hash vs nested-loop joins.
// These quantify the primitive costs behind the macro benches.
#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#include "src/core/anomaly.h"
#include "src/core/engine.h"
#include "src/core/exec_session.h"
#include "src/core/executor.h"
#include "src/core/projector.h"
#include "src/core/tuple_set.h"
#include "src/storage/database.h"
#include "src/storage/encoding.h"
#include "src/storage/entity_search.h"
#include "src/util/rng.h"
#include "src/util/string_utils.h"
#include "src/util/thread_pool.h"

namespace aiql {
namespace {

void BM_IngestEvents(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    uint32_t p = db.catalog().InternProcess(1, 1, "/usr/bin/x");
    uint32_t f = db.catalog().InternFile(1, "/data/file");
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, i * 100);
    }
    db.Finalize();
    benchmark::DoNotOptimize(db.num_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IngestEvents)->Arg(10000)->Arg(100000);

// Ingest out of time order: random start times over 4 agents and 4 days, so
// every partition's Finalize sorts its rows and gathers its columns.
void BM_IngestEventsUnordered(benchmark::State& state) {
  constexpr AgentId kAgents = 4;
  constexpr int64_t kDays = 4;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    std::vector<uint32_t> procs, files;
    for (AgentId a = 1; a <= kAgents; ++a) {
      procs.push_back(db.catalog().InternProcess(a, 1, "/usr/bin/x"));
      files.push_back(db.catalog().InternFile(a, "/data/file"));
    }
    Rng rng(7);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      const size_t a = rng.Below(kAgents);
      db.RecordEvent(static_cast<AgentId>(a + 1), procs[a], Operation::kRead, EntityType::kFile,
                     files[a], t0 + static_cast<TimestampMs>(rng.Below(kDays * kDayMs)));
    }
    db.Finalize();
    benchmark::DoNotOptimize(db.num_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IngestEventsUnordered)->Arg(10000)->Arg(100000);

// Database::Finalize alone over 21 days x 3 agent groups (63 partitions,
// ingested in time order): arg 0 keeps every partition hot (all built on the
// calling thread), arg 1 archives all but the newest day's three (those are
// finalized and encoded on the transient pool). Wall time: the pool's
// workers do most of the archiving run's work.
void BM_FinalizeDatabase(benchmark::State& state) {
  constexpr int64_t kDays = 21;
  constexpr AgentId kAgents = 12;  // 3 groups of the default 4
  constexpr int64_t kEvents = 126000;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  DatabaseOptions options;
  options.archive_after_days = state.range(0) != 0 ? 1 : -1;
  size_t archived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto db = std::make_unique<Database>(options);
    std::vector<uint32_t> procs, files;
    for (AgentId a = 0; a < kAgents; ++a) {
      for (int i = 0; i < 16; ++i) {
        procs.push_back(db->catalog().InternProcess(a, 100 + i, "/bin/p" + std::to_string(i)));
      }
      for (int i = 0; i < 64; ++i) {
        files.push_back(db->catalog().InternFile(a, "/data/f" + std::to_string(i)));
      }
    }
    Rng rng(13);
    for (int64_t i = 0; i < kEvents; ++i) {
      const AgentId a = static_cast<AgentId>(rng.Below(kAgents));
      db->RecordEvent(a, procs[a * 16 + rng.Below(16)],
                      static_cast<Operation>(rng.Below(kNumOperations)), EntityType::kFile,
                      files[a * 64 + rng.Below(64)], t0 + i * (kDays * kDayMs / kEvents),
                      static_cast<int64_t>(rng.Below(1 << 16)));
    }
    state.ResumeTiming();
    db->Finalize();
    state.PauseTiming();
    archived = db->num_archived_partitions();
    benchmark::DoNotOptimize(archived);
    db.reset();
    state.ResumeTiming();
  }
  state.counters["archived_partitions"] = static_cast<double>(archived);
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_FinalizeDatabase)
    ->ArgName("archive")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "C:\\Program Files\\Common Files\\System\\wab32res.dll";
  std::string pattern = "%common%wab32%.dll";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatch);

Database* BuildSharedDb() {
  auto* d = new Database();
  Rng rng(11);
  // Entities spread over 8 hosts so the 3-day stream lands in ~9
  // (day, agent-group) partitions — enough morsels for the parallel-scan
  // benchmarks to fan out over.
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(
        d->catalog().InternProcess(1 + i % 8, 1000 + i, "/bin/p" + std::to_string(i)));
  }
  for (int i = 0; i < 512; ++i) {
    files.push_back(d->catalog().InternFile(1 + i % 8, "/data/f" + std::to_string(i)));
  }
  for (int i = 0; i < 200000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
    d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile,
                   files[rng.Below(files.size())], rng.Below(3 * kDayMs), rng.Below(10000));
  }
  d->Finalize();
  return d;
}

Database* SharedDb() {
  static Database* db = BuildSharedDb();
  return db;
}

void BM_EntityIndexLookup(benchmark::State& state) {
  Database* db = SharedDb();
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/p7")};
  PredExpr expr = PredExpr::Leaf(pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->FindEntities(EntityType::kProcess, expr, std::nullopt));
  }
}
BENCHMARK(BM_EntityIndexLookup);

// Entity resolution at catalog scale: one LIKE over `n` files holding one
// distinct name per 3 files (the ratio of history_hunt's catalog, 2,996
// files under 1,076 names), spread over 16 hosts. Arg 0: files (4,098 or
// 98,304); arg 1: the pattern's shape (0 contains, 1 suffix, 2 general:
// three floating segments, one holding a '_').
// `per_entity` is ns per file; a flat figure across sizes means the cost
// grows with the catalog, not faster.
void BM_ResolveEntities(benchmark::State& state) {
  static std::unordered_map<int64_t, std::unique_ptr<Database>> dbs;
  const int64_t n = state.range(0);
  std::unique_ptr<Database>& db = dbs[n];
  if (db == nullptr) {
    db = std::make_unique<Database>();
    const char* const kExt[] = {"exe", "dll", "tmp", "docx"};
    for (int64_t i = 0; i < n; ++i) {
      const int64_t k = i / 3;
      db->catalog().InternFile(static_cast<AgentId>(1 + i % 16),
                               "C:\\Users\\u" + std::to_string(k % 37) +
                                   "\\AppData\\Local\\Temp\\doc" + std::to_string(k) + "." +
                                   kExt[k % 4]);
    }
    db->Finalize();
  }
  const char* const kPatterns[] = {"%appdata\\local%", "%.dll", "%users%t_mp%.exe"};
  AttrPredicate like;
  like.attr = "name";
  like.op = CmpOp::kLike;
  like.values = {Value(kPatterns[state.range(1)])};
  const PredExpr pred = PredExpr::Leaf(like);
  ScanStats stats;
  size_t matched = 0;
  for (auto _ : state) {
    stats = ScanStats();
    matched = ResolveEntities(db->catalog(), EntityType::kFile, pred, std::nullopt, &stats).size();
  }
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["entity_evals"] = static_cast<double>(stats.entity_evals);
  state.counters["per_entity"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(state.range(1) == 0 ? "contains" : state.range(1) == 1 ? "suffix" : "general");
}
BENCHMARK(BM_ResolveEntities)
    ->ArgsProduct({{4098, 98304}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

void BM_TimeSliceScan(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{kDayMs, kDayMs + state.range(0) * kMinuteMs};
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQuery(q, &s));
    stats = s;
  }
  // Time-bounded queries must skip the out-of-range day partitions.
  state.counters["partitions_pruned"] = static_cast<double>(stats.partitions_pruned);
  state.counters["events_skipped"] = static_cast<double>(stats.events_skipped);
}
BENCHMARK(BM_TimeSliceScan)->Arg(10)->Arg(60)->Arg(600);

// Full-scan event throughput per scan parallelism (arg: 1 = no pool, >1 = a
// pool of that many participants; one work-queue entry per partition), all
// through ExecuteQueryCached, over a 200k-event stream, with a half-selective
// amount filter as the only event predicate. Every parallelism level must
// report the same `matched` count.
void BM_FullScan(benchmark::State& state) {
  Database* db = SharedDb();
  size_t parallelism = static_cast<size_t>(state.range(0));
  // One pool per parallelism level, shared across iterations.
  static std::unordered_map<size_t, ThreadPool*> pools;
  ThreadPool* pool = nullptr;
  if (parallelism > 1) {
    auto [it, inserted] = pools.try_emplace(parallelism, nullptr);
    if (inserted) {
      it->second = new ThreadPool(parallelism - 1);
    }
    pool = it->second;
  }
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "amount";
  pred.op = CmpOp::kGe;
  pred.values = {Value(int64_t{5000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQueryCached(q, &s, pool, nullptr, nullptr));
    stats = s;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.events_scanned + stats.events_skipped));
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.SetLabel("p" + std::to_string(parallelism));
}
BENCHMARK(BM_FullScan)->Arg(1)->Arg(2)->Arg(4);

// A selective pushed-down entity candidate set over a large entity pool: the
// dominant query shape of iterative attack investigation (Algorithm 1 hands
// each pattern the candidate sets of already-executed patterns, as `IN`
// predicates). The set is far above the posting-candidate limit, so the scan
// takes the vectorized membership-probe path over every row in the time
// slice. The query is planned once, outside the timed loop, so the loop times
// the scan and not the resolution of 5000 ids against the catalog. The
// 200,000 events spread over `days` days.
Database* BuildCandidateProbeDb(int days) {
  auto* d = new Database();
  Rng rng(23);
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(
        d->catalog().InternProcess(1 + i % 8, 2000 + i, "/bin/q" + std::to_string(i)));
  }
  for (int i = 0; i < 20000; ++i) {
    files.push_back(d->catalog().InternFile(1 + i % 8, "/big/f" + std::to_string(i)));
  }
  for (int i = 0; i < 200000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = files[rng.Below(files.size())];
    } while (d->catalog().AgentOf(EntityType::kFile, obj) != agent);
    d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile, obj,
                   rng.Below(days * kDayMs), rng.Below(10000));
  }
  d->Finalize();
  return d;
}

// Arg 0: 3 days of ~33,000-row partitions; the plan translates the set into
// one bitmap per partition. Arg 1: the same events over 300 days, ~330-row
// partitions, where the plan refuses the bitmap (the set is over 4x a
// partition's rows) and every row binary-searches the sorted set.
void BM_EntityCandidateScan(benchmark::State& state) {
  static Database* const dbs[2] = {BuildCandidateProbeDb(3), BuildCandidateProbeDb(300)};
  const Database* db = dbs[state.range(0)];
  // Every 4th file is a candidate: 5000 candidates, ~25% row selectivity —
  // too many for posting-list union, so every scanned row probes the set.
  DataQuery q;
  q.object_type = EntityType::kFile;
  std::vector<Value> ids;
  for (uint32_t i = 0; i < 20000; i += 4) {
    ids.push_back(Value(db->catalog().IdOf(EntityType::kFile, i)));
  }
  q.object_pred = PredExpr::Leaf(AttrPredicate::In("id", std::move(ids)));
  ScanStats plan_stats;
  const std::optional<ScanPlan> plan = db->PlanQuery(q, &plan_stats);
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s = plan_stats;
    benchmark::DoNotOptimize(db->ScanWithPlan(plan.value(), &s, nullptr));
    stats = s;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.events_scanned + stats.events_skipped));
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.counters["bitmap_probes"] = static_cast<double>(stats.bitmap_probes);
  state.SetLabel(state.range(0) == 0 ? "bitmap" : "sorted");
}
BENCHMARK(BM_EntityCandidateScan)->Arg(0)->Arg(1);

// Skewed partition sizes under the pooled scan: one (day, agent-group)
// partition holds ~85% of the events. A surviving partition is the one unit
// of scan work, so the giant partition is scanned by one worker however many
// participate: p4 over p1 is the cost of that choice, kept on record. No
// gated workload or case-study query has such a partition.
void BM_SkewedParallelScan(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    Rng rng(31);
    std::vector<uint32_t> procs, files;
    for (int i = 0; i < 16; ++i) {
      procs.push_back(
          d->catalog().InternProcess(1 + i % 8, 3000 + i, "/bin/s" + std::to_string(i)));
    }
    for (int i = 0; i < 256; ++i) {
      files.push_back(d->catalog().InternFile(1 + i % 8, "/skew/f" + std::to_string(i)));
    }
    for (int i = 0; i < 200000; ++i) {
      // 85% of events land on agent 1 inside day 0: one giant partition.
      bool hot = rng.Chance(0.85);
      uint32_t subj;
      do {
        subj = procs[rng.Below(procs.size())];
      } while ((d->catalog().AgentOf(EntityType::kProcess, subj) == 1) != hot);
      AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
      uint32_t obj;
      do {
        obj = files[rng.Below(files.size())];
      } while (d->catalog().AgentOf(EntityType::kFile, obj) != agent);
      TimestampMs t = hot ? rng.Below(kDayMs) : rng.Below(3 * kDayMs);
      d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile, obj, t, rng.Below(10000));
    }
    d->Finalize();
    return d;
  }();
  size_t parallelism = static_cast<size_t>(state.range(0));
  static std::unordered_map<size_t, ThreadPool*> pools;
  ThreadPool* pool = nullptr;
  if (parallelism > 1) {
    auto [it, inserted] = pools.try_emplace(parallelism, nullptr);
    if (inserted) {
      it->second = new ThreadPool(parallelism - 1);
    }
    pool = it->second;
  }
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "amount";
  pred.op = CmpOp::kGe;
  pred.values = {Value(int64_t{5000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQueryCached(q, &s, pool, nullptr, nullptr));
    stats = s;
  }
  state.counters["morsels"] = static_cast<double>(stats.parallel_morsels);
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.SetLabel("p" + std::to_string(parallelism));
}
BENCHMARK(BM_SkewedParallelScan)->Arg(1)->Arg(4);

void BM_PostingListFetch(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = "exe_name";
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/p3")};
  q.subject_pred = PredExpr::Leaf(pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->ExecuteQuery(q));
  }
}
BENCHMARK(BM_PostingListFetch);

void BM_Join(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{0, kDayMs / 4};
  std::vector<EventView> events = db->ExecuteQuery(q);
  size_t half = events.size() / 2;
  std::vector<EventView> left(events.begin(), events.begin() + half);
  std::vector<EventView> right(events.begin() + half, events.end());
  TupleSet lt = TupleSet::FromMatches(0, left);
  TupleSet rt = TupleSet::FromMatches(1, right);
  Relationship rel;
  if (state.range(0) == 0) {  // equality hash join on subject id
    rel.kind = Relationship::Kind::kAttr;
    const AttrDef* id = FindAttr(AttrOwner::kProcess, "id");
    rel.attr = AttrRelation{0, RefSide::kSubject, id, CmpOp::kEq, 1, RefSide::kSubject, id, false};
  } else {  // temporal join
    rel.kind = Relationship::Kind::kTemp;
    rel.temp = TempRelation{0, 1, ast::TempOrder::kBefore, std::nullopt, DurationMs{kMinuteMs}};
  }
  for (auto _ : state) {
    BudgetGuard guard;
    TupleJoiner joiner(db->catalog(), &guard, JoinStrategy{});
    auto out = joiner.Join(lt, rt, {rel});
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_Join)->Arg(0)->Arg(1);

// Prepare/bind/execute vs one-shot Execute on a two-pattern query: the
// one-shot arm re-lexes, re-parses, re-infers, and replans per iteration;
// the prepared arm amortizes compilation across Runs and serves scan plans
// from the PreparedQuery's cache. The plan_cache_hit_rate counter reports
// cached fetches per data query.
void BM_PreparedVsOneShot(benchmark::State& state) {
  Database* db = SharedDb();
  static AiqlEngine* engine = new AiqlEngine(db, EngineOptions{.parallelism = 1});
  const std::string text = R"(
      agentid = 3 (from "1970-01-01" to "1970-01-03")
      proc p1["/bin/p7"] read file f1 as evt1
      proc p2["/bin/p9"] read file f1 as evt2
      with evt1 before evt2
      return count p1)";
  const bool prepared_arm = state.range(0) == 1;

  uint64_t hits = 0, queries = 0, rows = 0;
  if (prepared_arm) {
    auto prepared = engine->Prepare(text);
    if (!prepared.ok()) {
      state.SkipWithError(prepared.error().c_str());
      return;
    }
    auto bound = prepared.value().Bind();
    if (!bound.ok()) {
      state.SkipWithError(bound.error().c_str());
      return;
    }
    for (auto _ : state) {
      auto r = bound.value().Run();
      if (!r.ok()) {
        state.SkipWithError(r.error().c_str());
        return;
      }
      hits += r.value().exec_stats().plan_cache_hits;
      queries += r.value().exec_stats().data_queries;
      rows += r.value().num_rows();
    }
  } else {
    for (auto _ : state) {
      auto r = engine->Execute(text);
      if (!r.ok()) {
        state.SkipWithError(r.error().c_str());
        return;
      }
      hits += r.value().exec_stats().plan_cache_hits;
      queries += r.value().exec_stats().data_queries;
      rows += r.value().num_rows();
    }
  }
  state.counters["plan_cache_hit_rate"] =
      queries == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(queries);
  state.SetLabel(prepared_arm ? "prepared" : "one-shot");
  benchmark::DoNotOptimize(rows);
}
BENCHMARK(BM_PreparedVsOneShot)->Arg(0)->Arg(1);

// Sliding-window anomaly execution over (windows, groups): `groups`
// processes each write once per 10 s step (arg 3 = 1) or once per 32 steps
// (arg 3 = 32, staggered across groups), and a 1-minute window slides by
// 10 s. Arg 2 picks the having clause: 0 = s5-style history states
// (amt[1], amt[2]), 1 = s6-style EWMA; both end in a conjunct that fails
// without rows, so the windows run sparse and the 1-in-32 rows skip most
// (window, group) pairs. The per_window_group counter is the time per
// (window x group); it stays flat as the window count grows when the
// per-group state is incremental (re-folding each group's history series
// per window would grow it linearly for EWMA), and falls with the density
// when windows and groups without rows are skipped.
void BM_SlidingWindowAnomaly(benchmark::State& state) {
  const int64_t windows = state.range(0);
  const int64_t groups = state.range(1);
  const bool ewma = state.range(2) == 1;
  const int64_t every = state.range(3);
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  const DurationMs step = 10 * kSecondMs;
  Database db;
  uint32_t dst = db.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
  std::vector<uint32_t> procs;
  for (int64_t g = 0; g < groups; ++g) {
    procs.push_back(db.catalog().InternProcess(1, 100 + g, "/bin/p" + std::to_string(g)));
  }
  Rng rng(5);
  for (int64_t w = 0; w < windows; ++w) {
    for (int64_t g = 0; g < groups; ++g) {
      if ((w + g) % every != 0) {
        continue;
      }
      db.RecordEvent(1, procs[static_cast<size_t>(g)], Operation::kWrite, EntityType::kNetwork,
                     dst, t0 + w * step + static_cast<TimestampMs>(rng.Below(step)),
                     rng.Range(1000, 100000));
    }
  }
  db.Finalize();
  const std::string having =
      ewma ? "(amt - EWMA(amt, 0.9)) / (EWMA(amt, 0.9) + 1) > 0.5 && amt > 40000"
           : "amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 400000";
  auto ctx = CompileQuery("(from \"" + FormatTimestamp(t0) + "\" to \"" +
                          FormatTimestamp(t0 + windows * step) +
                          "\")\nagentid = 1\nwindow = 1 min, step = 10 sec\n"
                          "proc p write ip i as evt\nreturn p, sum(evt.amount) as amt\n"
                          "group by p\nhaving " + having);
  if (!ctx.ok()) {
    state.SkipWithError(ctx.error().c_str());
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    ExecutionSession session;
    auto r = ExecuteAnomaly(db, ctx.value(), ExecOptions{}, nullptr, &session);
    if (!r.ok()) {
      state.SkipWithError(r.error().c_str());
      return;
    }
    rows += r.value().num_rows();
  }
  state.counters["per_window_group"] = benchmark::Counter(
      static_cast<double>(windows * groups),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(std::string(ewma ? "ewma" : "history") + (every > 1 ? " 1/32" : ""));
  benchmark::DoNotOptimize(rows);
}
BENCHMARK(BM_SlidingWindowAnomaly)
    ->Args({600, 16, 0, 1})
    ->Args({6000, 16, 0, 1})
    ->Args({600, 16, 1, 1})
    ->Args({6000, 16, 1, 1})
    ->Args({6000, 16, 0, 32})
    ->Args({6000, 16, 1, 32})
    ->Unit(benchmark::kMillisecond);

// Multievent projection (ProjectResults alone) over an a1-shaped tuple set:
// 32 bash children of 8 apache parents each connect 1600 times to 16 IPs,
// so `proc p1 start proc p2, proc p2 connect ip i1` joins to 51,200 tuples.
// Arg 0 is a1's row-wise `return distinct p1, p2, i1` (16 output rows); arg 1
// groups the same tuples by p2.pid with s3's `count(distinct i1)` (32
// groups); arg 2 is s3 itself, grouping by the entity p2 (default attribute,
// a string key: the 32 bash processes form one group). per_tuple is the
// projection time per joined tuple.
void BM_Projection(benchmark::State& state) {
  static const char* const kReturns[] = {
      "return distinct p1, p2, i1",
      "return p2.pid, count(distinct i1) as n group by p2.pid",
      "return p2, count(distinct i1) as n group by p2",
  };
  static const char* const kLabels[] = {"distinct rows", "group count(distinct)",
                                        "group entity count(distinct)"};
  static Database* db = [] {
    auto* d = new Database();
    const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
    std::vector<uint32_t> ips;
    for (int i = 0; i < 16; ++i) {
      ips.push_back(d->catalog().InternNetwork(1, "10.0.0.1", "172.16.0." + std::to_string(i),
                                               40000 + i, 443));
    }
    Rng rng(3);
    for (int parent = 0; parent < 8; ++parent) {
      uint32_t apache = d->catalog().InternProcess(1, 100 + parent, "/usr/sbin/apache2");
      for (int child = 0; child < 4; ++child) {
        uint32_t bash = d->catalog().InternProcess(1, 1000 + parent * 4 + child, "/bin/bash");
        d->RecordEvent(1, apache, Operation::kStart, EntityType::kProcess, bash, t0);
        for (int c = 0; c < 1600; ++c) {
          d->RecordEvent(1, bash, Operation::kConnect, EntityType::kNetwork,
                         ips[rng.Below(ips.size())],
                         t0 + 1 + static_cast<TimestampMs>(rng.Below(kHourMs)));
        }
      }
    }
    d->Finalize();
    return d;
  }();
  auto ctx = CompileQuery(std::string(R"(
      (at "01/01/2017") agentid = 1
      proc p1["%apache%"] start proc p2["%bash%"] as evt1
      proc p2 connect ip i1 as evt2
      with evt1 before evt2
      )") + kReturns[state.range(0)]);
  if (!ctx.ok()) {
    state.SkipWithError(ctx.error().c_str());
    return;
  }
  ExecutionSession session;
  auto tuples = ExecuteMultievent(*db, ctx.value(), ExecOptions{}, nullptr, &session);
  if (!tuples.ok()) {
    state.SkipWithError(tuples.error().c_str());
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    auto r = ProjectResults(ctx.value(), tuples.value(), db->catalog(), &session);
    if (!r.ok()) {
      state.SkipWithError(r.error().c_str());
      return;
    }
    rows = r.value().num_rows();
    benchmark::DoNotOptimize(r);
  }
  state.counters["tuples"] = static_cast<double>(tuples.value().num_rows());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["per_tuple"] = benchmark::Counter(
      static_cast<double>(tuples.value().num_rows()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_Projection)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// One archived partition scanned cold (the decode cache is dropped before
// every scan): 100k events, 70% file and 30% process objects, so the scan
// decodes start_time and object_type to filter and the rest to emit. Arg 0
// emits kEmitBaseColumns, the mask of a query that reads no event attribute;
// arg 1 emits every column, what a hand-built DataQuery asks for.
// decoded_mb is the column bytes one scan decodes.
void BM_ColdArchivedScan(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database(
        DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0});
    Rng rng(5);
    const uint32_t proc = d->catalog().InternProcess(1, 1, "/bin/p");
    const uint32_t file = d->catalog().InternFile(1, "/data/f");
    TimestampMs t = 0;
    for (int i = 0; i < 100000; ++i) {
      t += static_cast<TimestampMs>(rng.Below(50));
      const bool to_file = rng.Chance(0.7);
      d->RecordEvent(1, proc, to_file ? Operation::kRead : Operation::kStart,
                     to_file ? EntityType::kFile : EntityType::kProcess, to_file ? file : proc,
                     t, static_cast<int64_t>(rng.Below(1 << 20)));
    }
    d->Finalize();
    return d;
  }();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.columns = state.range(0) == 0 ? kEmitBaseColumns : kAllEventColumns;
  ScanStats stats;
  for (auto _ : state) {
    db->decode_cache().Clear();
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQuery(q, &s));
    stats = s;
  }
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.counters["decoded_mb"] = static_cast<double>(stats.decoded_bytes) / (1 << 20);
}
BENCHMARK(BM_ColdArchivedScan)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Archive codec alone (src/storage/encoding.h), outside any scan: 64 blocks
// of 1024 values shaped so the forced codec packs every block at exactly
// `width` bits (arg 0: width; arg 1: 0 = FOR, 1 = delta-FOR). FOR values and
// delta-FOR deltas both span [INT64_MIN, INT64_MIN + 2^width - 1], with each
// block's extremes pinned, so width 64 is reachable for both codecs.
// per_value is the time per value.
std::vector<int64_t> CodecInput(unsigned width, IntCodec codec) {
  const size_t n = 64 * kEncodingBlock;
  const uint64_t mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  const uint64_t kMinU = uint64_t{1} << 63;  // INT64_MIN
  Rng rng(width * 2 + static_cast<unsigned>(codec));
  std::vector<uint64_t> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = kMinU + (rng.Next() & mask);
  }
  for (size_t lo = 0; lo < n; lo += kEncodingBlock) {
    x[lo + 1] = kMinU;
    x[lo + 2] = kMinU + mask;
  }
  std::vector<int64_t> v(n);
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    prev = codec == IntCodec::kFor ? x[i] : prev + x[i];  // delta: x is the step
    v[i] = static_cast<int64_t>(prev);
  }
  return v;
}

void BM_DecodeColumn(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto codec = static_cast<IntCodec>(state.range(1));
  const std::vector<int64_t> v = CodecInput(width, codec);
  const EncodedInts e = EncodeInts(v.data(), v.size(), codec);
  std::vector<int64_t> out(v.size());
  for (auto _ : state) {
    DecodeIntsInto(e, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  if (out != v) {
    state.SkipWithError("decode mismatch");
    return;
  }
  state.counters["width"] = e.blocks[0].width;
  state.counters["per_value"] = benchmark::Counter(
      static_cast<double>(v.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(IntCodecName(codec));
}

void BM_EncodeColumn(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto codec = static_cast<IntCodec>(state.range(1));
  const std::vector<int64_t> v = CodecInput(width, codec);
  size_t words = 0;
  for (auto _ : state) {
    EncodedInts e = EncodeInts(v.data(), v.size(), codec);
    words = e.words.size();
    benchmark::DoNotOptimize(e);
  }
  state.counters["words"] = static_cast<double>(words);
  state.counters["per_value"] = benchmark::Counter(
      static_cast<double>(v.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetLabel(IntCodecName(codec));
}

void CodecArgs(benchmark::internal::Benchmark* b) {
  for (int codec : {0, 1}) {
    for (int width : {0, 2, 8, 15, 20, 64}) {
      b->Args({width, codec});
    }
  }
}
BENCHMARK(BM_DecodeColumn)->Apply(CodecArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EncodeColumn)->Apply(CodecArgs)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aiql

BENCHMARK_MAIN();
