// Cross-engine equivalence: every query of the evaluation corpus must return
// identical result rows on
//   - the relationship scheduler (AIQL),
//   - fetch-and-filter (AIQL FF),
//   - the big-join baseline (PostgreSQL scheduling model),
//   - the property-graph engine (Neo4j model),
//   - the MPP cluster under both distribution policies (Greenplum model),
// and must be NON-EMPTY: the injected attack behaviors are found.
//
// This is the core correctness property of the reproduction: the performance
// comparisons of Figs 5-7 are only meaningful because all engines compute
// the same answers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/graph/graph_engine.h"
#include "src/mpp/mpp_cluster.h"
#include "src/storage/schema.h"
#include "src/workload/workload.h"
#include "tests/reference_scan.h"

namespace aiql {
namespace {

struct SharedWorld {
  ScenarioConfig config;
  std::unique_ptr<Database> db;
  std::unique_ptr<Database> archived;  // the same trace, every partition archived
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PropertyGraph> graph;
  std::unique_ptr<MppCluster> mpp_rr;
  std::unique_ptr<MppCluster> mpp_sem;
  std::vector<QuerySpec> all_queries;
};

const SharedWorld& World() {
  static SharedWorld* world = [] {
    auto* w = new SharedWorld();
    w->config.trace.num_hosts = 6;
    w->config.trace.events_per_host_per_day = 700;
    w->config.trace.num_days = 2;
    w->db = std::make_unique<Database>();
    w->workload = std::make_unique<Workload>(w->config, w->db.get());
    w->workload->Build();
    w->db->Finalize();
    w->archived = std::make_unique<Database>(DatabaseOptions{.archive_after_days = 0});
    Workload(w->config, w->archived.get()).Build();
    w->archived->Finalize();
    w->graph = std::make_unique<PropertyGraph>();
    w->graph->BuildFrom(*w->db);
    w->mpp_rr =
        std::make_unique<MppCluster>(5, DistributionPolicy::kArrivalRoundRobin);
    w->mpp_rr->BuildFrom(*w->db);
    w->mpp_sem = std::make_unique<MppCluster>(5, DistributionPolicy::kSemanticsAware);
    w->mpp_sem->BuildFrom(*w->db);
    for (const auto& q : w->workload->CaseStudyQueries()) {
      w->all_queries.push_back(q);
    }
    for (const auto& q : w->workload->BehaviorQueries()) {
      w->all_queries.push_back(q);
    }
    return w;
  }();
  return *world;
}

class CorpusEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusEquivalenceTest, AllEnginesAgreeAndFindAttack) {
  const SharedWorld& world = World();
  const QuerySpec& spec = world.all_queries[GetParam()];
  SCOPED_TRACE("query " + spec.id);

  Result<QueryContext> ctx = CompileQuery(spec.text);
  ASSERT_TRUE(ctx.ok()) << spec.id << ": " << ctx.error();

  AiqlEngine aiql_engine(world.db.get(), EngineOptions{.time_budget_ms = 60000});
  Result<ResultTable> reference = aiql_engine.ExecuteContext(ctx.value());
  ASSERT_TRUE(reference.ok()) << spec.id << ": " << reference.error();
  EXPECT_GT(reference.value().num_rows(), 0u)
      << spec.id << ": the injected behavior must be found";

  if (spec.anomaly) {
    return;  // baselines cannot express anomaly queries (paper §6.1)
  }

  for (SchedulerKind scheduler :
       {SchedulerKind::kFetchFilter, SchedulerKind::kBigJoin}) {
    AiqlEngine other(world.db.get(),
                     EngineOptions{.scheduler = scheduler, .time_budget_ms = 120000});
    Result<ResultTable> r = other.ExecuteContext(ctx.value());
    ASSERT_TRUE(r.ok()) << spec.id << "/" << SchedulerKindName(scheduler) << ": " << r.error();
    EXPECT_TRUE(reference.value().SameRowsAs(r.value()))
        << spec.id << ": " << SchedulerKindName(scheduler) << " diverges\nreference:\n"
        << reference.value().ToString() << "\nother:\n"
        << r.value().ToString();
  }

  GraphEngine graph_engine(world.graph.get(), /*time_budget_ms=*/120000);
  Result<ResultTable> graph_result = graph_engine.Execute(ctx.value());
  ASSERT_TRUE(graph_result.ok()) << spec.id << "/graph: " << graph_result.error();
  EXPECT_TRUE(reference.value().SameRowsAs(graph_result.value()))
      << spec.id << ": graph engine diverges\nreference:\n"
      << reference.value().ToString() << "\ngraph:\n"
      << graph_result.value().ToString();

  for (const MppCluster* cluster : {world.mpp_rr.get(), world.mpp_sem.get()}) {
    AiqlEngine mpp_engine(cluster, EngineOptions{.time_budget_ms = 120000});
    Result<ResultTable> r = mpp_engine.ExecuteContext(ctx.value());
    ASSERT_TRUE(r.ok()) << spec.id << "/mpp-" << DistributionPolicyName(cluster->policy())
                        << ": " << r.error();
    EXPECT_TRUE(reference.value().SameRowsAs(r.value()))
        << spec.id << ": mpp-" << DistributionPolicyName(cluster->policy()) << " diverges";
  }
}

std::string QueryName(const ::testing::TestParamInfo<size_t>& info) {
  std::string id = World().all_queries[info.param].id;
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return id;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusEquivalenceTest,
                         ::testing::Range<size_t>(0, 45),  // 26 case-study + 19 behavior
                         QueryName);

// Every accepted spelling of every schema attribute, canonical names
// included: one generated single-pattern query each, constraining the
// attribute to its value on a sample event, so the predicate matches at
// least that event. Each spelling must return its canonical name's rows on
// every engine and storage configuration, and the data query must return the
// reference scan's rows.
struct Spelling {
  const AttrDef* attr = nullptr;
  std::string_view text;
};

const std::vector<Spelling>& Spellings() {
  static const std::vector<Spelling> spellings = [] {
    std::vector<Spelling> out;
    for (const AttrDef& a : AttrTable()) {
      out.push_back(Spelling{&a, a.name});
      for (std::string_view alias : a.aliases) {
        if (!alias.empty()) {
          out.push_back(Spelling{&a, alias});
        }
      }
    }
    return out;
  }();
  return spellings;
}

// An AIQL literal for `v`.
std::string Literal(const Value& v) {
  if (!v.is_string()) {
    return v.ToString();
  }
  std::string out = "\"";
  for (char c : v.as_string()) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// `proc p[...] <op> <type> o as evt[...] return distinct p, o, evt.id`, with
// `spelling = value` on the attribute's owner and the sample event's
// operation and object type.
std::string SpellingQuery(const Spelling& s, const Event& sample, const Value& value) {
  const std::string cstr = "[" + std::string(s.text) + " = " + Literal(value) + "]";
  const AttrOwner owner = s.attr->owner;
  return std::string("proc p") + (owner == AttrOwner::kProcess ? cstr : "") + " " +
         OperationName(sample.op) + " " + EntityTypeName(sample.object_type) + " o" +
         (owner == OwnerOf(sample.object_type) ? cstr : "") + " as evt" +
         (owner == AttrOwner::kEvent ? cstr : "") + " return distinct p, o, evt.id";
}

class SpellingEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpellingEquivalenceTest, EverySpellingReturnsTheCanonicalRowsOnEveryEngine) {
  const SharedWorld& world = World();
  const Spelling& spelling = Spellings()[GetParam()];
  const AttrDef& attr = *spelling.attr;
  const EntityCatalog& catalog = world.db->catalog();

  // The first event carrying the owner: any event for subject and event
  // attributes, one with an object of the owner's type otherwise.
  std::optional<Event> sample;
  world.db->ForEachEvent([&](const Event& e) {
    if (!sample.has_value() && (attr.owner == AttrOwner::kEvent ||
                                attr.owner == AttrOwner::kProcess ||
                                attr.owner == OwnerOf(e.object_type))) {
      sample = e;
    }
  });
  ASSERT_TRUE(sample.has_value());
  const Value value =
      attr.owner == AttrOwner::kEvent     ? attr.event(EventView(&*sample), catalog)
      : attr.owner == AttrOwner::kProcess ? attr.entity(catalog, sample->subject_idx)
                                          : attr.entity(catalog, sample->object_idx);

  const std::string text = SpellingQuery(spelling, *sample, value);
  const std::string canonical_text =
      SpellingQuery(Spelling{&attr, attr.name}, *sample, value);
  SCOPED_TRACE(text);
  Result<QueryContext> ctx = CompileQuery(text);
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  Result<QueryContext> canonical_ctx = CompileQuery(canonical_text);
  ASSERT_TRUE(canonical_ctx.ok()) << canonical_ctx.error();

  const EngineOptions options{.time_budget_ms = 120000};
  Result<ResultTable> expected = AiqlEngine(world.db.get(), options).ExecuteContext(
      canonical_ctx.value());
  ASSERT_TRUE(expected.ok()) << expected.error();
  EXPECT_GT(expected.value().num_rows(), 0u) << "the predicate matches its sample event";

  auto expect_same = [&](const char* engine, const Result<ResultTable>& r) {
    ASSERT_TRUE(r.ok()) << engine << ": " << r.error();
    EXPECT_TRUE(expected.value().SameRowsAs(r.value()))
        << engine << " diverges\nexpected:\n"
        << expected.value().ToString() << "\n" << engine << ":\n"
        << r.value().ToString();
  };
  expect_same("hot", AiqlEngine(world.db.get(), options).ExecuteContext(ctx.value()));
  expect_same("archived",
              AiqlEngine(world.archived.get(), options).ExecuteContext(ctx.value()));
  for (const MppCluster* cluster : {world.mpp_rr.get(), world.mpp_sem.get()}) {
    expect_same(DistributionPolicyName(cluster->policy()),
                AiqlEngine(cluster, options).ExecuteContext(ctx.value()));
  }
  expect_same("graph", GraphEngine(world.graph.get(), 120000).Execute(ctx.value()));

  const DataQuery& q = ctx.value().patterns[0].query;
  EXPECT_EQ(RowsOf(world.db->ExecuteQuery(q)), RowsOf(ReferenceScan(*world.db, q)));
}

std::string SpellingName(const ::testing::TestParamInfo<size_t>& info) {
  const Spelling& s = Spellings()[info.param];
  const AttrOwner owner = s.attr->owner;
  return std::string(owner == AttrOwner::kEvent ? "evt"
                                                : EntityTypeName(static_cast<EntityType>(owner))) +
         "_" + std::string(s.text);
}

INSTANTIATE_TEST_SUITE_P(Schema, SpellingEquivalenceTest,
                         ::testing::Range<size_t>(0, Spellings().size()), SpellingName);

TEST(CorpusTest, ExpectedQueryCounts) {
  const SharedWorld& world = World();
  EXPECT_EQ(world.workload->CaseStudyQueries().size(), 26u);
  EXPECT_EQ(world.workload->BehaviorQueries().size(), 19u);
  EXPECT_EQ(world.all_queries.size(), 45u);
}

TEST(CorpusTest, PatternCountsMatchTable3) {
  // Table 3: c1:1q/3p, c2:8q/27p, c3:2q/4p, c4:8q/35p, c5:7q/18p.
  const SharedWorld& world = World();
  std::map<std::string, std::pair<size_t, size_t>> per_step;  // step -> (queries, patterns)
  for (const auto& spec : world.workload->CaseStudyQueries()) {
    auto ctx = CompileQuery(spec.text);
    ASSERT_TRUE(ctx.ok()) << spec.id << ": " << ctx.error();
    std::string step = spec.id.substr(0, 2);
    per_step[step].first += 1;
    per_step[step].second += ctx.value().patterns.size();
  }
  EXPECT_EQ(per_step["c1"], (std::pair<size_t, size_t>{1, 3}));
  EXPECT_EQ(per_step["c2"], (std::pair<size_t, size_t>{8, 27}));
  EXPECT_EQ(per_step["c3"], (std::pair<size_t, size_t>{2, 4}));
  EXPECT_EQ(per_step["c4"], (std::pair<size_t, size_t>{8, 35}));
  EXPECT_EQ(per_step["c5"], (std::pair<size_t, size_t>{7, 18}));
}

TEST(CorpusTest, AnomalyQueryDetectsExfiltration) {
  const SharedWorld& world = World();
  AiqlEngine engine(world.db.get());
  auto spec = world.workload->CaseStudyAnomalyQuery();
  auto r = engine.Execute(spec.text);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_GT(r.value().num_rows(), 0u);
  // The alerting process is the injected implant.
  EXPECT_NE(r.value().rows()[0][1].ToString().find("sbblv"), std::string::npos);
}

TEST(CorpusTest, WorkloadIsDeterministic) {
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 300;
  config.trace.num_days = 2;
  Database a, b;
  Workload wa(config, &a), wb(config, &b);
  wa.Build();
  wb.Build();
  a.Finalize();
  b.Finalize();
  ASSERT_EQ(a.num_events(), b.num_events());
  std::vector<std::tuple<int64_t, uint32_t, int, TimestampMs>> ea, eb;
  a.ForEachEvent([&](const Event& e) {
    ea.emplace_back(e.id, e.subject_idx, static_cast<int>(e.op), e.start_time);
  });
  b.ForEachEvent([&](const Event& e) {
    eb.emplace_back(e.id, e.subject_idx, static_cast<int>(e.op), e.start_time);
  });
  EXPECT_EQ(ea, eb);
}

TEST(CorpusTest, ParallelismDoesNotChangeResults) {
  const SharedWorld& world = World();
  for (const auto& spec : {world.all_queries[0], world.all_queries[20]}) {
    AiqlEngine seq(world.db.get(), EngineOptions{.parallelism = 1});
    AiqlEngine par(world.db.get(), EngineOptions{.parallelism = 4});
    auto a = seq.Execute(spec.text);
    auto b = par.Execute(spec.text);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_TRUE(a.value().SameRowsAs(b.value())) << spec.id;
  }
}

// An EventStore decorator that forwards every fetch to a Database and checks
// the returned rows against the brute-force reference scan of the same data
// query, so the whole engine (schedulers, pushdown, plan cache) drives the
// storage layer through query shapes only the corpus produces.
class ReferenceCheckingStore : public EventStore {
 public:
  explicit ReferenceCheckingStore(const Database* db) : db_(db) {}

  const EntityCatalog& catalog() const override { return db_->catalog(); }
  TimeRange data_time_range() const override { return db_->data_time_range(); }
  bool SupportsDaySplit() const override { return db_->SupportsDaySplit(); }
  bool SupportsParallelScan() const override { return db_->SupportsParallelScan(); }
  size_t PlanCacheCapacity() const override { return db_->PlanCacheCapacity(); }

  std::vector<EventView> ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                      const ScanContext* ctx) const override {
    return Check(q, db_->ExecuteQuery(q, stats, ctx));
  }
  std::vector<EventView> ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                            ThreadPool* pool, ScanPlanCache* cache,
                                            uint64_t* cache_hits,
                                            const ScanContext* ctx) const override {
    return Check(q, db_->ExecuteQueryCached(q, stats, pool, cache, cache_hits, ctx));
  }

  size_t fetches() const { return fetches_; }

 private:
  std::vector<EventView> Check(const DataQuery& q, std::vector<EventView> rows) const {
    EXPECT_EQ(RowsOf(rows), RowsOf(ReferenceScan(*db_, q))) << "fetch " << fetches_;
    ++fetches_;
    return rows;
  }

  const Database* db_;
  mutable std::atomic<size_t> fetches_{0};
};

TEST(CorpusTest, EveryFetchMatchesReferenceAcrossSchedulers) {
  // Every data query the engine issues for the case-study corpus, under
  // every scheduling strategy with and without pushdown, returns exactly the
  // reference scan's rows.
  const SharedWorld& world = World();
  ReferenceCheckingStore store(world.db.get());
  for (const auto& spec : world.workload->CaseStudyQueries()) {
    for (SchedulerKind scheduler : {SchedulerKind::kRelationship, SchedulerKind::kFetchFilter,
                                    SchedulerKind::kBigJoin}) {
      for (bool pushdown : {true, false}) {
        AiqlEngine engine(&store, EngineOptions{.scheduler = scheduler,
                                                .pushdown = pushdown,
                                                .time_budget_ms = 120000});
        auto r = engine.Execute(spec.text);
        ASSERT_TRUE(r.ok()) << spec.id << ": " << r.error();
        EXPECT_GT(r.value().num_rows(), 0u)
            << spec.id << " under " << SchedulerKindName(scheduler) << " pushdown " << pushdown;
      }
    }
  }
  // Every run fetched through the checking store.
  EXPECT_GE(store.fetches(), world.workload->CaseStudyQueries().size() * 6);
}

TEST(CorpusTest, StorageSchemesAgree) {
  // Partitioned + indexed vs monolithic + unindexed storage: same answers.
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 300;
  config.trace.num_days = 2;
  Database optimized;
  Workload w1(config, &optimized);
  w1.Build();
  optimized.Finalize();
  Database plain{DatabaseOptions{.scheme = PartitionScheme::kNone, .build_indexes = false}};
  Workload w2(config, &plain);
  w2.Build();
  plain.Finalize();
  for (const auto& spec : w1.CaseStudyQueries()) {
    AiqlEngine a(&optimized), b(&plain);
    auto ra = a.Execute(spec.text);
    auto rb = b.Execute(spec.text);
    ASSERT_TRUE(ra.ok()) << spec.id << ": " << ra.error();
    ASSERT_TRUE(rb.ok()) << spec.id << ": " << rb.error();
    EXPECT_TRUE(ra.value().SameRowsAs(rb.value())) << spec.id;
  }
}

}  // namespace
}  // namespace aiql
