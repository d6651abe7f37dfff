// Property-based tests: randomized sweeps checked against brute-force
// reference implementations.
//   - LIKE matching vs a recursive reference matcher,
//   - sliding-window aggregation vs direct recomputation per window,
//   - temporal joins vs nested-loop reference across all operators/ranges,
//   - data-query execution vs full-scan filtering across partition schemes,
//   - random data queries vs the brute-force reference scan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <ostream>

#include "src/core/engine.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/util/string_utils.h"
#include "tests/reference_scan.h"

namespace aiql {
namespace {

// Exponential-time but obviously-correct LIKE reference.
bool LikeReference(std::string_view text, std::string_view pattern) {
  if (pattern.empty()) {
    return text.empty();
  }
  char p = pattern[0];
  if (p == '%') {
    for (size_t skip = 0; skip <= text.size(); ++skip) {
      if (LikeReference(text.substr(skip), pattern.substr(1))) {
        return true;
      }
    }
    return false;
  }
  if (text.empty()) {
    return false;
  }
  char a = static_cast<char>(std::tolower(static_cast<unsigned char>(text[0])));
  char b = static_cast<char>(std::tolower(static_cast<unsigned char>(p)));
  if (p != '_' && a != b) {
    return false;
  }
  return LikeReference(text.substr(1), pattern.substr(1));
}

class LikePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LikePropertyTest, MatchesReferenceOnRandomInputs) {
  Rng rng(GetParam());
  const char alphabet[] = "ab%_c";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text, pattern;
    size_t tl = rng.Below(8);
    size_t pl = rng.Below(6);
    for (size_t i = 0; i < tl; ++i) {
      text.push_back("abc"[rng.Below(3)]);
    }
    for (size_t i = 0; i < pl; ++i) {
      pattern.push_back(alphabet[rng.Below(sizeof(alphabet) - 1)]);
    }
    EXPECT_EQ(LikeMatch(text, pattern), LikeReference(text, pattern))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// --- sliding-window aggregation vs brute force ---

struct WindowParams {
  DurationMs window;
  DurationMs step;
};

class AnomalyWindowPropertyTest : public ::testing::TestWithParam<WindowParams> {};

TEST_P(AnomalyWindowPropertyTest, SumsMatchBruteForce) {
  WindowParams params = GetParam();
  Database db;
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/p");
  uint32_t ip = db.catalog().InternNetwork(1, "1.1.1.1", "2.2.2.2", 1, 2);
  Rng rng(99);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<std::pair<TimestampMs, int64_t>> raw;
  for (int i = 0; i < 300; ++i) {
    TimestampMs t = base + static_cast<TimestampMs>(rng.Below(kHourMs));
    int64_t amount = rng.Range(1, 1000);
    raw.push_back({t, amount});
    db.RecordEvent(1, p, Operation::kWrite, EntityType::kNetwork, ip, t, amount);
  }
  db.Finalize();

  AiqlEngine engine(&db);
  std::string query =
      "(from \"2017-01-01 00:00\" to \"2017-01-01 01:00\")\n"
      "window = " + std::to_string(params.window / kSecondMs) + " sec, step = " +
      std::to_string(params.step / kSecondMs) + " sec\n" +
      R"(proc q write ip i as evt
return q, sum(evt.amount) as amt
group by q
having amt > 0)";
  auto r = engine.Execute(query);
  ASSERT_TRUE(r.ok()) << r.error();

  // Brute force: recompute each window sum directly from the raw events.
  std::map<std::string, double> expected;
  TimeRange range{base, base + kHourMs};
  for (TimestampMs ws = range.begin; ws < range.end; ws += params.step) {
    TimestampMs we = std::min(ws + params.window, range.end);
    double sum = 0;
    for (const auto& [t, amount] : raw) {
      if (t >= ws && t < we) {
        sum += static_cast<double>(amount);
      }
    }
    if (sum > 0) {
      expected[FormatTimestamp(ws)] = sum;
    }
  }
  ASSERT_EQ(r.value().num_rows(), expected.size());
  for (const auto& row : r.value().rows()) {
    auto it = expected.find(row[0].ToString());
    ASSERT_NE(it, expected.end()) << row[0].ToString();
    EXPECT_DOUBLE_EQ(row[2].as_double(), it->second) << row[0].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, AnomalyWindowPropertyTest,
                         ::testing::Values(WindowParams{kMinuteMs, 10 * kSecondMs},
                                           WindowParams{kMinuteMs, kMinuteMs},
                                           WindowParams{5 * kMinuteMs, kMinuteMs},
                                           WindowParams{30 * kSecondMs, 7 * kSecondMs}),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param.window / 1000) + "s" +
                                  std::to_string(info.param.step / 1000);
                         });

// --- temporal relationship joins vs brute force ---

struct TempJoinCase {
  const char* rel;  // relationship clause text
  // Reference: does the pair (evt1 at `l`, evt2 at `r`) satisfy `rel`?
  bool (*holds)(TimestampMs l, TimestampMs r);
};

void PrintTo(const TempJoinCase& c, std::ostream* os) { *os << c.rel; }

class TemporalJoinPropertyTest : public ::testing::TestWithParam<TempJoinCase> {};

// evt1's pattern carries one more constraint than evt2's, so the
// relationship scheduler leads with evt1: "evt1 <op> evt2" pushes the window
// down into the relationship's right pattern, "evt2 <op> evt1" into its left
// one (the flipped orientation of TempStartWindow), and the temporal join
// probes from either side accordingly.
TEST_P(TemporalJoinPropertyTest, MatchesNestedLoopReference) {
  Database db;
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/p");
  uint32_t q = db.catalog().InternProcess(1, 2, "/bin/q");
  uint32_t f = db.catalog().InternFile(1, "/data");
  uint32_t ip = db.catalog().InternNetwork(1, "1.1.1.1", "2.2.2.2", 1, 2);
  Rng rng(7);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<TimestampMs> lefts, rights;
  for (int i = 0; i < 60; ++i) {
    TimestampMs t = base + static_cast<TimestampMs>(rng.Below(20 * kMinuteMs));
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, t);
    lefts.push_back(t);
  }
  for (int i = 0; i < 60; ++i) {
    TimestampMs t = base + static_cast<TimestampMs>(rng.Below(20 * kMinuteMs));
    db.RecordEvent(1, q, Operation::kWrite, EntityType::kNetwork, ip, t);
    rights.push_back(t);
  }
  db.Finalize();

  std::string text = std::string(R"(
      proc a["/bin/p"] read file x["/data"] as evt1
      proc b["/bin/q"] write ip y as evt2
      with )") + GetParam().rel + "\nreturn count evt1.id, evt2.id";
  size_t expected = 0;
  for (TimestampMs l : lefts) {
    for (TimestampMs r : rights) {
      if (GetParam().holds(l, r)) {
        ++expected;
      }
    }
  }
  ASSERT_GT(expected, 0u) << GetParam().rel;
  for (SchedulerKind scheduler : {SchedulerKind::kRelationship, SchedulerKind::kFetchFilter,
                                  SchedulerKind::kBigJoin}) {
    for (bool pushdown : {true, false}) {
      AiqlEngine engine(&db, EngineOptions{.scheduler = scheduler, .pushdown = pushdown});
      auto r = engine.Execute(text);
      ASSERT_TRUE(r.ok()) << r.error();
      EXPECT_EQ(static_cast<size_t>(r.value().rows()[0][0].as_int()), expected)
          << GetParam().rel << " under " << SchedulerKindName(scheduler)
          << (pushdown ? " with" : " without") << " pushdown";
      if (scheduler == SchedulerKind::kRelationship) {
        EXPECT_EQ(r.value().exec_stats().pushdown_applications, pushdown ? 1u : 0u);
      }
    }
  }
}

DurationMs Gap(TimestampMs from, TimestampMs to) { return to - from; }

INSTANTIATE_TEST_SUITE_P(
    Operators, TemporalJoinPropertyTest,
    ::testing::Values(
        TempJoinCase{"evt1 before evt2", [](TimestampMs l, TimestampMs r) { return l < r; }},
        TempJoinCase{"evt1 after evt2", [](TimestampMs l, TimestampMs r) { return l > r; }},
        TempJoinCase{"evt1 within [0-2 minutes] evt2",
                     [](TimestampMs l, TimestampMs r) {
                       return std::abs(Gap(l, r)) <= 2 * kMinuteMs;
                     }},
        TempJoinCase{"evt1 before[1-5 minutes] evt2",
                     [](TimestampMs l, TimestampMs r) {
                       return Gap(l, r) >= kMinuteMs && Gap(l, r) <= 5 * kMinuteMs;
                     }},
        TempJoinCase{"evt1 after[1-5 minutes] evt2",
                     [](TimestampMs l, TimestampMs r) {
                       return Gap(r, l) >= kMinuteMs && Gap(r, l) <= 5 * kMinuteMs;
                     }},
        TempJoinCase{"evt1 within[1-3 minutes] evt2",
                     [](TimestampMs l, TimestampMs r) {
                       return std::abs(Gap(l, r)) >= kMinuteMs &&
                              std::abs(Gap(l, r)) <= 3 * kMinuteMs;
                     }},
        TempJoinCase{"evt2 before evt1", [](TimestampMs l, TimestampMs r) { return r < l; }},
        TempJoinCase{"evt2 before[1-5 minutes] evt1",
                     [](TimestampMs l, TimestampMs r) {
                       return Gap(r, l) >= kMinuteMs && Gap(r, l) <= 5 * kMinuteMs;
                     }},
        TempJoinCase{"evt2 after[2-4 minutes] evt1",
                     [](TimestampMs l, TimestampMs r) {
                       return Gap(l, r) >= 2 * kMinuteMs && Gap(l, r) <= 4 * kMinuteMs;
                     }}),
    [](const auto& info) { return "case" + std::to_string(info.index); });

// --- data-query execution vs full-scan reference across partition schemes ---

struct SchemeCase {
  PartitionScheme scheme;
  bool indexes;
};

class StorageSchemePropertyTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(StorageSchemePropertyTest, ExecuteMatchesFullScan) {
  SchemeCase param = GetParam();
  Database db{DatabaseOptions{.scheme = param.scheme, .build_indexes = param.indexes}};
  Rng rng(13);
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 10; ++i) {
    procs.push_back(db.catalog().InternProcess(1 + i % 3, 100 + i, "/bin/p" + std::to_string(i)));
  }
  for (int i = 0; i < 30; ++i) {
    files.push_back(db.catalog().InternFile(1 + i % 3, "/d/f" + std::to_string(i)));
  }
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 3000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    // File objects are host-local: the event's agent is the subject's agent,
    // and the referenced file must belong to the same host.
    AgentId agent = db.catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = files[rng.Below(files.size())];
    } while (db.catalog().AgentOf(EntityType::kFile, obj) != agent);
    db.RecordEvent(agent, subj, rng.Chance(0.5) ? Operation::kRead : Operation::kWrite,
                   EntityType::kFile, obj,
                   base + static_cast<TimestampMs>(rng.Below(2 * kDayMs)),
                   rng.Range(0, 10000));
  }
  db.Finalize();

  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kWrite);
  q.agent_ids = std::vector<AgentId>{2};
  q.time = TimeRange{base + kHourMs, base + kDayMs + 2 * kHourMs};
  AttrPredicate pred;
  pred.attr = "name";
  pred.op = CmpOp::kLike;
  pred.values = {Value("/d/f1%")};
  q.object_pred = PredExpr::Leaf(pred);

  std::vector<int64_t> got;
  for (const EventView& e : db.ExecuteQuery(q)) {
    got.push_back(e.id());
  }
  std::vector<int64_t> expected;
  db.ForEachEvent([&](const Event& e) {
    if (e.op != Operation::kWrite || e.agent_id != 2 || !q.time.Contains(e.start_time)) {
      return;
    }
    const std::string& name = db.catalog().files()[e.object_idx].name;
    if (!LikeMatch(name, "/d/f1%")) {
      return;
    }
    expected.push_back(e.id);
  });
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, StorageSchemePropertyTest,
    ::testing::Values(SchemeCase{PartitionScheme::kTimeSpace, true},
                      SchemeCase{PartitionScheme::kTimeSpace, false},
                      SchemeCase{PartitionScheme::kNone, true},
                      SchemeCase{PartitionScheme::kNone, false}),
    [](const auto& info) {
      return std::string(info.param.scheme == PartitionScheme::kTimeSpace ? "part" : "flat") +
             (info.param.indexes ? "Idx" : "NoIdx");
    });

// --- random data queries vs the brute-force reference scan ---
//
// Every constraint a data query can carry (op mask, object type, time range,
// agents, entity predicates, pushed-down candidate sets, vectorizable and
// residual event predicates) drawn at random, on an indexed store (posting
// access path), an unindexed one (vectorized membership probes), and an
// archived one (on-demand column decoding). Each must return exactly the
// reference's rows in the reference's order.

TEST(ReferenceScanPropertyTest, RandomQueriesMatchReference) {
  std::vector<std::unique_ptr<Database>> dbs;
  dbs.push_back(std::make_unique<Database>());
  dbs.push_back(std::make_unique<Database>(DatabaseOptions{.build_indexes = false}));
  dbs.push_back(std::make_unique<Database>(DatabaseOptions{.archive_after_days = 0}));
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (const auto& db : dbs) {
    Rng rng(17);  // identical streams into every store
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
    for (int i = 0; i < 4000; ++i) {
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
  ASSERT_GT(dbs.back()->num_archived_partitions(), 0u);

  auto leaf = [](const char* attr, CmpOp op, Value v) {
    AttrPredicate p;
    p.attr = attr;
    p.op = op;
    p.values = {std::move(v)};
    return PredExpr::Leaf(std::move(p));
  };
  // A random subset of [0, count) (possibly empty).
  auto candidates = [](Rng* rng, size_t count) {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < count; ++i) {
      if (rng->Chance(0.4)) {
        out.push_back(i);
      }
    }
    return out;
  };
  const EntityCatalog& catalog = dbs.front()->catalog();

  Rng rng(202);
  int nonempty = 0;
  for (int trial = 0; trial < 200; ++trial) {
    DataQuery q;
    q.object_type = static_cast<EntityType>(rng.Below(3));
    if (rng.Chance(0.5)) {
      q.op_mask = static_cast<OpMask>(rng.Range(1, kAllOps));
    }
    if (rng.Chance(0.6)) {
      TimestampMs a = base + static_cast<TimestampMs>(rng.Below(3 * kDayMs));
      TimestampMs b = base + static_cast<TimestampMs>(rng.Below(3 * kDayMs));
      q.time = TimeRange{std::min(a, b), std::max(a, b) + 1};
    }
    if (rng.Chance(0.4)) {
      q.agent_ids = std::vector<AgentId>{static_cast<AgentId>(rng.Range(1, 4))};
    }
    if (rng.Chance(0.2)) {
      q.subject_pred = leaf("user", CmpOp::kEq, Value(rng.Chance(0.5) ? "root" : "alice"));
    }
    if (rng.Chance(0.2)) {
      q.object_pred = leaf(DefaultAttr(q.object_type).name.data(), CmpOp::kLike,
                           Value(rng.Chance(0.5) ? "%1%" : "%8%"));
    }
    // Pushed-down candidate sets, conjoined as pushdown does.
    if (rng.Chance(0.3)) {
      q.subject_pred =
          PredExpr::And(std::move(q.subject_pred),
                        IdIn(catalog, EntityType::kProcess,
                             candidates(&rng, catalog.CountOf(EntityType::kProcess))));
    }
    if (rng.Chance(0.3)) {
      q.object_pred = PredExpr::And(
          std::move(q.object_pred),
          IdIn(catalog, q.object_type, candidates(&rng, catalog.CountOf(q.object_type))));
    }
    PredExpr pred;
    switch (rng.Below(6)) {
      case 0:
        pred = leaf("amount", CmpOp::kGt, Value(static_cast<int64_t>(rng.Below(5000))));
        break;
      case 1:
        pred = PredExpr::And(
            leaf("amount", CmpOp::kGe, Value(static_cast<int64_t>(rng.Below(2500)))),
            leaf("failure_code", CmpOp::kEq, Value(static_cast<int64_t>(rng.Below(3)))));
        break;
      case 2:
        pred = leaf("optype", CmpOp::kEq,
                    Value(OperationName(static_cast<Operation>(rng.Below(kNumOperations)))));
        break;
      case 3: {
        std::vector<Value> in_values;
        for (int k = 0; k < 20; ++k) {
          in_values.push_back(Value(static_cast<int64_t>(rng.Below(5000))));
        }
        pred = PredExpr::Leaf(AttrPredicate::In("amount", std::move(in_values)));
        break;
      }
      case 4:
        // Disjunction: not vectorizable, exercises the residual path.
        pred = PredExpr::Or(
            leaf("amount", CmpOp::kLt, Value(static_cast<int64_t>(rng.Below(1000)))),
            leaf("failure_code", CmpOp::kNe, Value(int64_t{0})));
        break;
      default:
        break;  // no event predicate
    }
    q.event_pred = std::move(pred);

    std::vector<ReferenceRow> expected = RowsOf(ReferenceScan(*dbs.front(), q));
    nonempty += expected.empty() ? 0 : 1;
    for (size_t d = 0; d < dbs.size(); ++d) {
      ColumnPins pins;  // archived views stay valid until compared
      ScanContext ctx{.pins = &pins};
      EXPECT_EQ(RowsOf(dbs[d]->ExecuteQuery(q, nullptr, &ctx)), expected)
          << "trial " << trial << " store " << d;
    }
  }
  // The sweep is not vacuous: most queries match something.
  EXPECT_GT(nonempty, 100);
}

}  // namespace
}  // namespace aiql
