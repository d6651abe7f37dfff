// Multievent projection against the reference interpreter.
//
// ProjectResults runs return items, group keys, aggregates and having on the
// compiled projector; tests/reference_projection.h holds the straightforward
// interpreter it replaced. The seeded differential test below draws random
// return clauses over the tuple sets of 1-, 2- and 3-pattern queries (and of
// queries that match nothing) and requires both to return the same rows in
// the same order, with doubles bit-equal.
#include <gtest/gtest.h>

#include "src/core/exec_session.h"
#include "src/core/executor.h"
#include "src/core/projector.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "tests/event_table.h"
#include "tests/reference_projection.h"

namespace aiql {
namespace {

// The pattern part of a query and the names its return clause may use.
struct Shape {
  std::string patterns;
  std::vector<std::string> entities;  // entity variables (default attribute)
  std::vector<std::string> scalars;   // other scalar expressions
  bool empty = false;                 // matches no event
};

std::vector<Shape> Shapes() {
  const std::vector<std::string> one{
      "p1.pid",          "p1.user",         "f1.owner",
      "evt1.amount",     "evt1.optype",     "evt1.amount * 2 + 1",
      "evt1.amount / 7", "evt1.amount / 0", "p1.pid - 100",
      "p1.pid < 104.5",  "p1 = \"/bin/a\"", "p1.pid > \"103\"",
      "p1.user < p1",    "f1 != p1",        "-evt1.amount",
      "!(p1.pid > 102)", "-(p1.pid / 3)",   "!p1.user",
      "evt1.amount / 2 > p1.pid",           "evt1.amount >= 2500"};
  std::vector<std::string> two = one;
  for (const char* s : {"p2.pid", "p2", "evt2.amount - evt1.amount", "p1 = p2",
                        "p1.pid < p2.pid", "evt2.amount * 1.5"}) {
    two.push_back(s);
  }
  std::vector<std::string> three = two;
  for (const char* s : {"i1.dstport", "i1.dstip", "evt3.amount + evt2.amount", "i1 = p1"}) {
    three.push_back(s);
  }
  const std::string window = "(from \"2017-01-01 00:00\" to \"2017-01-01 02:00\")\n";
  const std::string p2 = "proc p2 read file f1 as evt2\n";
  const std::string p3 = "proc p2 write ip i1 as evt3\n";
  return {
      {window + "proc p1 read || write file f1 as evt1\n", {"p1", "f1"}, one},
      {window + "proc p1 write file f1 as evt1\n" + p2 + "with evt1 before evt2\n",
       {"p1", "f1", "p2"},
       two},
      {window + "proc p1 write file f1 as evt1\n" + p2 + p3 +
           "with evt1 before evt2, evt2 before evt3\n",
       {"p1", "f1", "p2", "i1"},
       three},
      {window + "proc p1[\"/nonexistent\"] read file f1 as evt1\n", {"p1", "f1"}, one, true},
      {window + "proc p1 write file f1[\"/nonexistent\"] as evt1\n" + p2 +
           "with evt1 before evt2\n",
       {"p1", "f1", "p2"},
       two,
       true},
  };
}

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.Below(options.size())];
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    out += (i > 0 ? ", " : "") + parts[i];
  }
  return out;
}

// One random return clause (with group by / having / sort by / top) over
// `shape`, and the same clause under a `return count` prefix when one was
// drawn (empty otherwise).
struct Clause {
  std::string text;
  std::string count_variant;
};

Clause RandomClause(Rng& rng, const Shape& shape) {
  std::vector<std::string> any = shape.entities;
  any.insert(any.end(), shape.scalars.begin(), shape.scalars.end());
  std::vector<std::string> items, names, group_by;
  const bool grouped = rng.Below(2) == 0;
  if (grouped) {
    // Keys: none (one global group), entity keys, multi-key, or expressions.
    switch (rng.Below(4)) {
      case 0:
        break;
      case 1:
        group_by = {Pick(rng, shape.entities)};
        break;
      case 2:
        group_by = {shape.entities[0], Pick(rng, shape.entities)};
        break;
      default:
        group_by = {Pick(rng, {"evt1.amount > 2500", "p1.pid / 2", "p1.user"})};
    }
    // Entity keys are returned as items; expression keys only group.
    for (const std::string& key : group_by) {
      if (key.find_first_of(" .") == std::string::npos) {
        items.push_back(key);
        names.push_back(key);
      }
    }
    const std::vector<std::string> aggs{"count()",
                                        "count(f1)",
                                        "count(distinct p1)",
                                        "count(distinct evt1.amount / 1000)",
                                        "count(distinct p1.user)",
                                        "count(evt1.amount)",
                                        "sum(evt1.amount)",
                                        "sum(p1)",
                                        "avg(evt1.amount)",
                                        "avg(p1.pid > 103)",
                                        "min(p1.pid)",
                                        "max(evt1.amount * 1.5)",
                                        "max(p1)",
                                        "min(evt1.amount) - max(evt1.amount)"};
    const size_t num_aggs = 1 + rng.Below(3);
    for (size_t a = 0; a < num_aggs; ++a) {
      names.push_back("a" + std::to_string(a));
      items.push_back(Pick(rng, aggs) + " as " + names.back());
    }
    if (rng.Below(3) == 0) {
      // A plain reference reads the group's first row.
      names.push_back("r");
      items.push_back(Pick(rng, any) + " as r");
    }
  } else {
    const size_t num_items = 1 + rng.Below(4);
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Below(3) == 0) {
        const std::string e = Pick(rng, shape.entities);
        items.push_back(e);
        names.push_back(e);
      } else {
        names.push_back("x" + std::to_string(i));
        items.push_back(Pick(rng, any) + " as " + names.back());
      }
    }
  }

  // 0: distinct, 1: count, 2: count distinct, otherwise neither.
  const uint64_t prefix = rng.Below(6);
  const std::string distinct = prefix == 0 || prefix == 2 ? "distinct " : "";
  const std::string returns = distinct + Join(items) + "\n";
  std::string text;
  if (!group_by.empty()) {
    text += "group by " + Join(group_by) + "\n";
  }
  if (rng.Below(2) == 0) {
    const std::string n = Pick(rng, names);
    const std::string c = std::to_string(rng.Range(0, 5000));
    std::vector<std::string> atoms{n + " > " + c,
                                   n + " != " + Pick(rng, names),
                                   "!(" + n + " = 0)",
                                   "-" + n + " < -" + c,
                                   n + " >= \"" + c + "\"",
                                   "count() > 1",
                                   "sum(evt1.amount) / 3 > " + c,
                                   Pick(rng, shape.scalars),
                                   shape.entities[0] + " != \"/bin/a\""};
    text += "having " + Pick(rng, atoms);
    if (rng.Below(3) == 0) {
      text += (rng.Below(2) == 0 ? " && " : " || ") + Pick(rng, atoms);
    }
    text += "\n";
  }
  if (rng.Below(2) == 0) {
    text += "sort by " + Pick(rng, names);
    if (rng.Below(3) == 0) {
      text += ", " + Pick(rng, names);
    }
    text += rng.Below(2) == 0 ? " desc\n" : " asc\n";
  }
  if (rng.Below(3) == 0) {
    text += "top " + std::to_string(rng.Range(0, 20)) + "\n";
  }
  const bool count = prefix == 1 || prefix == 2;
  return {"return " + returns + text, count ? "return count " + returns + text : ""};
}

class ProjectionTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
    const char* exes[] = {"/bin/a", "/bin/b", "/usr/bin/c", "sh", "103"};
    const char* users[] = {"alice", "bob", "root", ""};
    std::vector<uint32_t> procs, files, nets;
    for (int i = 0; i < 8; ++i) {
      procs.push_back(db_.catalog().InternProcess(1, 100 + i, exes[rng.Below(5)],
                                                  users[rng.Below(4)]));
    }
    for (int i = 0; i < 6; ++i) {
      files.push_back(db_.catalog().InternFile(1, "/tmp/f" + std::to_string(i),
                                               users[rng.Below(4)]));
    }
    for (int i = 0; i < 3; ++i) {
      nets.push_back(db_.catalog().InternNetwork(1, "10.0.0.1", "9.9.9." + std::to_string(i),
                                                 1000 + i, static_cast<int32_t>(80 + i)));
    }
    for (int i = 0; i < 160; ++i) {
      const uint32_t p = procs[rng.Below(procs.size())];
      const TimestampMs t = t0 + static_cast<TimestampMs>(rng.Below(2 * kHourMs));
      const int64_t amount = rng.Below(8) == 0 ? 0 : rng.Range(1, 5000);
      switch (rng.Below(3)) {
        case 0:
          db_.RecordEvent(1, p, Operation::kRead, EntityType::kFile,
                          files[rng.Below(files.size())], t, amount);
          break;
        case 1:
          db_.RecordEvent(1, p, Operation::kWrite, EntityType::kFile,
                          files[rng.Below(files.size())], t, amount);
          break;
        default:
          db_.RecordEvent(1, p, Operation::kWrite, EntityType::kNetwork,
                          nets[rng.Below(nets.size())], t, amount);
      }
    }
    db_.Finalize();
  }

  // Runs the multievent part of `text`, then both projections over its tuple
  // set; returns false when the query does not compile.
  bool ExpectSameProjection(const std::string& text, size_t* rows = nullptr,
                            size_t* tuples = nullptr) {
    Result<QueryContext> ctx = CompileQuery(text);
    if (!ctx.ok()) {
      ADD_FAILURE() << ctx.error() << "\n" << text;
      return false;
    }
    ExecutionSession session;
    Result<TupleSet> set = ExecuteMultievent(db_, ctx.value(), ExecOptions{}, nullptr, &session);
    if (!set.ok()) {
      ADD_FAILURE() << set.error() << "\n" << text;
      return false;
    }
    Result<ResultTable> want = reference::ProjectResults(ctx.value(), set.value(), db_.catalog());
    Result<ResultTable> got = ProjectResults(ctx.value(), set.value(), db_.catalog());
    EXPECT_EQ(want.ok(), got.ok()) << text;
    if (want.ok() && got.ok()) {
      EXPECT_EQ(reference::TableDiff(want.value(), got.value()), "") << text;
      if (rows != nullptr) {
        *rows = got.value().num_rows();
      }
    } else if (!want.ok() && !got.ok()) {
      EXPECT_EQ(want.error(), got.error()) << text;
    }
    if (tuples != nullptr) {
      *tuples = set.value().num_rows();
    }
    return true;
  }

  Database db_;
};

TEST_P(ProjectionTest, CompiledMatchesReference) {
  Rng rng(GetParam() * 6151 + 17);
  const std::vector<Shape> shapes = Shapes();
  for (const Shape& shape : shapes) {
    // `nonempty` counts answers of the clauses without a count prefix only.
    size_t compiled = 0, nonempty = 0, tuples = 0, counted = 0, counted_compiled = 0;
    const int queries = 40;
    for (int q = 0; q < queries; ++q) {
      const Clause clause = RandomClause(rng, shape);
      size_t rows = 0;
      if (ExpectSameProjection(shape.patterns + clause.text, &rows, &tuples)) {
        ++compiled;
        nonempty += rows > 0 ? 1 : 0;
      }
      if (!clause.count_variant.empty()) {
        ++counted;
        counted_compiled += ExpectSameProjection(shape.patterns + clause.count_variant) ? 1 : 0;
      }
    }
    EXPECT_EQ(compiled, static_cast<size_t>(queries)) << shape.patterns;
    EXPECT_EQ(counted_compiled, counted) << shape.patterns;
    EXPECT_GT(counted, 0u) << shape.patterns;
    if (shape.empty) {
      EXPECT_EQ(tuples, 0u) << shape.patterns;
      EXPECT_GT(nonempty, 0u) << "global aggregates emit a row over no tuples";
    } else {
      EXPECT_GT(tuples, 0u) << shape.patterns;
      EXPECT_GT(nonempty, static_cast<size_t>(queries) / 2) << shape.patterns;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionTest, ::testing::Values(1, 2, 3, 4, 5));

// Collisions: values that are equal, or render alike, without being the same
// packed scalar, under `distinct`, group keys and count(distinct). The rows
// are hand-built events of one pattern (`proc p1 read file f1`), so a column
// can mix types: f1.name reads int 0 (Value()) where the event's object is a
// network and a string for a file, so `f1` mixes 0 with "0" and
// `f1.name + 1` mixes int 1 with double 1.0. `evt1.amount * (p1.pid -
// 1000.5)` is -0.0 or 0.0 for amount 0, and `evt1.amount * 1e308 * 10 -
// evt1.amount * 1e308 * 10` (1e308 spelled out: the lexer reads no
// exponents) is NaN for a non-zero amount. 32 bash processes and the files
// named "/tmp/same" share one rendered default attribute.
TEST(ProjectionCollisionTest, MatchesReference) {
  EntityCatalog catalog;
  std::vector<uint32_t> procs;
  for (int i = 0; i < 32; ++i) {
    procs.push_back(catalog.InternProcess(1, 1000 + i, "/bin/bash"));
  }
  procs.push_back(catalog.InternProcess(1, 999, "/bin/sh"));
  struct Object {
    EntityType type;
    uint32_t idx;
  };
  std::vector<Object> objects;
  for (const char* name : {"0", "1", "/tmp/a"}) {
    objects.push_back({EntityType::kFile, catalog.InternFile(1, name)});
  }
  for (int i = 0; i < 2; ++i) {
    objects.push_back({EntityType::kFile, catalog.InternFile(2, "/tmp/same")});
  }
  objects.push_back({EntityType::kNetwork, catalog.InternNetwork(1, "10.0.0.1", "10.0.0.2", 1, 2)});

  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  Rng rng(11);
  std::vector<Event> events(600);
  for (size_t i = 0; i < events.size(); ++i) {
    Event& e = events[i];
    e.id = static_cast<int64_t>(i + 1);
    e.agent_id = 1;
    e.subject_idx = procs[rng.Below(procs.size())];
    const Object& o = objects[rng.Below(objects.size())];
    e.object_type = o.type;
    e.object_idx = o.idx;
    e.start_time = t0 + static_cast<TimestampMs>(i);
    e.amount = rng.Below(2) == 0 ? 0 : rng.Range(1, 3);
  }
  const EventColumns table = EventTable(events);
  const TupleSet tuples = TupleSet::FromMatches(0, ViewsOf(table));

  const std::string big = "1" + std::string(308, '0');
  const std::string inf = big + " * 10";
  const std::string nan = "evt1.amount * " + inf + " - evt1.amount * " + inf;
  const std::string zero = "evt1.amount * (p1.pid - 1000.5)";
  const std::vector<std::string> clauses{
      "return distinct p1, f1",
      "return distinct p1.pid, f1",
      "return distinct f1",
      "return distinct f1.name + 1 as y",
      "return distinct " + zero + " as z",
      "return distinct f1, f1.name + 1 as y, " + zero + " as z",
      "return distinct p1, " + inf + " - " + inf + " as n",
      "return distinct p1, " + nan + " as n",
      "return distinct f1.name + 1 as y, " + nan + " as n",
      "return count distinct f1.name + 1 as y",
      "return distinct f1, p1 sort by f1 desc top 3",
      "return f1, count() as n group by f1",
      "return p1, count(distinct f1) as n group by p1",
      "return count() as n, count(distinct p1.pid) as d group by f1.name + 1",
      "return count() as n group by " + zero,
      "return count() as n group by " + nan,
      "return count() as n, sum(evt1.amount) as s group by f1.name + 1, " + zero,
      "return distinct count() as n group by p1.pid",
      "return count(distinct f1.name + 1) as a, count(distinct f1) as b, count(distinct " +
          zero + ") as c, count(distinct " + nan + ") as d",
      "return p1.pid, count(distinct f1.name + 1) as a group by p1.pid",
  };
  for (const std::string& clause : clauses) {
    SCOPED_TRACE(clause);
    const std::string text =
        "(from \"2017-01-01 00:00\" to \"2017-01-01 02:00\")\n"
        "proc p1 read file f1 as evt1\n" +
        clause;
    Result<QueryContext> ctx = CompileQuery(text);
    ASSERT_TRUE(ctx.ok()) << ctx.error();
    Result<ResultTable> want = reference::ProjectResults(ctx.value(), tuples, catalog);
    Result<ResultTable> got = ProjectResults(ctx.value(), tuples, catalog);
    ASSERT_TRUE(want.ok()) << want.error();
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(reference::TableDiff(want.value(), got.value()), "");
  }
}

// A session cancelled before projection stops it on the first row or group.
TEST_P(ProjectionTest, PreCancelledSessionStops) {
  const Shape shape = Shapes()[0];
  for (const char* clause : {"return p1, evt1.amount as x", "return p1, count() as n group by p1",
                             "return count() as n"}) {
    Result<QueryContext> ctx = CompileQuery(shape.patterns + clause);
    ASSERT_TRUE(ctx.ok()) << ctx.error();
    ExecutionSession run;
    Result<TupleSet> set = ExecuteMultievent(db_, ctx.value(), ExecOptions{}, nullptr, &run);
    ASSERT_TRUE(set.ok()) << set.error();
    ASSERT_GT(set.value().num_rows(), 0u);
    ExecutionSession session;
    session.RequestCancel();
    Result<ResultTable> r = ProjectResults(ctx.value(), set.value(), db_.catalog(), &session);
    ASSERT_FALSE(r.ok()) << clause;
    EXPECT_EQ(r.error(), "execution cancelled") << clause;
    // Uncancelled, the same projection succeeds.
    EXPECT_TRUE(ProjectResults(ctx.value(), set.value(), db_.catalog(), &run).ok()) << clause;
  }
}

}  // namespace
}  // namespace aiql
