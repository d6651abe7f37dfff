// Anomaly (sliding-window) execution against a reference evaluator.
//
// ReferenceAnomaly below is the straightforward per-window evaluator: every
// window re-derives each event's group key, buckets rows per group, computes
// aggregates with the reference ComputeAggregate, evaluates items and having
// through the reference interpreter (tests/reference_projection.h) with
// name-keyed alias maps, re-folds each group's whole history series for every
// moving-average call, and finishes with the reference result tail
// (distinct, return count, sort by, top). ExecuteAnomaly runs the same
// semantics on the compiled projector with dense per-group state, visiting
// only the windows and groups with events when the query allows it; the
// differential tests require the two to agree row for row, with doubles
// bit-equal, and check which of the two loops ran (the executor's
// window_group_evals against the reference's counts).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <unordered_map>

#include "src/core/anomaly.h"
#include "src/core/compiled_projector.h"
#include "src/core/exec_session.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"
#include "tests/reference_projection.h"

namespace aiql {
namespace {

using reference::AliasEnv;
using reference::ComputeAggregate;
using reference::EvalScalarExpr;
using reference::RowAccessor;
using reference::ValueTruthy;

// --- reference evaluator ------------------------------------------------------

struct RefGroupState {
  std::vector<Value> key;
  std::unordered_map<std::string, std::vector<double>> series;
};

std::string RefKeyString(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += v.ToString();
    out.push_back('\x1f');
  }
  return out;
}

// Per run: (window, group) pairs with events, and (window, known group)
// pairs, the evaluations of the sparse and the dense loop.
struct RefWindowCounts {
  size_t present = 0;
  size_t known = 0;
};

Result<ResultTable> ReferenceAnomaly(const EventStore& db, const QueryContext& ctx,
                                     RefWindowCounts* counts = nullptr) {
  const DurationMs window = *ctx.window;
  const DurationMs step = ctx.step.value_or(window);
  ExecutionSession session;
  std::vector<EventView> events =
      FetchDataQuery(db, ctx.patterns[0].query, ExecOptions{}, nullptr, &session);
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.IsIntraPattern()) {
      size_t w = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        if (CheckAttrRel(rel, events[i], events[i], db.catalog())) {
          events[w++] = events[i];
        }
      }
      events.resize(w);
    }
  }

  TimeRange range = ctx.global_time;
  std::vector<size_t> pattern_order{0};
  std::vector<const Expr*> agg_calls = reference::CollectAggregateCalls(ctx);
  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);
  std::map<std::string, RefGroupState> groups;
  auto lower = [&](TimestampMs t) {
    return std::lower_bound(events.begin(), events.end(), t,
                            [](const EventView& e, TimestampMs x) { return e.start_time() < x; });
  };

  for (TimestampMs ws = range.begin; ws < range.end; ws += step) {
    TimestampMs we = std::min<TimestampMs>(ws + window, range.end);
    auto first = lower(ws);
    auto last = lower(we);

    std::map<std::string, std::vector<std::vector<EventView>>> window_rows;
    for (auto it = first; it != last; ++it) {
      std::vector<EventView> row{*it};
      RowAccessor acc(row, pattern_order, db.catalog());
      std::vector<Value> key;
      for (const OutputItem& g : ctx.group_by) {
        key.push_back(EvalScalarExpr(g.expr, &acc, nullptr).value_or(Value()));
      }
      std::string ks = RefKeyString(key);
      auto& state = groups[ks];
      if (state.key.empty() && !key.empty()) {
        state.key = key;
      }
      window_rows[ks].push_back(std::move(row));
    }
    if (counts != nullptr) {
      counts->present += window_rows.size();
      counts->known += groups.size();
    }

    for (auto& [ks, state] : groups) {
      auto rows_it = window_rows.find(ks);
      static const std::vector<std::vector<EventView>> kNoRows;
      const auto& rows = rows_it != window_rows.end() ? rows_it->second : kNoRows;

      std::unordered_map<std::string, Value> agg_values;
      for (const Expr* call : agg_calls) {
        agg_values[call->ToString()] = ComputeAggregate(*call, rows, pattern_order, db.catalog());
      }
      std::vector<EventView> empty_row;
      const std::vector<EventView>& rep = rows.empty() ? empty_row : rows.front();
      RowAccessor acc(rep, pattern_order, db.catalog());
      std::unordered_map<std::string, Value> computed;
      if (rows.empty()) {
        for (size_t g = 0; g < ctx.group_by.size() && g < state.key.size(); ++g) {
          computed[ctx.group_by[g].name] = state.key[g];
        }
      }

      AliasEnv env;
      env.lookup = [&](const std::string& name) -> std::optional<Value> {
        auto it = agg_values.find(name);
        if (it != agg_values.end()) {
          return it->second;
        }
        auto it2 = computed.find(name);
        if (it2 != computed.end()) {
          return it2->second;
        }
        return std::nullopt;
      };
      env.history = [&](const std::string& alias, int back) -> std::optional<Value> {
        auto it = state.series.find(alias);
        if (it == state.series.end()) {
          return Value(0.0);
        }
        const std::vector<double>& s = it->second;
        if (back == 0) {
          auto c = computed.find(alias);
          return c != computed.end() ? std::optional<Value>(c->second) : std::nullopt;
        }
        int idx = static_cast<int>(s.size()) - back;
        if (idx < 0) {
          return Value(0.0);
        }
        return Value(s[static_cast<size_t>(idx)]);
      };

      std::vector<Value> out_row{Value(FormatTimestamp(ws))};
      for (const OutputItem& item : ctx.items) {
        std::optional<Value> v = EvalScalarExpr(item.expr, rows.empty() ? nullptr : &acc, &env);
        out_row.push_back(v.value_or(Value()));
        computed[item.name] = out_row.back();
      }

      std::unordered_map<std::string, Value> ma_values;
      if (ctx.having.has_value()) {
        ctx.having->Any([&](const Expr& e) {
          if (e.IsMovingAverageCall() && !e.children.empty()) {
            const std::string& alias = e.children[0].name;
            std::vector<double> series;
            auto it = state.series.find(alias);
            if (it != state.series.end()) {
              series = it->second;
            }
            auto c = computed.find(alias);
            if (c != computed.end()) {
              series.push_back(c->second.as_double());
            }
            double param = e.children.size() > 1 ? e.children[1].number : 0;
            double result = 0;
            if (e.func == "sma") {
              result = Sma(series, param > 0 ? static_cast<size_t>(param) : 3);
            } else if (e.func == "cma") {
              result = Cma(series);
            } else if (e.func == "wma") {
              result = Wma(series, param > 0 ? static_cast<size_t>(param) : 3);
            } else if (e.func == "ewma") {
              result = Ewma(series, param > 0 ? param : 0.9);
            }
            ma_values[e.ToString()] = Value(result);
          }
          return false;
        });
      }

      bool emit = true;
      if (ctx.having.has_value()) {
        AliasEnv having_env = env;
        having_env.lookup = [&](const std::string& name) -> std::optional<Value> {
          auto it = ma_values.find(name);
          if (it != ma_values.end()) {
            return it->second;
          }
          return env.lookup(name);
        };
        std::optional<Value> ok =
            EvalScalarExpr(*ctx.having, rows.empty() ? nullptr : &acc, &having_env);
        emit = ok.has_value() && ValueTruthy(*ok);
      }
      if (rows.empty() && !ctx.having.has_value()) {
        emit = false;
      }
      if (emit) {
        table.AddRow(std::move(out_row));
      }
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        const Value& v = computed[ctx.items[i].name];
        if (!v.is_string()) {
          state.series[ctx.items[i].name].push_back(v.as_double());
        }
      }
    }
  }

  return reference::FinishResults(ctx, std::move(table));
}

// --- comparison ---------------------------------------------------------------

// Which window loop a query must take.
enum class Loop { kEither, kSparse, kDense };

// Runs both evaluators on `text`; returns false if the query does not compile.
// The executor's window_group_evals must be one of the reference's counts:
// the sparse loop evaluates the (window, group) pairs with events, the dense
// loop every known group in every window.
bool ExpectSameAnswer(const EventStore& db, const std::string& text, size_t* rows = nullptr,
                      Loop loop = Loop::kEither) {
  Result<QueryContext> ctx = CompileQuery(text);
  if (!ctx.ok()) {
    ADD_FAILURE() << ctx.error() << "\n" << text;
    return false;
  }
  RefWindowCounts counts;
  Result<ResultTable> want = ReferenceAnomaly(db, ctx.value(), &counts);
  ExecutionSession session;
  Result<ResultTable> got = ExecuteAnomaly(db, ctx.value(), ExecOptions{}, nullptr, &session);
  EXPECT_EQ(want.ok(), got.ok()) << text;
  if (!want.ok() || !got.ok()) {
    return true;
  }
  EXPECT_EQ(reference::TableDiff(want.value(), got.value()), "") << text;
  const size_t evals = session.stats.window_group_evals;
  if (loop == Loop::kSparse) {
    EXPECT_EQ(evals, counts.present) << text;
  } else if (loop == Loop::kDense) {
    EXPECT_EQ(evals, counts.known) << text;
  } else {
    EXPECT_TRUE(evals == counts.present || evals == counts.known) << evals << "\n" << text;
  }
  if (rows != nullptr) {
    *rows = got.value().num_rows();
  }
  return true;
}

// --- randomized differential test ----------------------------------------------

class RandomAnomalyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
    const char* exes[] = {"/bin/a", "/bin/b", "/usr/bin/c", "sh", "excel.exe"};
    const char* users[] = {"alice", "bob", "root"};
    const char* ips[] = {"1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"};
    struct Proc {
      AgentId agent;
      uint32_t idx;
      TimestampMs from;  // first minute the process is active
    };
    std::vector<Proc> procs;
    std::vector<std::vector<uint32_t>> files(3), nets(3);
    for (AgentId agent = 1; agent <= 2; ++agent) {
      for (int i = 0; i < 6; ++i) {
        uint32_t idx = db_.catalog().InternProcess(agent, 100 + i, exes[rng.Below(5)],
                                                   users[rng.Below(3)]);
        // Some processes only appear mid-range.
        TimestampMs from = i < 4 ? 0 : rng.Range(15, 45) * kMinuteMs;
        procs.push_back({agent, idx, from});
      }
      for (int i = 0; i < 12; ++i) {
        files[agent].push_back(db_.catalog().InternFile(agent, "/tmp/f" + std::to_string(i),
                                                        users[rng.Below(3)]));
      }
      for (int i = 0; i < 5; ++i) {
        nets[agent].push_back(db_.catalog().InternNetwork(
            agent, "10.0.0." + std::to_string(agent), ips[rng.Below(4)], 1000 + i,
            static_cast<int32_t>(rng.Range(80, 200))));
      }
    }
    for (int i = 0; i < 700; ++i) {
      const Proc& p = procs[rng.Below(procs.size())];
      // Slightly wider than the queried hour: edge events fall in no window.
      TimestampMs t = t0 - 2 * kMinuteMs + static_cast<TimestampMs>(rng.Below(64 * kMinuteMs));
      t = std::max(t, t0 + p.from);
      int64_t amount = rng.Below(10) == 0 ? rng.Range(100000, 900000) : rng.Range(0, 5000);
      if (rng.Below(2) == 0) {
        const auto& fs = files[p.agent];
        db_.RecordEvent(p.agent, p.idx, rng.Below(2) == 0 ? Operation::kRead : Operation::kWrite,
                        EntityType::kFile, fs[rng.Below(fs.size())], t, amount);
      } else {
        const auto& ns = nets[p.agent];
        db_.RecordEvent(p.agent, p.idx, Operation::kWrite, EntityType::kNetwork,
                        ns[rng.Below(ns.size())], t, amount);
      }
    }
    db_.Finalize();
  }

  Database db_;
};

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.Below(options.size())];
}

// One random having atom over aggregate alias `a`.
std::string HavingAtom(Rng& rng, const std::string& a) {
  const std::string c = std::to_string(rng.Range(0, 3000));
  switch (rng.Below(14)) {
    case 0:
      return a + " > " + c;
    case 1:
      return a + " >= " + a + "[1]";
    case 2:
      return a + " > 2 * (" + a + " + " + a + "[1] + " + a + "[2]) / 3";
    case 3:
      return a + " > SMA(" + a + ")";
    case 4:
      return a + " >= SMA(" + a + ", " + std::to_string(rng.Range(1, 5)) + ")";
    case 5:
      return a + " < CMA(" + a + ")";
    case 6:
      return "(" + a + " - EWMA(" + a + ", 0.8)) / (EWMA(" + a + ", 0.8) + 1) > 0.3";
    case 7:
      return a + " >= EWMA(" + a + ")";
    case 8:
      return "WMA(" + a + ", " + std::to_string(rng.Range(1, 6)) + ") < " + a;
    case 9:
      return "WMA(" + a + ") != " + a + "[3]";
    case 10:
      return "!(" + a + " = " + a + "[1])";
    case 11:
      return "-" + a + " < -" + c;
    case 12:
      return a + "[0] = " + a + " || " + a + " * 1.5 > " + a + "[2] - 7";
    default:
      return a + " / 3 - " + a + "[1] <= " + c + ".5";
  }
}

TEST_P(RandomAnomalyTest, ExecutorMatchesReference) {
  Rng rng(GetParam() * 7919 + 1);
  Rng tail_rng(GetParam() * 104729 + 3);  // tail variants: distinct, count, sort by
  // (window, step) in seconds: step < window, step == window, step not
  // dividing the window, step > window.
  const std::vector<std::pair<int, int>> windows{{60, 10}, {60, 60}, {50, 15},
                                                 {20, 45}, {300, 60}, {90, 40}};
  const std::vector<std::string> aggs{
      "sum(evt.amount)", "avg(evt.amount)",   "min(evt.amount)",      "max(evt.amount)",
      "count(o)",        "count(distinct o)", "count(distinct p.user)", "count()",
      "sum(evt.amount) / 1000", "max(evt.amount) - min(evt.amount)", "count(evt) * 2"};
  // `nonempty` counts answers of the queries without the tail variants only.
  size_t compiled = 0, total = 0, nonempty = 0, tail_compiled = 0, tail_total = 0;
  for (int q = 0; q < 50; ++q) {
    auto [w, s] = windows[rng.Below(windows.size())];
    bool file = rng.Below(2) == 0;
    std::string text = "(from \"2017-01-01 00:00\" to \"2017-01-01 01:00\")\n";
    if (rng.Below(3) == 0) {
      text += "agentid = " + std::to_string(rng.Range(1, 2)) + "\n";
    }
    text += "window = " + std::to_string(w) + " sec, step = " + std::to_string(s) + " sec\n";
    text += file ? Pick(rng, {"proc p read file o as evt\n", "proc p write file o as evt\n"})
                 : "proc p write ip o as evt\n";
    if (rng.Below(5) == 0) {
      text += file ? "with p.user = o.owner\n" : "with p.pid < o.dstport\n";
    }
    std::vector<std::string> keys;
    switch (rng.Below(5)) {
      case 0:
        break;  // empty group by: one group
      case 1:
        keys = {"p"};
        break;
      case 2:
        keys = {"p", "o"};
        break;
      case 3:
        keys = {"p.user"};
        break;
      default:
        keys = {"o"};
    }
    std::vector<std::string> items = keys;
    std::vector<std::string> aliases;
    size_t num_aggs = 1 + rng.Below(3);
    for (size_t i = 0; i < num_aggs; ++i) {
      aliases.push_back("a" + std::to_string(i));
      items.push_back(aggs[rng.Below(aggs.size())] + " as " + aliases.back());
    }
    if (rng.Below(3) == 0) {
      // History and moving averages in the return clause; a moving average
      // there has no value (it is only defined in having) and returns 0.
      items.push_back(Pick(rng, {"a0[1]", "a0[0]", "EWMA(a0)", "SMA(a0, 2)"}) + " as prev");
      aliases.push_back("prev");
    }
    if (rng.Below(4) == 0) {
      items.push_back("p.pid");  // read from the group's first event in the window
    }
    std::string returns;
    for (size_t i = 0; i < items.size(); ++i) {
      returns += (i > 0 ? ", " : "") + items[i];
    }
    std::string rest;
    if (!keys.empty()) {
      rest += "group by ";
      for (size_t i = 0; i < keys.size(); ++i) {
        rest += (i > 0 ? ", " : "") + keys[i];
      }
      rest += "\n";
    }
    if (rng.Below(5) != 0) {
      size_t atoms = 1 + rng.Below(3);
      rest += "having ";
      for (size_t i = 0; i < atoms; ++i) {
        if (i > 0) {
          rest += rng.Below(2) == 0 ? " && " : " || ";
        }
        rest += HavingAtom(rng, aliases[rng.Below(aliases.size())]);
      }
      if (!keys.empty() && keys[0] == "p" && rng.Below(3) == 0) {
        rest += " && p != \"sh\"";
      }
      rest += "\n";
    }
    std::string top;
    if (rng.Below(5) == 0) {
      top = "top " + std::to_string(rng.Range(1, 30)) + "\n";
    }
    ++total;
    size_t rows = 0;
    if (ExpectSameAnswer(db_, text + "return " + returns + "\n" + rest + top, &rows)) {
      ++compiled;
      nonempty += rows > 0 ? 1 : 0;
    }
    // The same query again with a result-tail prefix and/or a sort by clause.
    std::string prefix, sort;
    switch (tail_rng.Below(3)) {
      case 0:
        prefix = "distinct ";
        break;
      case 1:
        prefix = "count ";
        break;
      default:
        break;
    }
    if (tail_rng.Below(2) == 0) {
      sort = "sort by " + aliases[tail_rng.Below(aliases.size())] +
             (tail_rng.Below(2) == 0 ? " desc" : "") + "\n";
    }
    if (!prefix.empty() || !sort.empty()) {
      ++tail_total;
      tail_compiled += ExpectSameAnswer(db_, text + "return " + prefix + returns + "\n" + rest +
                                                 sort + top)
                           ? 1
                           : 0;
    }
  }
  EXPECT_EQ(compiled, total);
  EXPECT_EQ(tail_compiled, tail_total);
  EXPECT_GT(tail_total, 0u);
  EXPECT_GT(nonempty, total / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAnomalyTest, ::testing::Values(1, 2, 3, 4, 5));

// Hand-written shapes the generator does not produce: no aggregates, repeated
// item names, string/number comparisons, group keys read in having, and
// moving averages over a non-aggregate item.
TEST_P(RandomAnomalyTest, EdgeCasesMatchReference) {
  const std::string head =
      "(from \"2017-01-01 00:00\" to \"2017-01-01 01:00\")\n"
      "window = 60 sec, step = 20 sec\nproc p write file o as evt\n";
  const std::vector<std::string> bodies{
      "return p, p.pid group by p",
      "return p, p.pid as id group by p having id > 100 || SMA(id, 2) > 0",
      "return p, p group by p having p = \"sh\" || p > 3",
      "return p, count() as n, count() as n group by p having n > n[1]",
      "return o, sum(evt.amount) as amt group by o having amt[0] >= amt && o != 5",
      "return p.user, max(evt.amount) as m group by p.user having -m < -4000 || m = \"4000\"",
      "return count(o) as n having n > CMA(n) top 0",
      "return p, avg(evt.amount) as a, EWMA(a) as e group by p having e = 0 && WMA(e, 2) = 0",
  };
  for (const std::string& body : bodies) {
    EXPECT_TRUE(ExpectSameAnswer(db_, head + body)) << body;
  }
}

// --- groups absent across gaps -------------------------------------------------

// Bursty data over two hours: each process writes in a few short bursts with
// silences between them far longer than any ring here (the deepest lookback
// is 6 windows), whole stretches hold no event at all, and one process first
// appears late. A group returning after a gap must be caught up on every
// window it missed: its history, SMA/WMA rings and EWMA/CMA folds, and the
// values its items take without rows (not always 0), must match the dense
// evaluation bit for bit.
class GapAnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
    const uint32_t dst = db_.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
    // Per process: the [from, to) minutes it writes in.
    const std::vector<std::vector<std::pair<int, int>>> bursts{
        {{0, 3}, {40, 42}, {100, 103}},
        {{5, 7}, {37, 38}, {80, 81}, {119, 120}},
        {{0, 30}, {60, 70}},
        {{50, 52}, {110, 111}},
    };
    for (size_t p = 0; p < bursts.size(); ++p) {
      const uint32_t proc = db_.catalog().InternProcess(1, 100 + static_cast<int>(p),
                                                        "/bin/p" + std::to_string(p));
      for (auto [from, to] : bursts[p]) {
        for (int m = from; m < to; ++m) {
          for (uint64_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
            const TimestampMs t =
                t0 + m * kMinuteMs + static_cast<TimestampMs>(rng.Below(kMinuteMs));
            const int64_t amount =
                rng.Below(4) == 0 ? rng.Range(20000, 90000) : rng.Range(1, 3000);
            db_.RecordEvent(1, proc, Operation::kWrite, EntityType::kNetwork, dst, t, amount);
          }
        }
      }
    }
    db_.Finalize();
  }

  // Runs every body under every window shape; returns how many answers had
  // rows.
  size_t ExpectSameAnswers(const std::vector<std::string>& bodies, Loop loop) {
    // (window, step): step < window, step == window, step not dividing the
    // window, step > window.
    const std::vector<std::string> windows{
        "window = 1 min, step = 20 sec", "window = 30 sec, step = 30 sec",
        "window = 2 min, step = 45 sec", "window = 20 sec, step = 50 sec"};
    size_t nonempty = 0;
    for (const std::string& w : windows) {
      for (const std::string& body : bodies) {
        const std::string text =
            "(from \"2017-01-01 00:00\" to \"2017-01-01 02:00\")\nagentid = 1\n" + w +
            "\nproc p write ip i as evt\n" + body;
        size_t rows = 0;
        EXPECT_TRUE(ExpectSameAnswer(db_, text, &rows, loop)) << text;
        nonempty += rows > 0 ? 1 : 0;
      }
    }
    return nonempty;
  }

  Database db_;
};

// A having conjunct that is false on the zero state: the sparse loop.
TEST_F(GapAnomalyTest, SparseLoopCatchesUpAcrossGaps) {
  const std::vector<std::string> bodies{
      // History states.
      "return p, sum(evt.amount) as amt group by p "
      "having amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 1000",
      "return p, sum(evt.amount) as amt, count() as n group by p "
      "having amt >= amt[1] && (n > 1 && amt > 500)",
      // Moving averages.
      "return p, sum(evt.amount) as amt group by p having amt > SMA(amt, 5) && amt > 0",
      "return p, sum(evt.amount) as amt group by p having WMA(amt, 6) < amt && amt > 10",
      "return p, sum(evt.amount) as amt group by p "
      "having (amt - EWMA(amt, 0.7)) / (EWMA(amt, 0.7) + 1) > 0.5 && amt > 100",
      "return p, count() as n group by p having n > CMA(n) && n >= 1",
      // Items whose value without rows is not 0.
      "return p, count() + 1 as n, sum(evt.amount) as amt group by p "
      "having amt > 100 && n > CMA(n)",
      "return p, count() + 1 as n, max(evt.amount) as m group by p "
      "having m > 0 && n >= SMA(n, 4) && n != n[3]",
      "return p, count() - 1 as n group by p having n >= 0 && n > EWMA(n)",
      // One global group.
      "return count() as n having n > 1 && n > n[1]",
  };
  EXPECT_GT(ExpectSameAnswers(bodies, Loop::kSparse), bodies.size() * 2);
}

// No conjunct rules out an emission without rows, or an item without rows
// reads history: the dense loop.
TEST_F(GapAnomalyTest, DenseLoopWhenTheQueryAllowsNoSkip) {
  const std::vector<std::string> bodies{
      // The conjunct passes on the zero state; groups without rows emit.
      "return p, count() as n group by p having n = 0",
      "return p, sum(evt.amount) as amt group by p having amt < 1 || amt > 50000",
      "return p, sum(evt.amount) as amt group by p having amt >= 0 && amt <= amt[1]",
      "return p, 0 - count() as n group by p having n <= 0 && n < SMA(n, 3)",
      // An item reads history, so its value without rows changes from window
      // to window.
      "return p, sum(evt.amount) as amt, amt[1] as prev group by p having amt > 1000",
      "return p, sum(evt.amount) as amt, amt[1] + 1 as prev group by p "
      "having amt > 1000 && prev < SMA(prev, 3)",
      // The only conjuncts read history, a moving average or the key.
      "return p, sum(evt.amount) as amt group by p having amt > 1000 || amt < amt[1]",
      "return p, count() as n group by p having p != \"/bin/p1\" && n > CMA(n)",
      // No having clause.
      "return p, avg(evt.amount) as a group by p",
  };
  EXPECT_GT(ExpectSameAnswers(bodies, Loop::kDense), bodies.size());
}

// A history offset far past the window count, in a conjunct that the sparse
// rule skips: the rings stay bounded by the window count and the answer
// matches.
TEST_F(GapAnomalyTest, HistoryOffsetPastTheLastWindowKeepsRingsBounded) {
  const std::string text =
      "(from \"2017-01-01 00:00\" to \"2017-01-01 00:03\")\nagentid = 1\n"
      "window = 1 min, step = 30 sec\nproc p write ip i as evt\n"
      "return p, sum(evt.amount) as amt group by p having amt > amt[1000000] && amt > 0";
  EXPECT_TRUE(ExpectSameAnswer(db_, text, nullptr, Loop::kSparse));
  Result<QueryContext> ctx = CompileQuery(text);
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  constexpr size_t kWindows = 6;  // 3 minutes in 30-second steps
  const TupleSet rows;
  CompiledProjector projector(ctx.value(), db_.catalog(), rows,
                              CompiledProjector::Mode::kWindows, kWindows);
  EXPECT_TRUE(projector.sparse());
  EXPECT_LE(projector.max_ring_capacity(), kWindows);
}

// 30 days at window = 5 sec, step = 1 sec is 2.6M windows. With a few dozen
// events the sparse loop evaluates each group in at most the 5 windows around
// each of its events. The same query with a having clause that passes on the
// zero state runs the dense loop over every window, which must still stop at
// the time budget.
TEST(AnomalyDeadlineTest, SparseSkipsEmptyWindowsAndDenseStopsAtTheBudget) {
  Database db;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  const uint32_t dst = db.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
  std::vector<uint32_t> procs;
  for (int p = 0; p < 3; ++p) {
    procs.push_back(db.catalog().InternProcess(1, 100 + p, "/bin/p" + std::to_string(p)));
  }
  Rng rng(8);
  constexpr size_t kEvents = 40;
  for (size_t i = 0; i < kEvents; ++i) {
    db.RecordEvent(1, procs[rng.Below(procs.size())], Operation::kWrite, EntityType::kNetwork,
                   dst, t0 + static_cast<TimestampMs>(rng.Below(30 * kDayMs)),
                   rng.Range(200, 5000));
  }
  db.Finalize();
  const std::string head =
      "(from \"2017-01-01 00:00\" to \"2017-01-31 00:00\")\nagentid = 1\n"
      "window = 5 sec, step = 1 sec\nproc p write ip i as evt\n"
      "return p, sum(evt.amount) as amt group by p\nhaving ";

  Result<QueryContext> sparse = CompileQuery(head + "amt > 100 && amt > 2 * amt[1]");
  ASSERT_TRUE(sparse.ok()) << sparse.error();
  ExecutionSession session;
  const auto start = std::chrono::steady_clock::now();
  Result<ResultTable> r = ExecuteAnomaly(db, sparse.value(), ExecOptions{}, nullptr, &session);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_GT(r.value().num_rows(), 0u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_GT(session.stats.window_group_evals, 0u);
  EXPECT_LE(session.stats.window_group_evals, 5 * kEvents);

  Result<QueryContext> dense = CompileQuery(head + "amt >= 0 && amt > 2 * amt[1]");
  ASSERT_TRUE(dense.ok()) << dense.error();
  ExecutionSession dense_session;
  Result<ResultTable> d = ExecuteAnomaly(db, dense.value(), ExecOptions{.time_budget_ms = 20},
                                         nullptr, &dense_session);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error(), "execution budget exceeded: time limit reached");
}

// --- the result tail ------------------------------------------------------------

// Anomaly results finish with the same tail as multievent results: `sort by`
// and `top` order and cut the rows, `return count` yields a one-row count
// table, and `return distinct` drops duplicate (window, values) rows.
class AnomalyTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
    uint32_t a = db_.catalog().InternProcess(1, 10, "/bin/a");
    uint32_t b = db_.catalog().InternProcess(1, 11, "/bin/b");
    uint32_t dst = db_.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
    const int64_t amounts[12] = {100, 5000, 200, 50, 7000, 300, 10, 20, 30, 40, 60, 70};
    for (int m = 0; m < 12; ++m) {
      const TimestampMs t = t0 + m * kMinuteMs + kSecondMs;
      db_.RecordEvent(1, a, Operation::kWrite, EntityType::kNetwork, dst, t, amounts[m]);
      db_.RecordEvent(1, b, Operation::kWrite, EntityType::kNetwork, dst, t, 1000);
    }
    db_.Finalize();
  }

  ResultTable Run(const std::string& tail) {
    const std::string text =
        "(from \"2017-01-01 00:00\" to \"2017-01-01 00:12\")\nagentid = 1\n"
        "window = 1 min, step = 1 min\nproc p write ip i as evt\n" + tail;
    EXPECT_TRUE(ExpectSameAnswer(db_, text)) << text;
    Result<QueryContext> ctx = CompileQuery(text);
    EXPECT_TRUE(ctx.ok()) << ctx.error();
    ExecutionSession session;
    Result<ResultTable> r = ExecuteAnomaly(db_, ctx.value(), ExecOptions{}, nullptr, &session);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.ok() ? r.take() : ResultTable();
  }

  Database db_;
};

TEST_F(AnomalyTailTest, SortByAndTop) {
  ResultTable t = Run("return p, sum(evt.amount) as amt group by p sort by amt desc top 3");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.rows()[0][2].as_double(), 7000);
  EXPECT_EQ(t.rows()[1][2].as_double(), 5000);
  EXPECT_EQ(t.rows()[2][2].as_double(), 1000);
}

TEST_F(AnomalyTailTest, ReturnCount) {
  ResultTable t = Run("return count p, sum(evt.amount) as amt group by p");
  EXPECT_EQ(t.columns(), std::vector<std::string>{"count"});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].as_int(), 24);  // 12 windows x 2 processes
}

TEST_F(AnomalyTailTest, ReturnDistinct) {
  // Both processes write once per window: each window's two (window, 1)
  // rows collapse into one, and windows stay in chronological order.
  ResultTable t = Run("return distinct count(evt) as n group by p");
  ASSERT_EQ(t.num_rows(), 12u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.rows()[r][1].as_int(), 1);
    if (r > 0) {
      EXPECT_LT(t.rows()[r - 1][0].as_string(), t.rows()[r][0].as_string());
    }
  }
}

// --- the corpus anomaly queries -----------------------------------------------

TEST(AnomalyCorpusTest, CorpusQueriesMatchReference) {
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 700;
  config.trace.num_days = 2;
  Database db;
  Workload workload(config, &db);
  workload.Build();
  db.Finalize();

  std::vector<QuerySpec> queries{workload.CaseStudyAnomalyQuery()};
  for (const QuerySpec& q : workload.BehaviorQueries()) {
    if (q.id == "s5" || q.id == "s6") {
      queries.push_back(q);
    }
  }
  ASSERT_EQ(queries.size(), 3u);
  for (const QuerySpec& q : queries) {
    size_t rows = 0;
    EXPECT_TRUE(ExpectSameAnswer(db, q.text, &rows)) << q.id;
    if (q.id == "c5-0") {
      EXPECT_GT(rows, 0u) << "the exfiltration burst is not detected";
    }
  }
}

// --- moving-average folds -------------------------------------------------------

std::vector<double> RandomSeries(Rng& rng, size_t n) {
  std::vector<double> s;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<double>(rng.Range(-5000, 5000)) / 7.0);
  }
  return s;
}

TEST(MovingAverageFoldTest, EwmaFoldEqualsFullSeries) {
  Rng rng(11);
  for (double alpha : {0.9, 0.5, 0.13}) {
    std::vector<double> s = RandomSeries(rng, 200);
    EwmaFold fold(alpha);
    EXPECT_EQ(fold.Get(), Ewma({}, alpha));
    for (size_t i = 0; i < s.size(); ++i) {
      std::vector<double> with_cur(s.begin(), s.begin() + i + 1);
      EXPECT_EQ(fold.With(s[i]), Ewma(with_cur, alpha)) << i;
      fold.Append(s[i]);
      EXPECT_EQ(fold.Get(), Ewma(with_cur, alpha)) << i;
    }
  }
  EwmaFold by_default;  // the executor's default alpha
  by_default.Append(3);
  EXPECT_EQ(by_default.With(10), Ewma({3, 10}, 0.9));
}

TEST(MovingAverageFoldTest, CmaFoldEqualsFullSeries) {
  Rng rng(12);
  std::vector<double> s = RandomSeries(rng, 300);
  CmaFold fold;
  EXPECT_EQ(fold.Get(), Cma({}));
  for (size_t i = 0; i < s.size(); ++i) {
    std::vector<double> with_cur(s.begin(), s.begin() + i + 1);
    EXPECT_EQ(fold.With(s[i]), Cma(with_cur)) << i;
    fold.Append(s[i]);
    EXPECT_EQ(fold.Get(), Cma(with_cur)) << i;
  }
}

TEST(MovingAverageFoldTest, RingSmaWmaEqualFullSeries) {
  Rng rng(13);
  std::vector<double> s = RandomSeries(rng, 120);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{500}}) {
    // With a current value the ring needs n - 1 slots; without, n. n larger
    // than the series clamps to the available history.
    SeriesRing with_cur(n > 0 ? n - 1 : 0), without(n);
    EXPECT_EQ(without.Sma(n, nullptr), Sma({}, n));
    EXPECT_EQ(without.Wma(n, nullptr), Wma({}, n));
    for (size_t i = 0; i < s.size(); ++i) {
      std::vector<double> prefix(s.begin(), s.begin() + i + 1);
      EXPECT_EQ(with_cur.Sma(n, &s[i]), Sma(prefix, n)) << n << " " << i;
      EXPECT_EQ(with_cur.Wma(n, &s[i]), Wma(prefix, n)) << n << " " << i;
      with_cur.Append(s[i]);
      without.Append(s[i]);
      EXPECT_EQ(without.Sma(n, nullptr), Sma(prefix, n)) << n << " " << i;
      EXPECT_EQ(without.Wma(n, nullptr), Wma(prefix, n)) << n << " " << i;
    }
  }
  // Default lookback (3) and history references.
  SeriesRing ring(3);
  for (double x : {1.0, 2.0, 4.0, 8.0}) {
    ring.Append(x);
  }
  EXPECT_EQ(ring.Sma(3, nullptr), Sma({1, 2, 4, 8}, 3));
  EXPECT_EQ(ring.Back(1), 8.0);
  EXPECT_EQ(ring.Back(3), 2.0);
  EXPECT_EQ(ring.size(), 4u);
}

// A sparse window run appends a returning group's values for the windows it
// missed in one call.
TEST(MovingAverageFoldTest, AppendRepeatedEqualsRepeatedAppend) {
  Rng rng(14);
  for (size_t capacity : {size_t{0}, size_t{3}, size_t{4}}) {
    // Below, equal to and above the capacity (3 rounds up to a ring of 4).
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{9}}) {
      SeriesRing repeated(capacity), appended(capacity);
      for (double x : RandomSeries(rng, 6)) {
        repeated.Append(x);
        appended.Append(x);
      }
      repeated.AppendRepeated(2.5, k);
      for (size_t i = 0; i < k; ++i) {
        appended.Append(2.5);
      }
      // One more value lands at the same position in both.
      repeated.Append(-1.0);
      appended.Append(-1.0);
      ASSERT_EQ(repeated.size(), appended.size()) << capacity << " " << k;
      for (size_t back = 1; back <= std::bit_ceil(capacity) && capacity > 0; ++back) {
        EXPECT_EQ(repeated.Back(back), appended.Back(back)) << capacity << " " << k;
      }
      const double cur = 7.0;
      EXPECT_EQ(repeated.Sma(capacity + 1, &cur), appended.Sma(capacity + 1, &cur));
      EXPECT_EQ(repeated.Wma(capacity, nullptr), appended.Wma(capacity, nullptr));
    }
  }
}

}  // namespace
}  // namespace aiql
