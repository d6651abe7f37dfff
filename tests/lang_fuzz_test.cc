// Front-end fuzz test: mutants of the query corpus (src/workload/queries.cc)
// must never crash the engine, and every parse failure must point at its
// source position.
//
// A fixed seed draws 2,000 mutants. Each deletes, duplicates or swaps one
// character or one token of a corpus query (a token here is a run of
// identifier characters or one other non-space character). Every mutant goes
// through ParseQuery, whose failures must start "line N, col C: ", and through
// AiqlEngine::Prepare; a mutant that prepares is executed under a small time
// and join budget on a small database. The test runs in the sanitizer jobs,
// so an out-of-bounds read or undefined behaviour on any mutant fails it.
#include <gtest/gtest.h>

#include <cctype>
#include <regex>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace aiql {
namespace {

constexpr size_t kMutants = 2000;

struct Span {
  size_t begin = 0;
  size_t size = 0;
};

bool IsWordChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

std::vector<Span> Tokens(const std::string& text) {
  std::vector<Span> out;
  for (size_t i = 0; i < text.size();) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    if (IsWordChar(text[i])) {
      while (end < text.size() && IsWordChar(text[end])) {
        ++end;
      }
    }
    out.push_back(Span{i, end - i});
    i = end;
  }
  return out;
}

// Deletes, duplicates or swaps (with the next one) one unit of `text`; the
// units are single characters or tokens.
std::string Mutate(const std::string& text, Rng* rng) {
  std::vector<Span> units;
  const bool tokens = rng->Chance(0.5);
  if (tokens) {
    units = Tokens(text);
  } else {
    for (size_t i = 0; i < text.size(); ++i) {
      units.push_back(Span{i, 1});
    }
  }
  if (units.size() < 2) {
    return text;
  }
  const size_t k = rng->Below(units.size() - 1);
  const Span a = units[k];
  const Span b = units[k + 1];
  const std::string unit = text.substr(a.begin, a.size);
  switch (rng->Below(3)) {
    case 0:
      return text.substr(0, a.begin) + text.substr(a.begin + a.size);
    case 1:
      return text.substr(0, a.begin) + unit + (tokens ? " " : "") + text.substr(a.begin);
    default:
      return text.substr(0, a.begin) + text.substr(b.begin, b.size) +
             text.substr(a.begin + a.size, b.begin - a.begin - a.size) + unit +
             text.substr(b.begin + b.size);
  }
}

TEST(LangFuzzTest, CorpusMutantsNeverCrashAndParseErrorsCarryPositions) {
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 300;
  Database db;
  Workload workload(config, &db);
  workload.Build();
  db.Finalize();
  std::vector<std::string> corpus;
  for (const QuerySpec& q : workload.CaseStudyQueries()) {
    corpus.push_back(q.text);
  }
  for (const QuerySpec& q : workload.BehaviorQueries()) {
    corpus.push_back(q.text);
  }
  corpus.push_back(workload.CaseStudyAnomalyQuery().text);

  const AiqlEngine engine(
      &db, EngineOptions{.parallelism = 1, .time_budget_ms = 200, .max_join_work = 100000});
  const std::regex position("^line [0-9]+, col [0-9]+: ");
  Rng rng(20180711);
  size_t parse_errors = 0, prepared = 0, executed = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    const std::string text = Mutate(corpus[rng.Below(corpus.size())], &rng);
    SCOPED_TRACE(text);
    Result<ast::Query> parsed = ParseQuery(text);
    if (!parsed.ok()) {
      ++parse_errors;
      EXPECT_TRUE(std::regex_search(parsed.error(), position)) << parsed.error();
    }
    Result<PreparedQuery> prep = engine.Prepare(text);
    if (!prep.ok()) {
      EXPECT_FALSE(prep.error().empty());
      continue;
    }
    ++prepared;
    Result<ResultTable> r = engine.Execute(text);
    executed += r.ok();
    if (!r.ok()) {
      EXPECT_FALSE(r.error().empty());
    }
  }
  // The mutation mix must exercise both the error paths and execution.
  EXPECT_GT(parse_errors, kMutants / 10);
  EXPECT_GT(executed, kMutants / 10);
  EXPECT_GE(prepared, executed);
}

}  // namespace
}  // namespace aiql
