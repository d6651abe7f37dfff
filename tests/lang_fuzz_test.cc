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
//
// The same mutants, the corpus and hand-written operator-precedence cases
// also pin the parser's output: each one's AST (or exact error) must match
// tests/golden/parse.txt.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"
#include "tests/ast_printer.h"
#include "tests/golden_file.h"

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

// Hand-written operator-precedence cases for the three infix grammars
// (attribute constraints, operation sets, return/having/sort expressions).
const std::vector<std::pair<std::string, std::string>>& EdgeCases() {
  static const std::vector<std::pair<std::string, std::string>> cases = {
      {"edge-cmp-chain", "proc p read ip i return p, count(i) as n group by p having n > 1 > 2"},
      {"edge-cmp-chain-after-and",
       "proc p read ip i return p, count(i) as n group by p having n > 0 && n > 1 > 2"},
      {"edge-cmp-chain-after-operand",
       "proc p read ip i return p, count(i) as n group by p having n && n > 1 > 2"},
      {"edge-cmp-chain-arith", "proc p read ip i as e return p, e.amount + 1 > 2 + 3 > 4"},
      {"edge-cmp-and-or",
       "proc p read ip i return p, count(i) as n group by p having n > 1 && n < 5 || n = 9"},
      {"edge-expr-not-not", "proc p read ip i as e return p, !!e.amount"},
      {"edge-expr-neg-neg", "proc p read ip i as e return p, - -e.amount"},
      {"edge-expr-not-cmp", "proc p read ip i as e return p, !e.amount > 1"},
      {"edge-expr-or-and", "proc p read ip i as e return p, e.amount || e.id && e.amount"},
      {"edge-expr-arith", "proc p read ip i as e return p, 1 + 2 * 3 - 4 / 2 - e.amount"},
      {"edge-expr-parens", "proc p read ip i as e return p, (1 + 2) * -(3 - 4)"},
      {"edge-sort-or-and", "proc p read ip i as e return p, e.amount sort by p || i && e desc"},
      {"edge-attr-not-not", "proc p[!!\"%cmd.exe\"] read ip i return p"},
      {"edge-attr-or-and",
       "proc p[pid = 1 || pid = 2 && exe_name = \"a\"] read ip i return p"},
      {"edge-attr-and-or",
       "proc p[pid = 1 && pid = 2 || exe_name = \"a\"] read ip i return p"},
      {"edge-attr-comma-or", "proc p[pid = 1, pid = 2 || pid = 3, !pid = 4] read ip i return p"},
      {"edge-attr-comma-in-parens", "proc p[(pid = 1, exe_name = \"a\")] read ip i return p"},
      {"edge-attr-parens-or", "proc p[(pid = 1 || pid = 2) && exe_name = \"a\"] read ip i return p"},
      {"edge-evt-attr-or-and",
       "proc p read ip i as e[amount > 1 || amount < 0 && id = 3] return p"},
      {"edge-op-not-not", "proc p !!read ip i return p"},
      {"edge-op-not-group", "proc p !(read || write) file f return p"},
      {"edge-op-or-and", "proc p read || write && execute file f return p"},
      {"edge-op-and-or", "proc p read && write || execute file f return p"},
      {"edge-op-dependency-edge",
       "forward: proc p ->[read || write && !execute] file f <-[write] proc q return q"},
      {"edge-op-comma", "proc p read, write file f return p"},
  };
  return cases;
}

// Escapes newlines so a rendered error stays on one golden line.
std::string OneLine(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// FNV-1a of the canonical AST rendering.
std::string Digest(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

class LangFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.trace.num_hosts = 6;
    config.trace.events_per_host_per_day = 300;
    db_ = new Database();
    Workload workload(config, db_);
    workload.Build();
    db_->Finalize();
    corpus_ = new std::vector<QuerySpec>(workload.CaseStudyQueries());
    for (const QuerySpec& q : workload.BehaviorQueries()) {
      corpus_->push_back(q);
    }
    corpus_->push_back(workload.CaseStudyAnomalyQuery());
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete db_;
  }

  // The fixed-seed mutants of the corpus, in draw order.
  static std::vector<std::string> Mutants() {
    Rng rng(20180711);
    std::vector<std::string> out;
    for (size_t m = 0; m < kMutants; ++m) {
      out.push_back(Mutate((*corpus_)[rng.Below(corpus_->size())].text, &rng));
    }
    return out;
  }

  static Database* db_;
  static std::vector<QuerySpec>* corpus_;
};

Database* LangFuzzTest::db_ = nullptr;
std::vector<QuerySpec>* LangFuzzTest::corpus_ = nullptr;

TEST_F(LangFuzzTest, CorpusMutantsNeverCrashAndParseErrorsCarryPositions) {
  const AiqlEngine engine(
      db_, EngineOptions{.parallelism = 1, .time_budget_ms = 200, .max_join_work = 100000});
  const std::regex position("^line [0-9]+, col [0-9]+: ");
  size_t parse_errors = 0, prepared = 0, executed = 0;
  for (const std::string& text : Mutants()) {
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
      // Prepare resolved every sort key to a returned column.
      EXPECT_EQ(r.error().find("is not a returned column"), std::string::npos) << r.error();
    }
  }
  // The mutation mix must exercise both the error paths and execution.
  EXPECT_GT(parse_errors, kMutants / 10);
  EXPECT_GT(executed, kMutants / 10);
  EXPECT_GE(prepared, executed);
}

// Every corpus query, precedence edge case and mutant parses to the AST, or
// fails with the exact message, pinned in tests/golden/parse.txt: one line
// "<input> ast <digest of tests/ast_printer.h's rendering>" or
// "<input> error <message>". Regenerate (and review the diff) with
//   AIQL_UPDATE_GOLDEN=1 ./build/lang_fuzz_test --gtest_filter='*Golden*'
TEST_F(LangFuzzTest, ParsesMatchGoldenFile) {
  std::vector<std::pair<std::string, std::string>> inputs;  // (name, text)
  for (const QuerySpec& q : *corpus_) {
    inputs.emplace_back(q.id, q.text);
  }
  for (const auto& edge : EdgeCases()) {
    inputs.push_back(edge);
  }
  const std::vector<std::string> mutants = Mutants();
  for (size_t m = 0; m < mutants.size(); ++m) {
    inputs.emplace_back("mutant-" + std::to_string(m), mutants[m]);
  }
  std::vector<std::string> got;
  for (const auto& [name, text] : inputs) {
    Result<ast::Query> parsed = ParseQuery(text);
    got.push_back(name + (parsed.ok() ? " ast " + Digest(astprint::RenderAst(parsed.value()))
                                      : " error " + OneLine(parsed.error())));
  }
  const std::string path = AIQL_SOURCE_DIR "/tests/golden/parse.txt";
  const std::optional<std::string> diff = golden::CompareOrUpdate(
      path,
      {"<input> ast <FNV-1a of the tests/ast_printer.h rendering> | <input> error <message>",
       "Written by tests/lang_fuzz_test.cc; regenerate with",
       "  AIQL_UPDATE_GOLDEN=1 ./build/lang_fuzz_test --gtest_filter='*Golden*'"},
      got, [&](size_t i) {
        return i < inputs.size() ? "  input:  " + OneLine(inputs[i].second) + "\n" : "";
      });
  if (!diff.has_value()) {
    GTEST_SKIP() << "rewrote " << path;
  }
  EXPECT_TRUE(diff->empty()) << "parses changed:\n" << *diff;
}

}  // namespace
}  // namespace aiql
