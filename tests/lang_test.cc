// Tests for the AIQL language front end: lexer, parser (Grammar 1 coverage),
// context-aware inference, dependency rewriting, and error reporting.
#include <gtest/gtest.h>

#include "src/lang/lexer.h"
#include "src/lang/params.h"
#include "src/lang/parser.h"
#include "src/lang/query_context.h"

namespace aiql {
namespace {

// --- lexer ---

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize(R"(proc p1["%osql%"] as evt1 with p1 = p2, evt1 before[1-2 min] evt2)");
  ASSERT_TRUE(r.ok());
  const auto& tokens = r.value();
  EXPECT_EQ(tokens.front().text, "proc");
  EXPECT_EQ(tokens.back().type, TokenType::kEof);
}

TEST(LexerTest, CommentsSkipped) {
  auto r = Tokenize("agentid = 1 // host id; spatial constraints\nreturn p");
  ASSERT_TRUE(r.ok());
  for (const auto& t : r.value()) {
    EXPECT_NE(t.text, "host");
  }
}

TEST(LexerTest, ArrowsAndComparisons) {
  auto r = Tokenize("-> <- <= >= != < > = && || !");
  ASSERT_TRUE(r.ok());
  std::vector<TokenType> expected{
      TokenType::kArrow, TokenType::kLArrow, TokenType::kLe,     TokenType::kGe,
      TokenType::kNe,    TokenType::kLt,     TokenType::kGt,     TokenType::kEq,
      TokenType::kAndAnd, TokenType::kOrOr,  TokenType::kBang,   TokenType::kEof};
  ASSERT_EQ(r.value().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.value()[i].type, expected[i]) << i;
  }
}

TEST(LexerTest, StringsWithEscapesAndPaths) {
  auto r = Tokenize(R"("C:\Windows\System32\cmd.exe" "say \"hi\"")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].text, "C:\\Windows\\System32\\cmd.exe");
  EXPECT_EQ(r.value()[1].text, "say \"hi\"");
}

TEST(LexerTest, UnterminatedStringFails) {
  auto r = Tokenize("proc p[\"oops]");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unterminated"), std::string::npos);
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto r = Tokenize("having x > 0.9 top 5");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value()[3].number, 0.9);  // having, x, >, 0.9
  EXPECT_DOUBLE_EQ(r.value()[5].number, 5);    // top, 5
}

// --- parser: paper queries ---

TEST(ParserTest, PaperQuery1Cve) {
  auto r = ParseQuery(R"(
      agentid = 1
      (at "01/01/2017")
      proc p1 start proc p2["%telnet%"] as evt1
      proc p3 start ip ipp[dstport = 4444] as evt2
      proc p4["%apache%"] read file f1["/var/www%"] as evt3
      with p2 = p3,
      evt1 before evt2, evt3 after evt2
      return p1, p2, p4, f1)");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& q = r.value();
  EXPECT_EQ(q.kind, ast::QueryKind::kMultievent);
  EXPECT_EQ(q.multievent.patterns.size(), 3u);
  EXPECT_EQ(q.multievent.attr_rels.size(), 1u);
  EXPECT_EQ(q.multievent.temp_rels.size(), 2u);
  EXPECT_EQ(q.multievent.ret.items.size(), 4u);
  EXPECT_TRUE(q.global.LiteralTimeWindow().has_value());
}

TEST(ParserTest, PaperQuery2CommandHistory) {
  auto r = ParseQuery(R"(
      agentid = 1
      (at "01/01/2017")
      proc p2 start proc p1 as evt1
      proc p3 read file[".viminfo" || ".bash_history"] as evt2
      with p1 = p3, evt1 before evt2
      return p2, p1
      sort by p2, p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().multievent.filters.sort_by.size(), 2u);
  // The anonymous file entity has a constraint with two OR'd bare values.
  EXPECT_EQ(r.value().multievent.patterns[1].object.constraint.CountConstraints(), 2u);
}

TEST(ParserTest, PaperQuery3DependencyForward) {
  auto r = ParseQuery(R"(
      (at "01/01/2017")
      forward: proc p1["%/bin/cp%", agentid = 2] ->[write] file f1["/var/www%info_stealer%"]
      <-[read] proc p2["%apache%"]
      ->[connect] proc p3[agentid=3]
      ->[write] file f2["%info_stealer%"]
      return f1, p1, p2, p3, f2)");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& d = r.value().dependency;
  EXPECT_EQ(r.value().kind, ast::QueryKind::kDependency);
  EXPECT_TRUE(d.forward);
  EXPECT_EQ(d.nodes.size(), 5u);
  EXPECT_EQ(d.edges.size(), 4u);
  EXPECT_TRUE(d.edges[0].points_right);
  EXPECT_FALSE(d.edges[1].points_right);
}

TEST(ParserTest, PaperQuery4Anomaly) {
  auto r = ParseQuery(R"(
      (at "01/01/2017")
      window = 1 min
      step = 10 sec
      proc p read ip ipp
      return p, count(distinct ipp) as freq
      group by p
      having freq > 2 * (freq + freq[1] + freq[2]) / 3)");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& q = r.value();
  EXPECT_EQ(q.kind, ast::QueryKind::kAnomaly);
  EXPECT_EQ(*q.global.window, kMinuteMs);
  EXPECT_EQ(*q.global.step, 10 * kSecondMs);
  ASSERT_EQ(q.multievent.ret.items.size(), 2u);
  EXPECT_EQ(q.multievent.ret.items[1].rename, "freq");
  EXPECT_EQ(q.multievent.ret.items[1].expr.func, "count_distinct");
  ASSERT_TRUE(q.multievent.filters.having.has_value());
}

TEST(ParserTest, OperationExpressions) {
  auto r = ParseQuery(R"(
      proc p1 read || write file f1 as evt1
      return p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  OpMask mask = r.value().multievent.patterns[0].ops;
  EXPECT_EQ(mask, OpBit(Operation::kRead) | OpBit(Operation::kWrite));
  r = ParseQuery("proc p1 !read file f1 return p1");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().multievent.patterns[0].ops,
            static_cast<OpMask>(kAllOps & ~OpBit(Operation::kRead)));
}

TEST(ParserTest, TemporalRangeBrackets) {
  auto r = ParseQuery(R"(
      proc p1 read file f1 as evt1
      proc p1 write file f2 as evt2
      with evt1 before[1-2 minutes] evt2
      return p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& rel = r.value().multievent.temp_rels[0];
  EXPECT_EQ(*rel.lo, kMinuteMs);
  EXPECT_EQ(*rel.hi, 2 * kMinuteMs);
}

TEST(ParserTest, InListConstraint) {
  auto r = ParseQuery(R"(
      proc p1[pid in (100, 200, 300)] read file f1 return p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().multievent.patterns[0].subject.constraint.leaf().op, CmpOp::kIn);
  r = ParseQuery(R"(proc p1[user not in ("root")] read file f1 return p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().multievent.patterns[0].subject.constraint.leaf().op, CmpOp::kNotIn);
}

TEST(ParserTest, EventConstraintAndReturnCountDistinct) {
  auto r = ParseQuery(R"(
      proc p1 write ip i1 as evt1[amount > 1000]
      return count distinct p1)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().multievent.ret.count_all);
  EXPECT_TRUE(r.value().multievent.ret.distinct);
  EXPECT_EQ(r.value().multievent.patterns[0].evt_constraint.CountConstraints(), 1u);
}

TEST(ParserTest, FromToWindow) {
  auto r = ParseQuery(R"(
      (from "01/01/2017" to "01/03/2017")
      proc p read file f return p)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().global.LiteralTimeWindow()->begin, MakeTimestamp(2017, 1, 1));
  EXPECT_EQ(r.value().global.LiteralTimeWindow()->end, MakeTimestamp(2017, 1, 3));
}

TEST(ParserTest, TopAndHavingFilters) {
  auto r = ParseQuery(R"(
      proc p read ip i
      return p, count(i) as n
      group by p
      having n > 10
      sort by n desc
      top 5)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(*r.value().multievent.filters.top, 5);
  EXPECT_FALSE(r.value().multievent.filters.sort_by[0].ascending);
}

// --- parser: error reporting ---

TEST(ParserErrorTest, ReportsLineNumbers) {
  auto r = ParseQuery("proc p1 chew file f1 return p1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("line 1"), std::string::npos);
  EXPECT_NE(r.error().find("chew"), std::string::npos);
}

// Every lexer and parser error starts "line N, col C: " at the offending
// token and names that token.
TEST(ParserErrorTest, ReportsColumnAndToken) {
  EXPECT_EQ(ParseQuery("proc p1 chew file f1 return p1").error(),
            "line 1, col 9: unknown operation, found 'chew'");
  EXPECT_EQ(ParseQuery("proc p1 read file f1\n  return p1,, f1").error(),
            "line 2, col 13: expected an expression, found ','");
  EXPECT_EQ(ParseQuery("proc p1 read file f1 as evt1\nproc p1 write file f2 as evt2\n"
                       "with evt1 before[1-2 minutes evt2 return p1")
                .error(),
            "line 3, col 30: expected ']' in temporal range, found 'evt2'");
  EXPECT_EQ(ParseQuery("proc p read file f return p banana").error(),
            "line 1, col 29: unexpected trailing input, found 'banana'");
  EXPECT_EQ(ParseQuery("proc p1 read file f1 return").error(),
            "line 1, col 28: expected an expression, found end of input");
  EXPECT_EQ(ParseQuery("proc p1[\"/bin] read file f1 return p1").error(),
            "line 1, col 9: unterminated string literal");
  EXPECT_EQ(ParseQuery("proc p1 read file f1\nreturn p1 #").error(),
            "line 2, col 11: unexpected character '#'");
}

// Numbers beyond an integer type's range must not be cast to it (undefined
// behaviour, caught by -fsanitize=float-cast-overflow): a 'top' count, a
// history offset or a duration out of range is a parse error, a literal
// stays a double.
TEST(ParserErrorTest, OutOfRangeNumbers) {
  EXPECT_EQ(ParseQuery("proc p read ip i return p top 99999999999999999999").error(),
            "line 1, col 31: 'top' count out of range, found '99999999999999999999'");
  EXPECT_EQ(ParseQuery("proc p read ip i return p, amt[99999999999999999999]").error(),
            "line 1, col 32: history offset out of range, found '99999999999999999999'");
  EXPECT_EQ(ParseQuery("window = 99999999999999999999 d proc p read ip i return p").error(),
            "line 1, col 31: duration out of range, found 'd'");
  // A temporal range reports ParseDuration's own error, as `window =` does.
  EXPECT_EQ(ParseQuery("proc p read ip i as e1 proc p write file f as e2 "
                       "with e1 before[1-99999999999999999999 d] e2 return p")
                .error(),
            "line 1, col 88: duration out of range, found 'd'");
  EXPECT_EQ(ParseQuery("proc p read ip i as e1 proc p write file f as e2 "
                       "with e1 before[1-2 fortnights] e2 return p")
                .error(),
            "line 1, col 69: unrecognized time unit: 'fortnights', found 'fortnights'");

  auto r = ParseQuery("proc p read ip i as e[amount = 99999999999999999999] return p");
  ASSERT_TRUE(r.ok()) << r.error();
  const AttrPredicate& leaf = r.value().multievent.patterns[0].evt_constraint.leaf();
  ASSERT_TRUE(leaf.values[0].is_double());
  EXPECT_EQ(leaf.values[0].as_double(), 1e20);
  r = ParseQuery("proc p read ip i as e[amount = 9007199254740992] return p");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().multievent.patterns[0].evt_constraint.leaf().values[0].as_int(),
            int64_t{9007199254740992});
}

TEST(ParserErrorTest, MissingReturn) {
  auto r = ParseQuery("proc p1 read file f1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("return"), std::string::npos);
}

TEST(ParserErrorTest, BadTimeWindow) {
  auto r = ParseQuery("(at \"not a date\") proc p read file f return p");
  EXPECT_FALSE(r.ok());
}

TEST(ParserErrorTest, TrailingGarbage) {
  auto r = ParseQuery("proc p read file f return p banana banana");
  EXPECT_FALSE(r.ok());
}

TEST(ParserErrorTest, DependencyNeedsEdge) {
  auto r = ParseQuery("forward: proc p1 return p1");
  EXPECT_FALSE(r.ok());
}

// --- inference ---

TEST(InferenceTest, DefaultAttributeFilled) {
  auto ctx = CompileQuery(R"(proc p1["%cmd.exe"] read file f1[".viminfo"] return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_EQ(ctx.value().patterns[0].query.subject_pred.leaf().attr, "exe_name");
  EXPECT_EQ(ctx.value().patterns[0].query.subject_pred.leaf().op, CmpOp::kLike);
  EXPECT_EQ(ctx.value().patterns[0].query.object_pred.leaf().attr, "name");
  EXPECT_EQ(ctx.value().patterns[0].query.object_pred.leaf().op, CmpOp::kEq);
}

TEST(InferenceTest, ReturnItemsGetDefaultAttrs) {
  auto ctx = CompileQuery(R"(proc p1 read ip i1 return p1, i1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_EQ(ctx.value().items[0].expr.resolved->attr->name, "exe_name");
  EXPECT_EQ(ctx.value().items[1].expr.resolved->attr->name, "dst_ip");
}

TEST(InferenceTest, EntityReuseCreatesImplicitRelationship) {
  auto ctx = CompileQuery(R"(
      proc p1 start proc p2 as evt1
      proc p2 read file f1 as evt2
      return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ASSERT_EQ(ctx.value().attr_rels.size(), 1u);
  const auto& rel = ctx.value().attr_rels[0];
  EXPECT_TRUE(rel.implicit);
  EXPECT_EQ(rel.left_pattern, 0u);
  EXPECT_EQ(rel.left_side, RefSide::kObject);
  EXPECT_EQ(rel.right_pattern, 1u);
  EXPECT_EQ(rel.right_side, RefSide::kSubject);
  EXPECT_EQ(rel.left_attr->name, "id");
}

TEST(InferenceTest, ExplicitAttrRelDefaultsToId) {
  auto ctx = CompileQuery(R"(
      proc p1 start proc p2 as evt1
      proc p3 read file f1 as evt2
      with p2 = p3
      return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ASSERT_EQ(ctx.value().attr_rels.size(), 1u);
  EXPECT_EQ(ctx.value().attr_rels[0].left_attr->name, "id");
  EXPECT_FALSE(ctx.value().attr_rels[0].implicit);
}

TEST(InferenceTest, GlobalAgentAppliesToAllPatterns) {
  auto ctx = CompileQuery(R"(
      agentid = 7
      proc p1 read file f1 as evt1
      proc p2 write ip i1 as evt2
      return p1, p2)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  for (const auto& pc : ctx.value().patterns) {
    ASSERT_TRUE(pc.query.agent_ids.has_value());
    EXPECT_EQ((*pc.query.agent_ids)[0], 7u);
  }
}

TEST(InferenceTest, SubjectAgentConstraintPinsEventAgent) {
  auto ctx = CompileQuery(R"(proc p1[agentid = 3] read file f1 return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ASSERT_TRUE(ctx.value().patterns[0].query.agent_ids.has_value());
  EXPECT_EQ((*ctx.value().patterns[0].query.agent_ids)[0], 3u);
}

TEST(InferenceTest, ObjectAgentConstraintStaysEntityLevel) {
  // Cross-host objects (paper Query 3's p3[agentid=3]) must not pin the
  // event's agent.
  auto ctx = CompileQuery(R"(proc p1 connect proc p2[agentid = 3] return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_FALSE(ctx.value().patterns[0].query.agent_ids.has_value());
}

TEST(InferenceTest, SubjectMustBeProcess) {
  auto ctx = CompileQuery("file f1 read file f2 return f1");
  ASSERT_FALSE(ctx.ok());
  EXPECT_NE(ctx.error().find("process"), std::string::npos);
}

TEST(InferenceTest, ConflictingEntityTypesRejected) {
  auto ctx = CompileQuery(R"(
      proc p1 read file x as evt1
      proc x read file f2 as evt2
      return p1)");
  EXPECT_FALSE(ctx.ok());
}

TEST(InferenceTest, UnknownIdentifierInReturn) {
  auto ctx = CompileQuery("proc p1 read file f1 return nosuch");
  ASSERT_FALSE(ctx.ok());
  EXPECT_NE(ctx.error().find("nosuch"), std::string::npos);
}

TEST(InferenceTest, UnknownAttributeRejected) {
  auto ctx = CompileQuery("proc p1[dstport = 1] read file f1 return p1");
  EXPECT_FALSE(ctx.ok());
}

TEST(InferenceTest, SortKeyMustBeAReturnedColumn) {
  auto ctx = CompileQuery("proc p1 write file f1\nreturn p1, f1\nsort by 2, p1");
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.error(), "line 3: sort key '2' is not a returned column");

  ctx = CompileQuery("proc p1 write file f1 as e return f1, e.amount as amt sort by amt, f1 desc");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ASSERT_EQ(ctx.value().sort_by.size(), 2u);
  EXPECT_EQ(ctx.value().sort_by[0].column, 1u);
  EXPECT_EQ(ctx.value().sort_by[1].column, 0u);
  EXPECT_FALSE(ctx.value().sort_by[1].ascending);

  // Anomaly tables lead with the `window` column.
  ctx = CompileQuery(R"((at "01/01/2017") window = 1 min proc p write file f as evt
                        return p, count(evt) as n group by p sort by n desc)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_EQ(ctx.value().sort_by[0].column, 2u);

  EXPECT_TRUE(CompileQuery("proc p1 write file f1 return count p1 sort by f1").ok());
}

TEST(InferenceTest, HistoryRefNeedsWindow) {
  auto ctx = CompileQuery(R"(
      proc p read ip i
      return p, count(i) as freq
      group by p
      having freq > freq[1])");
  ASSERT_FALSE(ctx.ok());
  EXPECT_NE(ctx.error().find("window"), std::string::npos);
}

TEST(InferenceTest, AnomalyRequiresBoundedTime) {
  auto ctx = CompileQuery(R"(
      window = 1 min, step = 10 sec
      proc p read ip i
      return p, count(i) as freq
      group by p)");
  EXPECT_FALSE(ctx.ok());
}

TEST(InferenceTest, PruningScoreCountsConstraints) {
  auto ctx = CompileQuery(R"(
      agentid = 1 (at "01/01/2017")
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3 read file f1 as evt2
      return p1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  // agent + time + op + 2 entity preds = 5 vs agent + time + op = 3.
  EXPECT_EQ(ctx.value().patterns[0].PruningScore(), 5u);
  EXPECT_EQ(ctx.value().patterns[1].PruningScore(), 3u);
}

// Every pattern's data query carries the same emission mask: the base set
// plus the column of each event attribute the query reads.
EventColumnMask EmittedColumns(const char* text) {
  auto ctx = CompileQuery(text);
  EXPECT_TRUE(ctx.ok()) << ctx.error();
  if (!ctx.ok()) {
    return 0;
  }
  const EventColumnMask mask = ctx.value().patterns[0].query.columns;
  for (const PatternContext& pc : ctx.value().patterns) {
    EXPECT_EQ(pc.query.columns, mask) << text;
  }
  return mask;
}

TEST(InferenceTest, EmissionColumnsAreTheBaseSetPlusWhatTheQueryReads) {
  constexpr EventColumnMask kAmount = ColumnBit(EventColumnId::kAmount);
  EXPECT_EQ(EmittedColumns(R"(proc p1 read file f1 return distinct p1, f1)"), kEmitBaseColumns);
  // Event filters are the scan's business, not emission's.
  EXPECT_EQ(EmittedColumns(R"(proc p1 read file f1 as evt[amount > 5] return p1)"),
            kEmitBaseColumns);
  // subject_id / object_id read the entity references of the base set.
  EXPECT_EQ(EmittedColumns(R"(proc p1 read file f1 as evt return evt.subject_id)"),
            kEmitBaseColumns);
  // amount in a return item, a relationship, an anomaly aggregate.
  EXPECT_EQ(EmittedColumns(R"(proc p1 read file f1 as evt2 return p1, evt2.amount)"),
            kEmitBaseColumns | kAmount);
  EXPECT_EQ(EmittedColumns(R"(
      proc p1 write file f1 as evt1
      proc p2 read file f1 as evt2
      with evt1.amount = evt2.amount
      return p1, p2)"),
            kEmitBaseColumns | kAmount);
  EXPECT_EQ(EmittedColumns(R"(
      (at "01/01/2017")
      window = 1 min
      step = 10 sec
      proc p read ip i1 as evt2
      return p, sum(evt2.amount) as total
      group by p)"),
            kEmitBaseColumns | kAmount);
  EXPECT_EQ(EmittedColumns(R"(proc p1 read || write file f1 as evt return p1, evt.optype)"),
            kEmitBaseColumns | ColumnBit(EventColumnId::kOp));
  EXPECT_EQ(EmittedColumns(R"(
      proc p1 read file f1 as evt
      return p1, count(evt.id) as n
      group by p1
      having n > 1
      sort by n)"),
            kEmitBaseColumns);
  EXPECT_EQ(EmittedColumns(R"(
      proc p1 read file f1 as evt
      return p1, evt.end_time
      sort by evt.end_time)"),
            kEmitBaseColumns | ColumnBit(EventColumnId::kEndTime));
}

// --- dependency rewriting ---

TEST(DependencyRewriteTest, ForwardChain) {
  auto parsed = ParseQuery(R"(
      forward: proc p1["%a%"] ->[write] file f1["%b%"] <-[read] proc p2 ->[start] proc p3
      return p1, p3)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  auto mq = RewriteDependency(parsed.value().dependency);
  ASSERT_TRUE(mq.ok()) << mq.error();
  ASSERT_EQ(mq.value().patterns.size(), 3u);
  // Edge directions: p1 writes f1; p2 reads f1; p2 starts p3.
  EXPECT_EQ(mq.value().patterns[0].subject.id, "p1");
  EXPECT_EQ(mq.value().patterns[1].subject.id, "p2");
  EXPECT_EQ(mq.value().patterns[1].object.id, "f1");
  // Temporal chain: _d0 before _d1 before _d2.
  ASSERT_EQ(mq.value().temp_rels.size(), 2u);
  EXPECT_EQ(mq.value().temp_rels[0].order, ast::TempOrder::kBefore);
}

TEST(DependencyRewriteTest, BackwardUsesAfter) {
  auto parsed = ParseQuery(R"(
      backward: proc p1 ->[write] file f1 <-[read] proc p2
      return p1)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  auto mq = RewriteDependency(parsed.value().dependency);
  ASSERT_TRUE(mq.ok()) << mq.error();
  EXPECT_EQ(mq.value().temp_rels[0].order, ast::TempOrder::kAfter);
}

TEST(DependencyRewriteTest, SharedConstraintEmittedOnce) {
  auto parsed = ParseQuery(R"(
      forward: proc p1 ->[write] file f1["%x%"] <-[read] proc p2
      return p1)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  auto mq = RewriteDependency(parsed.value().dependency);
  ASSERT_TRUE(mq.ok()) << mq.error();
  EXPECT_EQ(mq.value().patterns[0].object.constraint.CountConstraints(), 1u);
  EXPECT_EQ(mq.value().patterns[1].object.constraint.CountConstraints(), 0u);
}

TEST(DependencyRewriteTest, WrongDirectionSubjectRejected) {
  auto parsed = ParseQuery(R"(
      forward: file f1 ->[read] proc p1
      return p1)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_FALSE(RewriteDependency(parsed.value().dependency).ok());
}

// --- $parameters: lexing, collection, and diagnostics ---

TEST(LexerTest, ParamTokens) {
  auto r = Tokenize("agentid = $agent (at $tw)");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_GE(r.value().size(), 6u);
  EXPECT_EQ(r.value()[2].type, TokenType::kParam);
  EXPECT_EQ(r.value()[2].text, "agent");
  EXPECT_EQ(r.value()[5].type, TokenType::kParam);
  EXPECT_EQ(r.value()[5].text, "tw");
}

TEST(LexerTest, BareDollarFails) {
  auto r = Tokenize("agentid = $ 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("parameter name after '$'"), std::string::npos);
}

constexpr const char* kParamQuery = R"(
    agentid = $agent (from $t0 to $t1)
    proc p1[$exe] write file f1 as evt1[amount > $thr]
    return p1, f1)";

TEST(ParamTest, CollectParamsTypesAndOrder) {
  auto parsed = ParseQuery(kParamQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  std::vector<ParamInfo> params = CollectParams(parsed.value());
  ASSERT_EQ(params.size(), 5u);
  EXPECT_EQ(params[0].name, "agent");
  EXPECT_EQ(params[0].type, ParamType::kValue);
  EXPECT_EQ(params[1].name, "t0");
  EXPECT_EQ(params[1].type, ParamType::kTimestamp);
  EXPECT_EQ(params[2].name, "t1");
  EXPECT_EQ(params[2].type, ParamType::kTimestamp);
  EXPECT_EQ(params[3].name, "exe");
  EXPECT_EQ(params[4].name, "thr");
  EXPECT_EQ(params[3].line, 3);  // position carried for diagnostics
}

TEST(ParamTest, UnboundParameterRejectedAtResolution) {
  // Executing parameterized text without binding is the "unbound parameter
  // at run time" diagnostic, with the parameter's source line.
  auto ctx = CompileQuery(kParamQuery);
  ASSERT_FALSE(ctx.ok());
  EXPECT_NE(ctx.error().find("unbound parameter $agent"), std::string::npos);
  EXPECT_NE(ctx.error().find("line 2"), std::string::npos);
}

TEST(ParamTest, BindSubstitutesAndPromotesLike) {
  auto parsed = ParseQuery(kParamQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ast::Query q = parsed.value();
  Status s = BindParams(&q, ParamSet()
                                .Set("agent", 1)
                                .Set("t0", "01/01/2017")
                                .Set("t1", "01/02/2017")
                                .Set("exe", "%osql%")
                                .Set("thr", 1000));
  ASSERT_TRUE(s.ok()) << s.message();
  // '=' against a bound wildcard string means LIKE, as with literals.
  const PredExpr& subject = q.multievent.patterns[0].subject.constraint;
  ASSERT_EQ(subject.kind(), PredExpr::Kind::kLeaf);
  EXPECT_EQ(subject.leaf().op, CmpOp::kLike);
  EXPECT_EQ(subject.leaf().values[0].as_string(), "%osql%");
  // The bound query now resolves like a literal one.
  auto ctx = ResolveQuery(q);
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_EQ(ctx.value().global_time.begin, MakeTimestamp(2017, 1, 1));
  ASSERT_TRUE(ctx.value().global_agents.has_value());
  EXPECT_EQ(ctx.value().global_agents->at(0), 1u);
}

TEST(ParamTest, UnboundAtBindCarriesPosition) {
  auto parsed = ParseQuery(kParamQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ast::Query q = parsed.value();
  Status s = BindParams(&q, ParamSet().Set("agent", 1));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound parameter $"), std::string::npos);
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(ParamTest, UnknownParameterListsDeclared) {
  auto parsed = ParseQuery("proc p1[$exe] read file f1 return p1");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ast::Query q = parsed.value();
  Status s = BindParams(&q, ParamSet().Set("exe", "x").Set("oops", 3));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown parameter $oops"), std::string::npos);
  EXPECT_NE(s.message().find("$exe"), std::string::npos);
}

TEST(ParamTest, TimestampTypeMismatchCarriesPosition) {
  auto parsed = ParseQuery("(at $tw)\nproc p1 read file f1 return p1");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  {
    // Non-string value for a time-window endpoint.
    ast::Query q = parsed.value();
    Status s = BindParams(&q, ParamSet().Set("tw", 42));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("line 1"), std::string::npos);
    EXPECT_NE(s.message().find("expects a datetime string"), std::string::npos);
  }
  {
    // String that is not a datetime.
    ast::Query q = parsed.value();
    Status s = BindParams(&q, ParamSet().Set("tw", "not-a-date"));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("parameter $tw"), std::string::npos);
    EXPECT_NE(s.message().find("line 1"), std::string::npos);
  }
}

TEST(ParamTest, ParamsInHavingAndInLists) {
  auto parsed = ParseQuery(R"(
      proc p1 read file f1
      return p1, count(f1) as n
      group by p1
      having n > $min)");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ast::Query q = parsed.value();
  ASSERT_EQ(CollectParams(q).size(), 1u);
  Status s = BindParams(&q, ParamSet().Set("min", 2));
  ASSERT_TRUE(s.ok()) << s.message();
  auto in_list = ParseQuery("agentid in ($a, $b)\nproc p1 read file f1 return p1");
  ASSERT_TRUE(in_list.ok()) << in_list.error();
  ast::Query q2 = in_list.value();
  ASSERT_EQ(CollectParams(q2).size(), 2u);
  s = BindParams(&q2, ParamSet().Set("a", 1).Set("b", 2));
  ASSERT_TRUE(s.ok()) << s.message();
  auto ctx = ResolveQuery(q2);
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  ASSERT_TRUE(ctx.value().global_agents.has_value());
  EXPECT_EQ(ctx.value().global_agents->size(), 2u);
}

}  // namespace
}  // namespace aiql
