// Unit tests for src/util: values, time parsing, LIKE matching, strings,
// RNG determinism, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/flat_index.h"
#include "src/util/rng.h"
#include "src/util/string_utils.h"
#include "src/util/thread_pool.h"
#include "src/util/time_utils.h"
#include "src/util/value.h"

namespace aiql {
namespace {

TEST(ValueTest, TypedAccessors) {
  EXPECT_TRUE(Value(int64_t{42}).is_int());
  EXPECT_TRUE(Value(4.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(Value(int64_t{42}).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(4.5).as_double(), 4.5);
  EXPECT_EQ(Value("abc").as_string(), "abc");
}

TEST(ValueTest, StringToNumberCoercion) {
  EXPECT_EQ(Value("123").as_int(), 123);
  EXPECT_DOUBLE_EQ(Value("2.5").as_double(), 2.5);
  EXPECT_EQ(Value("nope").as_int(), 0);
}

TEST(ValueTest, MixedNumericComparison) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.5), Value(int64_t{3}));
}

TEST(ValueTest, NumbersSortBeforeStrings) {
  EXPECT_LT(Value(int64_t{999999}), Value("a"));
  EXPECT_FALSE(Value("a") < Value(int64_t{1}));
}

TEST(ValueTest, IntegralDoubleHashesLikeInt) {
  EXPECT_EQ(Value(3.0).Hash(), Value(int64_t{3}).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x y").ToString(), "x y");
  EXPECT_EQ(Value(2.0).ToString(), "2");  // integral double rendered as int
}

// Ids are dense in first-insertion order and survive the table's growth;
// keys differing in any word, including a tag word alone, stay apart.
TEST(FlatIndexTest, KeyTableAssignsDenseIdsAcrossGrowth) {
  FlatKeyTable table(2);
  bool fresh = false;
  for (uint64_t k = 0; k < 5000; ++k) {
    const uint64_t key[2] = {k % 3, k / 3};
    ASSERT_EQ(table.Insert(key, &fresh), k);
    ASSERT_TRUE(fresh);
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    const uint64_t key[2] = {k % 3, k / 3};
    ASSERT_EQ(table.Insert(key, &fresh), k);
    ASSERT_FALSE(fresh);
  }
  EXPECT_EQ(table.size(), 5000u);
}

TEST(FlatIndexTest, StringTableKeepsOneStableCopyPerString) {
  StringTable strings;
  const uint32_t a = strings.Intern("/bin/bash");
  const std::string* first = &strings.At(a);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(strings.Intern("s" + std::to_string(i)), static_cast<uint32_t>(i + 1));
  }
  EXPECT_EQ(strings.Intern(std::string("/bin/") + "bash"), a);
  EXPECT_EQ(&strings.At(a), first);
  EXPECT_EQ(strings.At(a), "/bin/bash");
  EXPECT_EQ(strings.At(2001), "s2000");
}

TEST(TimeTest, MakeTimestampEpoch) {
  EXPECT_EQ(MakeTimestamp(1970, 1, 1), 0);
  EXPECT_EQ(MakeTimestamp(1970, 1, 2), kDayMs);
  EXPECT_EQ(MakeTimestamp(2017, 1, 1, 0, 0, 0), 1483228800000LL);
}

TEST(TimeTest, ParseUsFormat) {
  auto r = ParseDateTime("01/01/2017");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), MakeTimestamp(2017, 1, 1));
}

TEST(TimeTest, ParseIsoFormatWithTime) {
  auto r = ParseDateTime("2017-01-01 10:30:05");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), MakeTimestamp(2017, 1, 1, 10, 30, 5));
  r = ParseDateTime("2017-01-01T10:30:05");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), MakeTimestamp(2017, 1, 1, 10, 30, 5));
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDateTime("tomorrow").ok());
  EXPECT_FALSE(ParseDateTime("13/45/2017").ok());
  EXPECT_FALSE(ParseDateTime("2017-01-01 25:00").ok());
}

TEST(TimeTest, DateRangeCoversWholeDay) {
  auto r = ParseDateTimeRange("01/02/2017");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().begin, MakeTimestamp(2017, 1, 2));
  EXPECT_EQ(r.value().end, MakeTimestamp(2017, 1, 3));
}

TEST(TimeTest, MinutePrecisionRangeCoversMinute) {
  auto r = ParseDateTimeRange("2017-01-02 10:30");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().end - r.value().begin, kMinuteMs);
}

TEST(TimeTest, ParseDurationUnits) {
  EXPECT_EQ(ParseDuration("1 min").value(), kMinuteMs);
  EXPECT_EQ(ParseDuration("10 sec").value(), 10 * kSecondMs);
  EXPECT_EQ(ParseDuration("2 hours").value(), 2 * kHourMs);
  EXPECT_EQ(ParseDuration("1 day").value(), kDayMs);
  EXPECT_EQ(ParseDuration("250 ms").value(), 250);
  EXPECT_FALSE(ParseDuration("5 fortnights").ok());
}

TEST(TimeTest, DayIndexFloorsNegative) {
  EXPECT_EQ(DayIndex(0), 0);
  EXPECT_EQ(DayIndex(-1), -1);
  EXPECT_EQ(DayIndex(kDayMs), 1);
  EXPECT_EQ(DayIndex(kDayMs - 1), 0);
}

TEST(TimeTest, FormatRoundTrips) {
  TimestampMs t = MakeTimestamp(2017, 3, 15, 13, 45, 30, 250);
  EXPECT_EQ(FormatTimestamp(t), "2017-03-15 13:45:30.250");
}

TEST(TimeTest, RangeIntersect) {
  TimeRange a{0, 100};
  TimeRange b{50, 150};
  EXPECT_EQ(a.Intersect(b), (TimeRange{50, 100}));
  EXPECT_TRUE(a.Intersect(TimeRange{200, 300}).empty());
}

TEST(LikeTest, ExactMatch) {
  EXPECT_TRUE(LikeMatch("osql.exe", "osql.exe"));
  EXPECT_FALSE(LikeMatch("osql.exe", "osql"));
}

TEST(LikeTest, CaseInsensitive) {
  EXPECT_TRUE(LikeMatch("BACKUP1.DMP", "%backup1.dmp"));
  EXPECT_TRUE(LikeMatch("C:\\Windows\\CMD.EXE", "%cmd.exe"));
}

TEST(LikeTest, PercentWildcard) {
  EXPECT_TRUE(LikeMatch("C:\\Program Files\\SQL\\osql.exe", "%osql.exe"));
  EXPECT_TRUE(LikeMatch("/var/www/html/info_stealer.sh", "/var/www%info_stealer%"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_FALSE(LikeMatch("abc", "a%d"));
}

TEST(LikeTest, UnderscoreWildcard) {
  EXPECT_TRUE(LikeMatch("a1c", "a_c"));
  EXPECT_FALSE(LikeMatch("ac", "a_c"));
}

TEST(LikeTest, EmptyEdgeCases) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_FALSE(LikeMatch("x", ""));
}

// One ASCII fold serves LikeMatch, ToLower, ToLowerInto and
// EqualsIgnoreCase: only 'A'-'Z' fold; every other byte, including the bytes
// of UTF-8 sequences (>= 0x80), compares exactly.
TEST(LikeTest, FoldsAsciiOnly) {
  EXPECT_TRUE(LikeMatch("C:\\Users\\Bob\\NTUSER.dat", "c:\\users\\bob\\ntuser.DAT"));
  EXPECT_TRUE(LikeMatch("MiXeD_cAsE", "mixed_case"));
  EXPECT_TRUE(EqualsIgnoreCase("ABCxyz@[`{", "abcXYZ@[`{"));
  // '@' (0x40) and '[' (0x5b) border 'A'-'Z'; '`' and '{' border 'a'-'z'.
  EXPECT_FALSE(EqualsIgnoreCase("@", "`"));
  EXPECT_FALSE(EqualsIgnoreCase("[", "{"));
  EXPECT_EQ(ToLower("@AZ[`az{"), "@az[`az{");

  const std::string upper_e_acute = "\xc3\x89";  // UTF-8 "É"
  const std::string lower_e_acute = "\xc3\xa9";  // UTF-8 "é"
  EXPECT_FALSE(LikeMatch(upper_e_acute, lower_e_acute));
  EXPECT_FALSE(EqualsIgnoreCase(upper_e_acute, lower_e_acute));
  EXPECT_TRUE(LikeMatch("CAF" + upper_e_acute, "caf" + upper_e_acute));
  EXPECT_TRUE(LikeMatch("caf" + upper_e_acute, "%" + upper_e_acute));
  EXPECT_EQ(ToLower("CAF" + upper_e_acute), "caf" + upper_e_acute);
  std::string folded;
  ToLowerInto("\xff\x80Z", &folded);
  EXPECT_EQ(folded, "\xff\x80z");
}

// A '%' in the pattern is always a wildcard, also where the text holds a
// literal '%' it could match.
TEST(LikeTest, PercentInTextDoesNotPinThePatternsPercent) {
  EXPECT_TRUE(LikeMatch("%", "%_"));
  EXPECT_TRUE(LikeMatch("50%", "%0_"));
  EXPECT_TRUE(LikeMatch("/tmp/50%_off.sh", "%50%_off%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%"));
  EXPECT_FALSE(LikeMatch("%", "%__"));
}

TEST(LikeTest, BacktrackingStress) {
  // Adversarial pattern that defeats naive exponential matchers.
  std::string text(200, 'a');
  std::string pattern = "%a%a%a%a%a%a%a%a%a%b";
  EXPECT_FALSE(LikeMatch(text, pattern));
  pattern.back() = 'a';
  EXPECT_TRUE(LikeMatch(text, pattern));
}

TEST(StringTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(Trim("  x \t"), "x");
}

TEST(StringTest, ConcisenessCounters) {
  EXPECT_EQ(CountWords("return p1, p2"), 3u);
  EXPECT_EQ(CountNonSpaceChars("a b  c"), 3u);
  EXPECT_EQ(CountWords("   "), 0u);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SkewedPrefersHead) {
  Rng rng(3);
  size_t head = 0;
  const size_t kN = 10000;
  for (size_t i = 0; i < kN; ++i) {
    if (rng.Skewed(100, 1.6) < 20) {
      ++head;
    }
  }
  // P(u^1.6 < 0.2) = 0.2^(1/1.6) ~ 0.37: well above the uniform 20% share.
  EXPECT_GT(head, kN * 30 / 100);
  EXPECT_LT(head, kN * 45 / 100);
}

TEST(ThreadPoolTest, ParallelForRunsAll) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, RunBulkRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.RunBulk(kN, [&](size_t /*worker*/, size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, RunBulkWorkerIdsStayInBounds) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.max_participants(), 4u);
  std::atomic<size_t> max_seen{0};
  pool.RunBulk(200, [&](size_t worker, size_t /*i*/) {
    size_t prev = max_seen.load();
    while (worker > prev && !max_seen.compare_exchange_weak(prev, worker)) {
    }
  });
  EXPECT_LT(max_seen.load(), pool.max_participants());
}

TEST(ThreadPoolTest, RunBulkGivesEachWorkerPrivateSlots) {
  // The per-worker scratch pattern the morsel scan relies on: concurrent
  // participants index disjoint slots, so unsynchronized writes are safe.
  ThreadPool pool(4);
  std::vector<int> per_worker(pool.max_participants(), 0);
  pool.RunBulk(500, [&](size_t worker, size_t /*i*/) { ++per_worker[worker]; });
  int total = 0;
  for (int c : per_worker) {
    total += c;
  }
  EXPECT_EQ(total, 500);
}

TEST(ThreadPoolTest, RunBulkPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.RunBulk(50,
                            [&](size_t, size_t i) {
                              if (i == 17) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

TEST(ThreadPoolTest, RunBulkNestedInsideWorkerDoesNotDeadlock) {
  // A morsel worker may itself issue a bulk scan (MPP segment scans calling
  // into segment databases). The calling thread participates, so the inner
  // call drains even when every pool worker is busy.
  ThreadPool pool(2);
  std::atomic<int> inner_sum{0};
  pool.ParallelFor(8, [&](size_t /*i*/) {
    pool.RunBulk(10, [&](size_t, size_t j) { inner_sum += static_cast<int>(j); });
  });
  EXPECT_EQ(inner_sum.load(), 8 * 45);
}

TEST(ThreadPoolTest, RunBulkFromManyExternalThreads) {
  // Concurrent RunBulk calls from distinct caller threads share one pool.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back(
        [&] { pool.RunBulk(100, [&](size_t, size_t) { ++total; }); });
  }
  for (auto& c : callers) {
    c.join();
  }
  EXPECT_EQ(total.load(), 400);
}

}  // namespace
}  // namespace aiql
