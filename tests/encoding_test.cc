// Archive-tier unit coverage: every codec round-trips exactly on random and
// adversarial inputs (empty, single row, all-equal, descending ids at equal
// timestamps, full-range int64), the adaptive pick never loses to either
// codec, the width-specialized encoder matches the reference codec
// (tests/reference_codec.h) byte for byte at every width and tail length, realistic event columns compress well past the 3x target, and the
// two LRU caches (decoded archived partitions, compiled scan plans) hold at
// most their capacity while counting evictions.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/storage/database.h"
#include "src/storage/encoding.h"
#include "src/storage/partition.h"
#include "src/storage/plan_cache.h"
#include "src/util/rng.h"
#include "tests/reference_codec.h"

namespace aiql {
namespace {

std::vector<int64_t> RoundTrip(const std::vector<int64_t>& v, IntCodec codec) {
  EncodedInts e = EncodeInts(v.data(), v.size(), codec);
  EXPECT_EQ(e.count, v.size());
  std::vector<int64_t> out(e.count);
  DecodeInts(e, out.data());
  return out;
}

TEST(IntCodecTest, AdversarialInputsRoundTrip) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<int64_t>> cases = {
      {},                              // empty column
      {42},                            // single row
      {7, 7, 7, 7, 7, 7},              // all equal (width 0 everywhere)
      {9, 7, 3, 1},                    // descending ids at one timestamp
      {kMin, kMax, kMin, kMax},        // full-range alternation
      {kMin, kMin + 1, kMax - 1, kMax},
      {0, 1, 2, 3, 4, 5, 6, 7},        // sorted, unit deltas
      {-5, -4, -3, 0, 1000000000000},  // negatives crossing zero
  };
  // Block-boundary sizes: 1023/1024/1025 sorted values.
  for (size_t n : {kEncodingBlock - 1, kEncodingBlock, kEncodingBlock + 1}) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<int64_t>(i) * 3 - 1000;
    }
    cases.push_back(std::move(v));
  }
  for (const auto& v : cases) {
    for (IntCodec codec : {IntCodec::kFor, IntCodec::kDeltaFor}) {
      EXPECT_EQ(RoundTrip(v, codec), v)
          << IntCodecName(codec) << " n=" << v.size() << (v.empty() ? 0 : v[0]);
    }
    EncodedInts adaptive = EncodeIntsAdaptive(v.data(), v.size());
    std::vector<int64_t> out(adaptive.count);
    DecodeInts(adaptive, out.data());
    EXPECT_EQ(out, v) << "adaptive n=" << v.size();
  }
}

TEST(IntCodecTest, RandomInputsRoundTrip) {
  Rng rng(20180711);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = rng.Below(3000);
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Below(4)) {
        case 0:  // full 64-bit entropy
          v[i] = static_cast<int64_t>(rng.Next());
          break;
        case 1:  // narrow domain
          v[i] = static_cast<int64_t>(rng.Below(9));
          break;
        case 2:  // near-monotonic (timestamps with jitter)
          v[i] = (i > 0 ? v[i - 1] : 0) + rng.Range(-3, 50);
          break;
        default:  // clustered around a large base
          v[i] = 1483228800000 + rng.Range(-100000, 100000);
          break;
      }
    }
    for (IntCodec codec : {IntCodec::kFor, IntCodec::kDeltaFor}) {
      EXPECT_EQ(RoundTrip(v, codec), v) << IntCodecName(codec) << " trial " << trial;
    }
  }
}

TEST(IntCodecTest, AdaptivePicksTheSmallerCodec) {
  Rng rng(5);
  // Sorted timestamps: delta wins. Random categorical values: FOR wins.
  std::vector<int64_t> sorted(4000), categorical(4000);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = (i > 0 ? sorted[i - 1] : 1483228800000) + rng.Range(0, 2000);
    categorical[i] = static_cast<int64_t>(rng.Below(9));
  }
  for (const auto& v : {sorted, categorical}) {
    EncodedInts adaptive = EncodeIntsAdaptive(v.data(), v.size());
    EncodedInts plain = EncodeInts(v.data(), v.size(), IntCodec::kFor);
    EncodedInts delta = EncodeInts(v.data(), v.size(), IntCodec::kDeltaFor);
    EXPECT_LE(adaptive.EncodedBytes(), plain.EncodedBytes());
    EXPECT_LE(adaptive.EncodedBytes(), delta.EncodedBytes());
  }
  EXPECT_EQ(EncodeIntsAdaptive(sorted.data(), sorted.size()).codec, IntCodec::kDeltaFor);
}

// --- format oracle -------------------------------------------------------------

enum class Shape { kRandomInWidth, kMinBase, kNearMonotonic };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kRandomInWidth:
      return "random-in-width";
    case Shape::kMinBase:
      return "int64-min-base";
    case Shape::kNearMonotonic:
      return "near-monotonic";
  }
  return "?";
}

// n values whose FOR (or, for kNearMonotonic, delta) frame is `width` bits.
std::vector<int64_t> ShapedValues(unsigned width, size_t n, Shape shape, Rng& rng) {
  const uint64_t mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  const uint64_t kMinU = static_cast<uint64_t>(std::numeric_limits<int64_t>::min());
  std::vector<int64_t> v(n);
  uint64_t prev = 1483228800000;  // a ms timestamp
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.Next() & mask;
    switch (shape) {
      case Shape::kRandomInWidth:
        v[i] = static_cast<int64_t>(r);
        break;
      case Shape::kMinBase:
        v[i] = static_cast<int64_t>(kMinU + r);
        break;
      case Shape::kNearMonotonic:
        prev += r - (mask >> 3);  // mostly rising, some steps back
        v[i] = static_cast<int64_t>(prev);
        break;
    }
  }
  if (shape != Shape::kNearMonotonic && n >= 2) {
    // Pin the frame so the first block packs at exactly `width` bits.
    const uint64_t lo = shape == Shape::kMinBase ? kMinU : 0;
    v[0] = static_cast<int64_t>(lo);
    v[n - 1 < kEncodingBlock ? n - 1 : kEncodingBlock - 1] = static_cast<int64_t>(lo + mask);
  }
  return v;
}

// The width-specialized encoder must produce the reference codec's exact
// EncodedInts (codec, directory, words — so the spare-word layout and the
// adaptive tie rule are pinned), and both decoders must recover every input
// from either encoding. Covers every width 0..64, the 64-value group tails
// and block boundaries, and all three entry points.
TEST(IntCodecTest, MatchesTheReferenceCodecByteForByte) {
  Rng rng(1209);
  const size_t kLengths[] = {0, 1, 2, 63, 64, 65, 127, 1023, 1024, 1025, 2047, 2049};
  enum class Entry { kFor, kDeltaFor, kAdaptive };
  size_t cases = 0;
  for (unsigned width = 0; width <= 64; ++width) {
    for (size_t n : kLengths) {
      for (Shape shape : {Shape::kRandomInWidth, Shape::kMinBase, Shape::kNearMonotonic}) {
        const std::vector<int64_t> v = ShapedValues(width, n, shape, rng);
        for (Entry entry : {Entry::kFor, Entry::kDeltaFor, Entry::kAdaptive}) {
          SCOPED_TRACE(testing::Message() << "width " << width << " n " << n << " "
                                          << ShapeName(shape) << " entry "
                                          << static_cast<int>(entry));
          EncodedInts got, want;
          if (entry == Entry::kAdaptive) {
            got = EncodeIntsAdaptive(v.data(), n);
            want = reference::EncodeIntsAdaptive(v.data(), n);
          } else {
            const IntCodec codec = entry == Entry::kFor ? IntCodec::kFor : IntCodec::kDeltaFor;
            got = EncodeInts(v.data(), n, codec);
            want = reference::EncodeInts(v.data(), n, codec);
          }
          ASSERT_EQ(got.codec, want.codec);
          ASSERT_EQ(got.count, want.count);
          ASSERT_EQ(got.blocks.size(), want.blocks.size());
          for (size_t b = 0; b < want.blocks.size(); ++b) {
            ASSERT_EQ(got.blocks[b].base, want.blocks[b].base) << "block " << b;
            ASSERT_EQ(got.blocks[b].first, want.blocks[b].first) << "block " << b;
            ASSERT_EQ(got.blocks[b].word_offset, want.blocks[b].word_offset) << "block " << b;
            ASSERT_EQ(got.blocks[b].width, want.blocks[b].width) << "block " << b;
          }
          ASSERT_EQ(got.words, want.words);
          // The first block runs the kernel under test (at width 64 only the
          // INT64_MIN-based frame spans the full signed range).
          if (entry == Entry::kFor && n >= 2 &&
              (shape == Shape::kMinBase || (shape == Shape::kRandomInWidth && width < 64))) {
            ASSERT_EQ(got.blocks[0].width, width);
          }

          std::vector<int64_t> out(n, 0x5a5a5a5a);
          DecodeInts(got, out.data());
          ASSERT_EQ(out, v) << "kernel decoder";
          std::vector<int64_t> ref_out(n, 0x5a5a5a5a);
          reference::DecodeInts(got, ref_out.data());
          ASSERT_EQ(ref_out, v) << "reference decoder";
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 65u * 12 * 3 * 3);
}

// Narrow typed columns decode through the same kernels without an int64
// detour, into uninitialised EventColumns storage.
TEST(IntCodecTest, TypedColumnDecodeMatchesTheReference) {
  Rng rng(7);
  for (unsigned width : {0u, 1u, 7u, 8u, 13u, 31u, 32u}) {
    std::vector<uint32_t> v(2049);
    for (uint32_t& x : v) {
      x = static_cast<uint32_t>(rng.Next() & ((uint64_t{1} << width) - 1));
    }
    EncodedInts e = EncodeColumn(v);
    EventColumn<uint32_t> out;
    DecodeColumn(e, &out);
    ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.end()), v) << "width " << width;
  }
}

TEST(StringCodecTest, DictionaryRoundTrips) {
  std::vector<std::vector<std::string>> cases = {
      {},
      {""},
      {"", "", ""},
      {"/bin/bash"},
      {"/bin/bash", "/bin/bash", "/usr/sbin/sshd", "/bin/bash"},
      {std::string(10000, 'x'), "short", std::string(10000, 'x')},
      {std::string("nul\0embedded", 12), "plain", std::string("nul\0embedded", 12)},
  };
  Rng rng(99);
  std::vector<std::string> random;
  for (int i = 0; i < 5000; ++i) {
    random.push_back("/proc/exe" + std::to_string(rng.Below(40)));
  }
  cases.push_back(std::move(random));
  for (const auto& v : cases) {
    EncodedStrings e = EncodeStrings(v);
    std::vector<std::string> out;
    DecodeStrings(e, &out);
    EXPECT_EQ(out, v) << "n=" << v.size();
  }
  // 5000 rows over 40 distinct strings: the dictionary pays for itself.
  const auto& repetitive = cases.back();
  size_t raw = 0;
  for (const auto& s : repetitive) {
    raw += s.size() + sizeof(std::string);
  }
  EXPECT_LT(EncodeStrings(repetitive).EncodedBytes(), raw / 3);
}

TEST(ArchiveEncodingTest, RealisticEventColumnsCompressPast3x) {
  // The shape the archive tier exists for: sorted ms timestamps, sequential
  // ids, a handful of agents/ops, agent-affine entity indexes.
  Rng rng(31337);
  EventColumns cols;
  Event e;
  TimestampMs t = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 50000; ++i) {
    t += rng.Range(0, 200);
    e.id = 1000 + i;
    e.seq = i / 4;
    e.agent_id = static_cast<AgentId>(1 + rng.Below(4));
    e.op = static_cast<Operation>(rng.Below(kNumOperations));
    e.object_type = rng.Chance(0.3) ? EntityType::kProcess : EntityType::kFile;
    e.subject_idx = static_cast<uint32_t>(rng.Below(300));
    e.object_idx = static_cast<uint32_t>(rng.Below(4000));
    e.start_time = t;
    e.end_time = t + rng.Range(0, 50);
    e.amount = rng.Chance(0.7) ? 0 : rng.Range(0, 1 << 20);
    e.failure_code = static_cast<int32_t>(rng.Below(3));
    cols.Append(e);
  }
  ArchivedColumns a = EncodeEventColumns(cols);
  ASSERT_EQ(a.count, cols.size());

  size_t hot_bytes = 0;
  hot_bytes += cols.size() * (5 * sizeof(int64_t) + 4 * sizeof(uint32_t) + 2);
  EXPECT_GE(hot_bytes, 3 * a.EncodedBytes())
      << "hot=" << hot_bytes << " archived=" << a.EncodedBytes();

  // Exact per-column round trip through the partition-level encoder.
  DecodedPartition dec(&a);
  const EventColumns* d = dec.EnsureAll(nullptr);
  EXPECT_EQ(d->id, cols.id);
  EXPECT_EQ(d->seq, cols.seq);
  EXPECT_EQ(d->agent_id, cols.agent_id);
  EXPECT_EQ(d->op, cols.op);
  EXPECT_EQ(d->object_type, cols.object_type);
  EXPECT_EQ(d->subject_idx, cols.subject_idx);
  EXPECT_EQ(d->object_idx, cols.object_idx);
  EXPECT_EQ(d->start_time, cols.start_time);
  EXPECT_EQ(d->end_time, cols.end_time);
  EXPECT_EQ(d->amount, cols.amount);
  EXPECT_EQ(d->failure_code, cols.failure_code);
}

TEST(DecodedPartitionTest, PerColumnDecodeAccountsBytesOnce) {
  EventColumns cols;
  Event e;
  for (int i = 0; i < 1000; ++i) {
    e.id = i;
    e.start_time = 1000 + i;
    cols.Append(e);
  }
  ArchivedColumns a = EncodeEventColumns(cols);
  DecodedPartition dec(&a);
  ScanStats stats;
  const EventColumns* d =
      dec.Ensure(ColumnBit(EventColumnId::kStartTime) | ColumnBit(EventColumnId::kOp), &stats);
  EXPECT_EQ(d->start_time.size(), 1000u);
  EXPECT_TRUE(d->id.empty());  // not requested, not decoded
  uint64_t partial = stats.decoded_bytes;
  EXPECT_GT(partial, 0u);
  // Re-ensuring the same columns decodes nothing new.
  dec.Ensure(ColumnBit(EventColumnId::kStartTime), &stats);
  EXPECT_EQ(stats.decoded_bytes, partial);
  dec.EnsureAll(&stats);
  EXPECT_EQ(d->id.size(), 1000u);
  EXPECT_GT(stats.decoded_bytes, partial);
}

// --- LRU caches --------------------------------------------------------------

TEST(DecodeCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  // Three archived partitions, capacity 2.
  Database db{DatabaseOptions{.agent_group_size = 1, .archive_after_days = 0,
                              .decode_cache_partitions = 2}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 50; ++i) {
      db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, base + day * kDayMs + i);
    }
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 3u);

  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats stats;
  // Full scan touches all 3 partitions: capacity 2 forces an eviction.
  auto events = db.ExecuteQuery(q, &stats);
  EXPECT_EQ(events.size(), 150u);
  EXPECT_EQ(stats.partitions_decoded, 3u);
  EXPECT_LE(db.decode_cache().size(), 2u);
  EXPECT_GE(db.decode_cache().evictions(), 1u);
  EXPECT_GT(stats.decoded_bytes, 0u);
  EXPECT_GT(stats.archived_bytes, 0u);

  // A re-scan of an evicted partition decodes again (counted again).
  ScanStats again;
  db.ExecuteQuery(q, &again);
  EXPECT_GE(again.partitions_decoded, 1u);
}

TEST(DecodeCacheTest, ResidentPartitionIsNotRedecoded) {
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  for (int i = 0; i < 100; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f,
                   MakeTimestamp(2017, 1, 1) + i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 1u);
  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats first, second;
  db.ExecuteQuery(q, &first);
  EXPECT_EQ(first.partitions_decoded, 1u);
  db.ExecuteQuery(q, &second);
  EXPECT_EQ(second.partitions_decoded, 0u);  // warm cache
  EXPECT_EQ(second.decoded_bytes, 0u);
  // Dropping the cache makes the next scan cold again.
  db.decode_cache().Clear();
  ScanStats third;
  db.ExecuteQuery(q, &third);
  EXPECT_EQ(third.partitions_decoded, 1u);
}

TEST(ScanPlanCacheTest, LruCapAndEvictionCount) {
  ScanPlanCache cache(4);
  auto entry = [] { return std::make_shared<const ScanPlanCache::Entry>(); };
  for (int i = 0; i < 10; ++i) {
    cache.Insert("key" + std::to_string(i), entry());
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // The four newest keys survive; Find refreshes recency.
  EXPECT_NE(cache.Find("key9"), nullptr);
  EXPECT_NE(cache.Find("key6"), nullptr);
  EXPECT_EQ(cache.Find("key5"), nullptr);
  // key6 was just touched: inserting one more evicts key7 (the oldest
  // untouched), not key6.
  cache.Insert("fresh", entry());
  EXPECT_NE(cache.Find("key6"), nullptr);
  EXPECT_EQ(cache.Find("key7"), nullptr);
  // Inserting an existing key keeps the canonical entry and evicts nothing.
  uint64_t before = cache.evictions();
  auto canonical = cache.Find("key9");
  EXPECT_EQ(cache.Insert("key9", entry()), canonical);
  EXPECT_EQ(cache.evictions(), before);
}

}  // namespace
}  // namespace aiql
