// Lightweight columnar compression codecs for the archive partition tier
// (ROADMAP: "Compressed archive partitions").
//
// AIQL's event columns are time-ordered and near-monotonic: start_time is
// sorted within a partition, ids and sequence numbers grow almost linearly,
// and the categorical columns (op, object_type, agent_id, entity indexes)
// live in narrow value ranges. Two integer codecs cover those shapes:
//
//   kFor       frame-of-reference: each block stores its minimum and packs
//              (v - min) at the block's exact bit width. Narrow-domain
//              columns (op: 4 bits, agent ids, entity indexes) collapse to
//              a few bits per value.
//   kDeltaFor  delta + FOR over the deltas: sorted or near-monotonic
//              columns (start_time, id, seq) have tiny deltas, so the
//              packed width approaches log2(typical gap). The FOR base is
//              the block's minimum delta, so occasional negative deltas
//              (equal-timestamp rows replayed with descending ids) merely
//              widen the frame slightly instead of blowing it up — no
//              zigzag transform is involved.
//
// Layout. A column is a directory of kEncodingBlock-value blocks over one
// word array. Each block packs its values LSB-first at one width, starting
// word-aligned at its word_offset, so blocks are independently addressable.
// A block that packs at least one bit ends one word past the word holding
// its last value's first bit (a spare, all-zero word when the last value
// does not straddle); only the column's final block is trimmed to the words
// its bits touch. That spare-word rule is part of the format: the word array
// is byte-identical to the original per-value writer's
// (tests/reference_codec.h pins it).
//
// Kernels. 64 values of W bits fill exactly W words, so packing and
// unpacking run a table of 65 width-specialized kernels (W = 0..64), each
// moving 64 values per step with compile-time shifts only and never touching
// a word outside its W. A block's tail shorter than 64 values goes through
// the scalar straddling read/write. DecodeIntsInto unpacks a block into a
// 1024-entry stack buffer, then adds the FOR base (or runs the delta prefix
// sum) into the typed column.
//
// Codec choice. EncodeIntsAdaptive plans both codecs' per-block base and
// width in one pass each, keeps the one with fewer packed words (delta only
// when strictly smaller), and packs once — per column, per partition, no
// tuning knob. The archive tier decodes whole columns on demand (see
// partition.h).

#ifndef AIQL_SRC_STORAGE_ENCODING_H_
#define AIQL_SRC_STORAGE_ENCODING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aiql {

inline constexpr size_t kEncodingBlock = 1024;

enum class IntCodec : uint8_t {
  kFor = 0,       // FOR bit-packing of raw values
  kDeltaFor = 1,  // FOR bit-packing of consecutive deltas (min-delta base)
};

const char* IntCodecName(IntCodec codec);

// One encoded integer column. Values are recovered exactly (the codecs are
// lossless for the full int64 range, including INT64_MIN/MAX).
struct EncodedInts {
  struct Block {
    int64_t base = 0;          // FOR base: min value (kFor) or min delta (kDeltaFor)
    int64_t first = 0;         // first decoded value of the block (delta anchor)
    uint64_t word_offset = 0;  // this block's packed words start at words[word_offset]
    uint8_t width = 0;         // bits per packed value (0 = all values equal base)
  };

  IntCodec codec = IntCodec::kFor;
  uint32_t count = 0;
  std::vector<Block> blocks;
  std::vector<uint64_t> words;

  size_t EncodedBytes() const {
    return sizeof(EncodedInts) + blocks.size() * sizeof(Block) + words.size() * sizeof(uint64_t);
  }
};

EncodedInts EncodeInts(const int64_t* v, size_t n, IntCodec codec);
// Plans both codecs and packs whichever needs fewer words (FOR on a tie).
EncodedInts EncodeIntsAdaptive(const int64_t* v, size_t n);

// Unpacks n consecutive `width`-bit values (width 0..64) that start at bit 0
// of `words` into out[0, n). Dispatches to the width's kernel.
void UnpackBits(const uint64_t* words, unsigned width, size_t n, uint64_t* out);

// Decodes the full column directly into `out` (room for e.count values of any
// integer/enum type) — the archive tier's per-column decode path, templated
// so narrow columns skip a widened int64 detour.
template <typename T>
void DecodeIntsInto(const EncodedInts& e, T* out) {
  // Left uninitialised on purpose: every block's UnpackBits writes exactly the
  // entries read after it, and zeroing 8 KB per column measurably slows the
  // archive decode.
  uint64_t packed[kEncodingBlock];
  for (size_t blk = 0; blk < e.blocks.size(); ++blk) {
    const EncodedInts::Block& b = e.blocks[blk];
    const size_t lo = blk * kEncodingBlock;
    const size_t m = std::min(kEncodingBlock, static_cast<size_t>(e.count) - lo);
    const uint64_t* words = e.words.data() + b.word_offset;
    const uint64_t base = static_cast<uint64_t>(b.base);
    T* dst = out + lo;
    if (b.width == 0 && e.codec == IntCodec::kFor) {
      std::fill_n(dst, m, static_cast<T>(base));  // a constant block
    } else if (e.codec == IntCodec::kFor) {
      UnpackBits(words, b.width, m, packed);
      for (size_t i = 0; i < m; ++i) {
        dst[i] = static_cast<T>(base + packed[i]);
      }
    } else {
      // The first value anchors in the directory; m - 1 deltas are packed.
      UnpackBits(words, b.width, m - 1, packed);
      uint64_t prev = static_cast<uint64_t>(b.first);
      dst[0] = static_cast<T>(prev);
      for (size_t i = 1; i < m; ++i) {
        prev += base + packed[i - 1];
        dst[i] = static_cast<T>(prev);
      }
    }
  }
}

void DecodeInts(const EncodedInts& e, int64_t* out);

// Typed column convenience wrappers: values round-trip through int64 (every
// event column type is a narrower integer or enum).
template <typename T, typename Alloc>
EncodedInts EncodeColumn(const std::vector<T, Alloc>& v) {
  std::vector<int64_t> widened(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    widened[i] = static_cast<int64_t>(v[i]);
  }
  return EncodeIntsAdaptive(widened.data(), widened.size());
}

// With a default-init allocator (EventColumns), the resize leaves the column
// uninitialised: the decode writes every value.
template <typename T, typename Alloc>
void DecodeColumn(const EncodedInts& e, std::vector<T, Alloc>* out) {
  out->resize(e.count);
  DecodeIntsInto(e, out->data());
}

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENCODING_H_
