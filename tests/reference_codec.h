// Reference integer codec: the archive tier's format oracle. It encodes one
// value at a time through a growing bit writer and decodes one value at a
// time with a straddling read, so the word layout falls out of the writer's
// mechanics rather than from a planned size: every block starts word-aligned
// at the current end of the word array, an append grows the array to two
// words past the word it writes into, and only the trailing unused word of
// the whole column is dropped at the end. It shares no code with the
// width-specialized kernels in src/storage/encoding.cc, which must produce
// exactly its EncodedInts (codec, block directory and words) and decode its
// values.
#ifndef AIQL_TESTS_REFERENCE_CODEC_H_
#define AIQL_TESTS_REFERENCE_CODEC_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/encoding.h"

namespace aiql::reference {

inline uint64_t CodecMask(uint8_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

inline uint8_t CodecBitsNeeded(uint64_t x) {
  return static_cast<uint8_t>(x == 0 ? 0 : 64 - std::countl_zero(x));
}

// Fixed-width read at an absolute bit offset; values may straddle word pairs.
inline uint64_t ReadBits(const uint64_t* words, uint64_t bit, uint8_t width) {
  if (width == 0) {
    return 0;
  }
  const size_t word = static_cast<size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  uint64_t v = words[word] >> off;
  if (off + width > 64) {
    v |= words[word + 1] << (64 - off);
  }
  return v & CodecMask(width);
}

// Appends fixed-width values to a word vector, one block at a time.
class BitWriter {
 public:
  explicit BitWriter(std::vector<uint64_t>* words) : words_(words) {}

  uint64_t BeginBlock() {
    bit_ = words_->size() * 64;
    return words_->size();
  }

  void Append(uint64_t v, uint8_t width) {
    if (width == 0) {
      return;
    }
    v &= CodecMask(width);
    const size_t word = static_cast<size_t>(bit_ >> 6);
    const unsigned off = static_cast<unsigned>(bit_ & 63);
    if (words_->size() <= word + 1) {
      words_->resize(word + 2, 0);
    }
    (*words_)[word] |= v << off;
    if (off + width > 64) {
      (*words_)[word + 1] |= v >> (64 - off);
    }
    bit_ += width;
  }

  // Drops a trailing all-zero spare word the resize in Append may have left.
  void Finish() {
    const size_t used = static_cast<size_t>((bit_ + 63) / 64);
    if (words_->size() > used) {
      words_->resize(used);
    }
  }

 private:
  std::vector<uint64_t>* words_;
  uint64_t bit_ = 0;
};

inline EncodedInts EncodeInts(const int64_t* v, size_t n, IntCodec codec) {
  auto u = [](int64_t x) { return static_cast<uint64_t>(x); };
  auto s = [](uint64_t x) { return static_cast<int64_t>(x); };
  EncodedInts e;
  e.codec = codec;
  e.count = static_cast<uint32_t>(n);
  BitWriter writer(&e.words);
  for (size_t lo = 0; lo < n; lo += kEncodingBlock) {
    const size_t m = std::min(kEncodingBlock, n - lo);
    EncodedInts::Block b;
    b.word_offset = writer.BeginBlock();
    b.first = v[lo];
    if (codec == IntCodec::kFor) {
      int64_t mn = v[lo], mx = v[lo];
      for (size_t i = 1; i < m; ++i) {
        mn = std::min(mn, v[lo + i]);
        mx = std::max(mx, v[lo + i]);
      }
      b.base = mn;
      b.width = CodecBitsNeeded(u(mx) - u(mn));
      for (size_t i = 0; i < m; ++i) {
        writer.Append(u(v[lo + i]) - u(mn), b.width);
      }
    } else if (m > 1) {
      int64_t mn = s(u(v[lo + 1]) - u(v[lo]));
      int64_t mx = mn;
      for (size_t i = 2; i < m; ++i) {
        const int64_t d = s(u(v[lo + i]) - u(v[lo + i - 1]));
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
      b.base = mn;
      b.width = CodecBitsNeeded(u(mx) - u(mn));
      for (size_t i = 1; i < m; ++i) {
        const int64_t d = s(u(v[lo + i]) - u(v[lo + i - 1]));
        writer.Append(u(d) - u(mn), b.width);
      }
    }
    e.blocks.push_back(b);
  }
  writer.Finish();
  return e;
}

// Encodes with both codecs and keeps the smaller; FOR wins a tie.
inline EncodedInts EncodeIntsAdaptive(const int64_t* v, size_t n) {
  EncodedInts plain = reference::EncodeInts(v, n, IntCodec::kFor);
  EncodedInts delta = reference::EncodeInts(v, n, IntCodec::kDeltaFor);
  return delta.EncodedBytes() < plain.EncodedBytes() ? delta : plain;
}

inline void DecodeInts(const EncodedInts& e, int64_t* out) {
  for (size_t blk = 0; blk < e.blocks.size(); ++blk) {
    const EncodedInts::Block& b = e.blocks[blk];
    const size_t lo = blk * kEncodingBlock;
    const size_t m = std::min(kEncodingBlock, static_cast<size_t>(e.count) - lo);
    const uint64_t base = static_cast<uint64_t>(b.base);
    uint64_t bit = b.word_offset * 64;
    if (e.codec == IntCodec::kFor) {
      for (size_t i = 0; i < m; ++i) {
        out[lo + i] = static_cast<int64_t>(base + ReadBits(e.words.data(), bit, b.width));
        bit += b.width;
      }
    } else {
      uint64_t prev = static_cast<uint64_t>(b.first);
      out[lo] = static_cast<int64_t>(prev);
      for (size_t i = 1; i < m; ++i) {
        prev += base + ReadBits(e.words.data(), bit, b.width);
        bit += b.width;
        out[lo + i] = static_cast<int64_t>(prev);
      }
    }
  }
}

}  // namespace aiql::reference

#endif  // AIQL_TESTS_REFERENCE_CODEC_H_
