#include "src/storage/encoding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace aiql {
namespace {

// All arithmetic runs in uint64 with wrap-around, so the codecs are exact for
// the entire int64 domain: a delta of INT64_MAX - INT64_MIN does not fit in
// int64, but its mod-2^64 representation added back with wrap reproduces the
// original value bit-for-bit (C++20 guarantees two's complement).
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
int64_t S(uint64_t v) { return static_cast<int64_t>(v); }

uint8_t BitsNeeded(uint64_t x) {
  return static_cast<uint8_t>(x == 0 ? 0 : 64 - std::countl_zero(x));
}

constexpr uint64_t Mask(unsigned width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

// Value I of a 64-value group at width W: its word and bit offset are
// compile-time constants, and it reads the next word only if it straddles.
template <unsigned W, size_t I>
inline uint64_t Extract(const uint64_t* w) {
  constexpr size_t kWord = I * W / 64;
  constexpr unsigned kOff = I * W % 64;
  uint64_t v = w[kWord] >> kOff;
  if constexpr (kOff + W > 64) {
    v |= w[kWord + 1] << (64 - kOff);
  }
  return v & Mask(W);
}

template <unsigned W, size_t I>
inline void Deposit(uint64_t* w, uint64_t v) {
  constexpr size_t kWord = I * W / 64;
  constexpr unsigned kOff = I * W % 64;
  w[kWord] |= v << kOff;
  if constexpr (kOff + W > 64) {
    w[kWord + 1] |= v >> (64 - kOff);
  }
}

// One 64-value group: exactly W words in, 64 values out (and back). The
// group is staged in a local array so the unrolled body works in registers
// and `in`/`out` aliasing cannot force reloads.
template <unsigned W, size_t... I>
inline void Unpack64(const uint64_t* in, uint64_t* out, std::index_sequence<I...>) {
  uint64_t w[W] = {};
  std::memcpy(w, in, sizeof(w));
  ((out[I] = Extract<W, I>(w)), ...);
}

template <unsigned W, size_t... I>
inline void Pack64(const uint64_t* in, uint64_t* out, std::index_sequence<I...>) {
  uint64_t w[W] = {};
  (Deposit<W, I>(w, in[I]), ...);
  std::memcpy(out, w, sizeof(w));
}

// Scalar read at an absolute bit offset, for the < 64-value tail; a value
// straddling a word boundary reads the following word.
uint64_t ReadBits(const uint64_t* words, uint64_t bit, unsigned width) {
  const size_t word = static_cast<size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  uint64_t v = words[word] >> off;
  if (off + width > 64) {
    v |= words[word + 1] << (64 - off);
  }
  return v & Mask(width);
}

void WriteBits(uint64_t* words, uint64_t bit, unsigned width, uint64_t v) {
  const size_t word = static_cast<size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  words[word] |= v << off;
  if (off + width > 64) {
    words[word + 1] |= v >> (64 - off);
  }
}

template <unsigned W>
void UnpackKernel(const uint64_t* words, size_t n, uint64_t* out) {
  if constexpr (W == 0) {
    std::fill_n(out, n, uint64_t{0});
  } else {
    size_t i = 0;
    for (; i + 64 <= n; i += 64, words += W) {
      Unpack64<W>(words, out + i, std::make_index_sequence<64>{});
    }
    for (uint64_t bit = 0; i < n; ++i, bit += W) {
      out[i] = ReadBits(words, bit, W);
    }
  }
}

template <unsigned W>
void PackKernel(const uint64_t* in, size_t n, uint64_t* words) {
  if constexpr (W > 0) {
    size_t i = 0;
    for (; i + 64 <= n; i += 64, words += W) {
      Pack64<W>(in + i, words, std::make_index_sequence<64>{});
    }
    for (uint64_t bit = 0; i < n; ++i, bit += W) {
      WriteBits(words, bit, W, in[i]);
    }
  }
}

// Both tables map (from, n, to) at one width; index = bit width 0..64.
using Kernel = void (*)(const uint64_t*, size_t, uint64_t*);

template <size_t... W>
constexpr std::array<Kernel, sizeof...(W)> UnpackTable(std::index_sequence<W...>) {
  return {&UnpackKernel<W>...};
}
template <size_t... W>
constexpr std::array<Kernel, sizeof...(W)> PackTable(std::index_sequence<W...>) {
  return {&PackKernel<W>...};
}

constexpr auto kUnpackKernels = UnpackTable(std::make_index_sequence<65>{});
constexpr auto kPackKernels = PackTable(std::make_index_sequence<65>{});

// Packs in[0, n) (each value < 2^width) LSB-first from bit 0 of `words`: the
// mirror of UnpackBits. Whole 64-value groups overwrite their words; the
// tail ORs into words that must be zero.
void PackBits(const uint64_t* in, unsigned width, size_t n, uint64_t* words) {
  kPackKernels[width](in, n, words);
}

// Number of values a block packs: all m under FOR, the m - 1 deltas after the
// directory anchor under delta.
size_t PackedCount(IntCodec codec, size_t m) {
  return codec == IntCodec::kFor ? m : m - 1;
}

// Plans `codec` over v: every block's base, first value, width and
// word_offset under the spare-word layout rule, and in `*num_words` the
// column's total word count. Nothing is packed yet.
EncodedInts Plan(const int64_t* v, size_t n, IntCodec codec, size_t* num_words) {
  EncodedInts e;
  e.codec = codec;
  e.count = static_cast<uint32_t>(n);
  e.blocks.reserve((n + kEncodingBlock - 1) / kEncodingBlock);
  size_t words = 0;
  size_t last_end = 0;  // the final block's trimmed end, if it packs anything
  for (size_t lo = 0; lo < n; lo += kEncodingBlock) {
    const size_t m = std::min(kEncodingBlock, n - lo);
    EncodedInts::Block b;
    b.word_offset = words;
    b.first = v[lo];
    if (codec == IntCodec::kFor) {
      int64_t mn = v[lo], mx = v[lo];
      for (size_t i = 1; i < m; ++i) {
        mn = std::min(mn, v[lo + i]);
        mx = std::max(mx, v[lo + i]);
      }
      b.base = mn;
      b.width = BitsNeeded(U(mx) - U(mn));
    } else if (m > 1) {
      int64_t mn = S(U(v[lo + 1]) - U(v[lo]));
      int64_t mx = mn;
      for (size_t i = 2; i < m; ++i) {
        const int64_t d = S(U(v[lo + i]) - U(v[lo + i - 1]));
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
      b.base = mn;
      b.width = BitsNeeded(U(mx) - U(mn));
    }
    const size_t k = PackedCount(codec, m);
    last_end = 0;
    if (k > 0 && b.width > 0) {
      // Spare-word rule: one word past the word of the last value's first bit.
      words += (k - 1) * b.width / 64 + 2;
      last_end = b.word_offset + (k * b.width + 63) / 64;
    }
    e.blocks.push_back(b);
  }
  *num_words = last_end > 0 ? last_end : words;
  return e;
}

// Packs v into `num_words` zeroed words, block by block, as planned.
void Pack(const int64_t* v, size_t num_words, EncodedInts* e) {
  e->words.assign(num_words, 0);
  uint64_t packed[kEncodingBlock];  // each block fills the k entries it packs
  for (size_t blk = 0; blk < e->blocks.size(); ++blk) {
    const EncodedInts::Block& b = e->blocks[blk];
    const size_t lo = blk * kEncodingBlock;
    const size_t m = std::min(kEncodingBlock, static_cast<size_t>(e->count) - lo);
    const size_t k = PackedCount(e->codec, m);
    if (k == 0 || b.width == 0) {
      continue;
    }
    const uint64_t base = U(b.base);
    if (e->codec == IntCodec::kFor) {
      for (size_t i = 0; i < m; ++i) {
        packed[i] = U(v[lo + i]) - base;
      }
    } else {
      for (size_t i = 1; i < m; ++i) {
        packed[i - 1] = U(v[lo + i]) - U(v[lo + i - 1]) - base;
      }
    }
    PackBits(packed, b.width, k, e->words.data() + b.word_offset);
  }
}

}  // namespace

void UnpackBits(const uint64_t* words, unsigned width, size_t n, uint64_t* out) {
  kUnpackKernels[width](words, n, out);
}

const char* IntCodecName(IntCodec codec) {
  switch (codec) {
    case IntCodec::kFor:
      return "for";
    case IntCodec::kDeltaFor:
      return "delta-for";
  }
  return "?";
}

EncodedInts EncodeInts(const int64_t* v, size_t n, IntCodec codec) {
  size_t num_words = 0;
  EncodedInts e = Plan(v, n, codec, &num_words);
  Pack(v, num_words, &e);
  return e;
}

EncodedInts EncodeIntsAdaptive(const int64_t* v, size_t n) {
  size_t plain_words = 0;
  size_t delta_words = 0;
  EncodedInts plain = Plan(v, n, IntCodec::kFor, &plain_words);
  EncodedInts delta = Plan(v, n, IntCodec::kDeltaFor, &delta_words);
  // Both directories have one entry per block, so the smaller encoding is the
  // one with fewer words; delta wins only when strictly smaller.
  if (delta_words < plain_words) {
    Pack(v, delta_words, &delta);
    return delta;
  }
  Pack(v, plain_words, &plain);
  return plain;
}

void DecodeInts(const EncodedInts& e, int64_t* out) { DecodeIntsInto(e, out); }

EncodedStrings EncodeStrings(const std::vector<std::string>& v) {
  EncodedStrings e;
  e.count = static_cast<uint32_t>(v.size());
  std::unordered_map<std::string, uint32_t> dict;
  std::vector<int64_t> codes(v.size());
  e.offsets.push_back(0);
  for (size_t i = 0; i < v.size(); ++i) {
    auto [it, inserted] = dict.emplace(v[i], static_cast<uint32_t>(dict.size()));
    if (inserted) {
      e.heap.insert(e.heap.end(), v[i].begin(), v[i].end());
      e.offsets.push_back(static_cast<uint32_t>(e.heap.size()));
    }
    codes[i] = it->second;
  }
  e.codes = EncodeIntsAdaptive(codes.data(), codes.size());
  return e;
}

void DecodeStrings(const EncodedStrings& e, std::vector<std::string>* out) {
  std::vector<int64_t> codes(e.count);
  DecodeInts(e.codes, codes.data());
  out->clear();
  out->reserve(e.count);
  for (int64_t c : codes) {
    const uint32_t lo = e.offsets[static_cast<size_t>(c)];
    const uint32_t hi = e.offsets[static_cast<size_t>(c) + 1];
    out->emplace_back(e.heap.data() + lo, hi - lo);
  }
}

}  // namespace aiql
