#include "src/storage/posting_index.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace aiql {
namespace {

// Widest radix digit: 2^11 counters (8 KiB) stay in L1 beside the rows.
constexpr int kMaxDigitBits = 11;

// Row numbers 0..n-1 ordered by dense[row], every key `bits` wide. An LSD
// radix sort over digits of near-equal width: each pass is stable, so rows of
// equal keys keep their ascending order.
std::vector<uint32_t> RowsByKey(const std::vector<uint64_t>& dense, int bits) {
  const size_t n = dense.size();
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  if (bits == 0) {
    return rows;
  }
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int width = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::vector<uint32_t> count(size_t{1} << width);
  std::vector<uint32_t> next(n);
  for (int shift = 0; shift < bits; shift += width) {
    std::fill(count.begin(), count.end(), 0u);
    for (uint32_t r : rows) {
      ++count[(dense[r] >> shift) & mask];
    }
    uint32_t start = 0;
    for (uint32_t& c : count) {
      const uint32_t k = c;
      c = start;
      start += k;
    }
    for (uint32_t r : rows) {
      next[count[(dense[r] >> shift) & mask]++] = r;
    }
    rows.swap(next);
  }
  return rows;
}

// The index of `n` rows whose stored keys are key_of(row). dense_of(row) is an
// order-preserving image of the key that fits in `bits` bits: the radix sort
// runs over it.
template <typename DenseFn, typename KeyFn>
PostingIndex Build(size_t n, int bits, DenseFn dense_of, KeyFn key_of, bool with_rows) {
  std::vector<uint64_t> dense(n);
  for (size_t r = 0; r < n; ++r) {
    dense[r] = dense_of(r);
  }
  std::vector<uint32_t> rows = RowsByKey(dense, bits);
  PostingIndex index;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || dense[rows[i]] != dense[rows[i - 1]]) {
      index.keys.push_back(key_of(rows[i]));
      if (with_rows) {
        index.offsets.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  index.keys.shrink_to_fit();
  if (with_rows) {
    index.offsets.push_back(static_cast<uint32_t>(n));
    index.offsets.shrink_to_fit();
    index.rows = std::move(rows);
  }
  return index;
}

}  // namespace

PostingIndex PostingIndex::Subjects(const EventColumns& cols, bool with_rows) {
  const auto& idx = cols.subject_idx;
  if (idx.empty()) {
    return {};
  }
  const auto [lo, hi] = std::minmax_element(idx.begin(), idx.end());
  const uint32_t base = *lo;
  return Build(
      idx.size(), static_cast<int>(std::bit_width(*hi - base)),
      [&](size_t r) -> uint64_t { return idx[r] - base; },
      [&](size_t r) -> uint64_t { return idx[r]; }, with_rows);
}

PostingIndex PostingIndex::Objects(const EventColumns& cols, bool with_rows) {
  const auto& idx = cols.object_idx;
  const auto& type = cols.object_type;
  if (idx.empty()) {
    return {};
  }
  // (type, idx - base) orders exactly as the packed key (type, idx) does, in
  // as few bits as the partition's index range needs.
  const auto [lo, hi] = std::minmax_element(idx.begin(), idx.end());
  const uint32_t base = *lo;
  const int idx_bits = static_cast<int>(std::bit_width(*hi - base));
  const auto max_type = static_cast<uint32_t>(*std::max_element(type.begin(), type.end()));
  return Build(
      idx.size(), idx_bits + static_cast<int>(std::bit_width(max_type)),
      [&](size_t r) -> uint64_t {
        return (static_cast<uint64_t>(type[r]) << idx_bits) | (idx[r] - base);
      },
      [&](size_t r) { return PackObjectKey(type[r], idx[r]); }, with_rows);
}

std::span<const uint32_t> PostingIndex::Find(uint64_t key) const {
  if (rows.empty()) {
    return {};
  }
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) {
    return {};
  }
  const size_t k = static_cast<size_t>(it - keys.begin());
  return {rows.data() + offsets[k], rows.data() + offsets[k + 1]};
}

}  // namespace aiql
