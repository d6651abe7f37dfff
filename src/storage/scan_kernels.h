// Branch-free selection kernels for the columnar vectorized scan.
//
// Every kernel compacts a selection vector in place against one column slab
// and returns the surviving count. They all share one shape:
//
//   sel[w] = sel[i];            // store the row id unconditionally
//   w += predicate(sel[i]);     // advance the write cursor by 0 or 1
//
// There is no per-element branch, so a 50%-selective filter costs the same as
// a 1%-selective one (no mispredictions), and the comparison itself is a
// tight typed loop over contiguous data that the compiler can unroll and
// auto-vectorize. This replaces the per-row lambda dispatch the scan
// previously funneled through a generic FilterSel template.
//
// Every set a membership kernel probes is an ascending, duplicate-free array.
// Probes come in three strengths, chosen per partition:
//   - SelectBitmap: one bit test per row against a DenseBitmap the planner
//     translated from the candidate set over the partition's index range;
//   - SelectSmallSet: an OR over <= kSmallSetProbe equality tests against
//     the array (no search, no pointer chase);
//   - SelectSorted: a binary search of the array, for large sets with no
//     affordable bitmap.
#ifndef AIQL_SRC_STORAGE_SCAN_KERNELS_H_
#define AIQL_SRC_STORAGE_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/storage/predicate.h"

namespace aiql {

// Sets of up to this many values take the flat-array probe (SelectSmallSet).
inline constexpr size_t kSmallSetProbe = 8;

// Dense bitmap over the contiguous index interval [base, base+span). The
// planner builds one per (partition, candidate set) pair — candidate values
// inside the partition's zone min/max range become set bits — so the per-row
// probe in the scan is a single bit test. Probing values outside the interval
// is the caller's bug: partitions guarantee every stored index lies inside
// their zone range, which is exactly the interval the planner allocates.
class DenseBitmap {
 public:
  DenseBitmap(uint32_t base, uint32_t span)
      : base_(base), span_(span), words_((static_cast<size_t>(span) + 63) / 64, 0) {}

  uint32_t base() const { return base_; }
  uint32_t span() const { return span_; }
  bool Covers(uint32_t v) const { return v - base_ < span_; }

  void Set(uint32_t v) {
    uint32_t off = v - base_;
    words_[off >> 6] |= uint64_t{1} << (off & 63);
  }

  uint64_t Test(uint32_t v) const {
    uint32_t off = v - base_;
    return (words_[off >> 6] >> (off & 63)) & 1;
  }

 private:
  uint32_t base_ = 0;
  uint32_t span_ = 0;
  std::vector<uint64_t> words_;
};

// Translates an ascending candidate set into a dense bitmap over the zone
// index range [zone_min, zone_max] when affordable: the set must be beyond
// the flat-probe size (small sets take the SelectSmallSet kernel), and the
// range must be bounded relative to the partition's row count — the bitmap
// is zeroed once but pays off once per scanned row. Returns nullopt
// otherwise.
std::optional<DenseBitmap> TranslateCandidates(std::span<const uint32_t> sorted,
                                               uint32_t zone_min, uint32_t zone_max,
                                               size_t partition_rows);

namespace kernels {

// Generic compaction core; `pred` must be cheap and branchless for the
// kernels' guarantees to hold. Exposed for the residual row-at-a-time stage,
// whose predicate is anything but cheap — it still benefits from the shared
// compaction shape.
template <typename Pred>
inline size_t SelectIf(uint32_t* sel, size_t n, Pred pred) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(pred(r) ? 1 : 0);
  }
  return w;
}

template <typename T, typename Cmp>
inline size_t SelectCmpLoop(uint32_t* sel, size_t n, const T* col, int64_t value, Cmp cmp) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(cmp(static_cast<int64_t>(col[r]), value));
  }
  return w;
}

// col[row] <op> value for the six ordered/equality comparisons. The switch
// runs once per column, not once per row: each case is its own tight loop.
template <typename T>
inline size_t SelectCompare(uint32_t* sel, size_t n, const T* col, CmpOp op, int64_t value) {
  switch (op) {
    case CmpOp::kEq:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a == b; });
    case CmpOp::kNe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a != b; });
    case CmpOp::kLt:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a < b; });
    case CmpOp::kLe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a <= b; });
    case CmpOp::kGt:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a > b; });
    case CmpOp::kGe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a >= b; });
    default:
      // IN/NOT IN are handled by the membership kernels before reaching
      // here; anything else (LIKE on a numeric column) matches nothing —
      // the same answer ColumnFilter::Matches gives.
      return 0;
  }
}

// Keeps rows whose operation bit is set in `mask` (branch-free: shift the
// mask by the stored op ordinal).
template <typename OpT>
inline size_t SelectOpMask(uint32_t* sel, size_t n, const OpT* op_col, uint32_t mask) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>((mask >> static_cast<uint32_t>(op_col[r])) & 1u);
  }
  return w;
}

// Keeps rows whose column equals `want` (enum/int8 columns: object type).
template <typename T>
inline size_t SelectEq(uint32_t* sel, size_t n, const T* col, T want) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(col[r] == want);
  }
  return w;
}

// Dense-bitmap membership: one bit test per row. Every probed value must be
// covered by the bitmap's interval (see DenseBitmap).
template <typename T>
inline size_t SelectBitmap(uint32_t* sel, size_t n, const T* col, const DenseBitmap& bitmap) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(bitmap.Test(static_cast<uint32_t>(col[r])));
  }
  return w;
}

// Flat-array membership for sets of <= kSmallSetProbe values: an OR of k
// equality tests, no search. `negate` flips it into NOT IN.
template <typename T, typename V>
inline size_t SelectSmallSet(uint32_t* sel, size_t n, const T* col, const V* vals, size_t k,
                             bool negate) {
  const uint32_t flip = negate ? 1u : 0u;
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    const V v = static_cast<V>(col[r]);
    uint32_t hit = 0;
    for (size_t j = 0; j < k; ++j) {
      hit |= static_cast<uint32_t>(v == vals[j]);
    }
    sel[w] = r;
    w += static_cast<size_t>(hit ^ flip);
  }
  return w;
}

// Sorted-array membership for the k ascending, distinct `vals` (k >= 1) of a
// large set with no affordable bitmap: a binary search per row whose halving
// step is a conditional add, not a branch. `negate` flips it into NOT IN.
template <typename T, typename V>
inline size_t SelectSorted(uint32_t* sel, size_t n, const T* col, const V* vals, size_t k,
                           bool negate) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    const V v = static_cast<V>(col[r]);
    // If v is present it stays in [base, base + len).
    const V* base = vals;
    for (size_t len = k; len > 1;) {
      const size_t half = len / 2;
      base += base[half] <= v ? half : 0;
      len -= half;
    }
    sel[w] = r;
    w += static_cast<size_t>((*base == v) != negate);
  }
  return w;
}

}  // namespace kernels

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_SCAN_KERNELS_H_
