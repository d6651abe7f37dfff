#include "src/storage/scan_kernels.h"

#include <algorithm>

namespace aiql {

std::optional<DenseBitmap> TranslateCandidates(std::span<const uint32_t> sorted,
                                               uint32_t zone_min, uint32_t zone_max,
                                               size_t partition_rows) {
  if (sorted.size() <= kSmallSetProbe || zone_min > zone_max) {
    return std::nullopt;
  }
  // A bitmap saves one binary search per scanned row; a set far larger than
  // the partition is left to the sorted kernel.
  if (sorted.size() > 4 * partition_rows) {
    return std::nullopt;
  }
  const uint64_t span = uint64_t{zone_max} - zone_min + 1;
  // Affordability: zeroing `span` bits must stay small against the rows whose
  // probes the bitmap accelerates. The floor keeps dense entity spaces (the
  // common case: catalog indexes are allocated contiguously) always eligible.
  const uint64_t cap = std::max<uint64_t>(1u << 16, 16 * static_cast<uint64_t>(partition_rows));
  if (span > cap || span > UINT32_MAX) {
    return std::nullopt;
  }
  DenseBitmap bitmap(zone_min, static_cast<uint32_t>(span));
  for (auto it = std::lower_bound(sorted.begin(), sorted.end(), zone_min);
       it != sorted.end() && *it <= zone_max; ++it) {
    bitmap.Set(*it);
  }
  return bitmap;
}

}  // namespace aiql
