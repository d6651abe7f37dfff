// Per-partition posting lists in CSR form, the analogue of the paper's
// per-attribute B-tree indexes (§3.2): for one entity side of a partition,
// the distinct keys ascending and, for keys[k], the partition rows holding it,
// ascending, in rows[offsets[k], offsets[k + 1]). Three flat arrays replace a
// hash map of vectors: no per-key node or vector header, and one allocation
// per array.
//
// One stable radix sort of the row numbers by key builds each side. Its key
// array doubles as the zone map's distinct-key set for that side's entity
// bloom (ZoneMap's constructor), so Finalize sorts each entity column once.
#ifndef AIQL_SRC_STORAGE_POSTING_INDEX_H_
#define AIQL_SRC_STORAGE_POSTING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/storage/event_view.h"

namespace aiql {

// Object entity references are type-scoped: postings, blooms, and probes key
// on the (type, index) pair packed into one word.
inline uint64_t PackObjectKey(EntityType t, uint32_t idx) {
  return (static_cast<uint64_t>(t) << 32) | idx;
}

struct PostingIndex {
  std::vector<uint64_t> keys;     // distinct keys, ascending
  std::vector<uint32_t> offsets;  // keys.size() + 1 entries; empty without rows
  std::vector<uint32_t> rows;     // each key's rows, ascending; empty without rows

  // The subject side of `cols` (keys: subject catalog indices) and the object
  // side (keys: PackObjectKey(object_type, object_idx)). Without `with_rows`
  // only the distinct keys are kept (a store built without secondary indexes
  // still needs them for its blooms).
  static PostingIndex Subjects(const EventColumns& cols, bool with_rows);
  static PostingIndex Objects(const EventColumns& cols, bool with_rows);

  // The rows holding `key`, ascending; empty when no row does or the rows
  // were not kept.
  std::span<const uint32_t> Find(uint64_t key) const;

  // Resident bytes of the three arrays (their capacities).
  size_t Bytes() const {
    return keys.capacity() * sizeof(uint64_t) +
           (offsets.capacity() + rows.capacity()) * sizeof(uint32_t);
  }
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_POSTING_INDEX_H_
