// Register-blocked ("split-block") bloom filter for zone-map entity
// summaries.
//
// Each key sets 8 bits inside one 32-byte block (one bit per 32-bit lane), so
// a membership probe touches a single cache line and compiles to eight
// unpredicated shift/test pairs. At the default sizing (~4 bytes/key) the
// false-positive rate is well under 1%; false negatives are impossible. This
// is the Parquet/Impala split-block design, specialized to the fixed-width
// entity keys of the zone map (subject catalog indexes and packed
// (type, object-index) keys).
//
// Each partition's zone map holds one filter per entity side (built at Finalize);
// Partition::CanMatch probes them with pushed-down candidate sets to skip
// partitions that share an index *range* with the candidates but none of the
// actual values — the case min/max summaries cannot catch.
#ifndef AIQL_SRC_STORAGE_BLOOM_H_
#define AIQL_SRC_STORAGE_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aiql {

class BlockedBloom {
 public:
  // Sizes the filter for `expected_keys` distinct keys (~4 bytes each,
  // power-of-two block count). A default-constructed or zero-sized filter is
  // empty() and must be treated as "no information" by callers.
  void Build(size_t expected_keys) {
    size_t blocks = 1;
    while (blocks * kKeysPerBlock < expected_keys) {
      blocks <<= 1;
    }
    blocks_.assign(blocks, Block{});
    block_mask_ = static_cast<uint32_t>(blocks - 1);
  }

  bool empty() const { return blocks_.empty(); }
  size_t num_blocks() const { return blocks_.size(); }

  void Add(uint64_t key) {
    uint64_t h = Mix(key);
    Block& b = blocks_[static_cast<uint32_t>(h >> 32) & block_mask_];
    uint32_t salt_base = static_cast<uint32_t>(h);
    for (int i = 0; i < kLanes; ++i) {
      b.lanes[i] |= 1u << ((salt_base * kSalts[i]) >> 27);
    }
  }

  // True when `key` may have been added; false proves it was not. Returns
  // true for an empty (unbuilt) filter.
  bool MayContain(uint64_t key) const {
    if (blocks_.empty()) {
      return true;
    }
    uint64_t h = Mix(key);
    const Block& b = blocks_[static_cast<uint32_t>(h >> 32) & block_mask_];
    uint32_t salt_base = static_cast<uint32_t>(h);
    uint32_t all = 1;
    for (int i = 0; i < kLanes; ++i) {
      all &= b.lanes[i] >> ((salt_base * kSalts[i]) >> 27);
    }
    return (all & 1) != 0;
  }

 private:
  static constexpr int kLanes = 8;
  // Target load: one 32-byte block per 8 keys (~4 bytes/key).
  static constexpr size_t kKeysPerBlock = 8;
  // Odd multipliers from the Parquet split-block bloom specification; each
  // lane derives an independent bit position from the low hash word.
  static constexpr uint32_t kSalts[kLanes] = {0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
                                              0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};

  struct Block {
    uint32_t lanes[kLanes] = {};
  };

  // splitmix64 finalizer: entity keys are small dense integers, so the raw
  // value cannot pick blocks or bits directly.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::vector<Block> blocks_;
  uint32_t block_mask_ = 0;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_BLOOM_H_
