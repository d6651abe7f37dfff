// Dense ids for keys in an open-addressing hash: the compiled projector's
// value table (interned strings) and its dedupe hash (fixed-width packed
// keys). Ids are 0, 1, 2, ... in first-insertion order; nothing is erased.
// Tables start empty and grow with the keys inserted, so a projection over a
// few rows allocates a few slots, never a catalog-sized array.
#ifndef AIQL_SRC_UTIL_FLAT_INDEX_H_
#define AIQL_SRC_UTIL_FLAT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace aiql {

// The slots of an open-addressing table over dense ids. The owner stores the
// keys; the index stores each id's hash (to probe and to rehash). A hash's
// high bits pick its first slot.
class IdIndex {
 public:
  // The id whose key has hash `h` and satisfies `same(id)`; when there is
  // none, assigns the next id (size()) and sets *fresh.
  template <typename Same>
  uint32_t FindOrAdd(uint64_t h, Same same, bool* fresh) {
    if (2 * (hashes_.size() + 1) > slots_.size()) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = h >> shift_;; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) {
        const uint32_t id = static_cast<uint32_t>(hashes_.size());
        slots_[i] = id + 1;
        hashes_.push_back(h);
        *fresh = true;
        return id;
      }
      if (hashes_[s - 1] == h && same(s - 1)) {
        *fresh = false;
        return s - 1;
      }
    }
  }

  size_t size() const { return hashes_.size(); }

 private:
  void Grow() {
    std::vector<uint32_t> slots(slots_.empty() ? 16 : 2 * slots_.size(), 0);
    shift_ = slots_.empty() ? 60 : shift_ - 1;
    const size_t mask = slots.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] >> shift_;
      while (slots[i] != 0) {
        i = (i + 1) & mask;
      }
      slots[i] = id + 1;
    }
    slots_.swap(slots);
  }

  std::vector<uint64_t> hashes_;  // per id
  std::vector<uint32_t> slots_;   // id + 1; 0 = empty
  int shift_ = 64;                // 64 - log2(slots_.size())
};


// Keys of `width` 64-bit words, compared bit for bit.
class FlatKeyTable {
 public:
  explicit FlatKeyTable(size_t width) : width_(width) {}

  // The id of `key` (width() words), inserting it when new.
  uint32_t Insert(const uint64_t* key, bool* fresh) {
    // Multiply-rotate (FxHash): cheap, and the multiply carries every key
    // bit into the high bits IdIndex probes by.
    uint64_t h = 0;
    for (size_t w = 0; w < width_; ++w) {
      h = (std::rotl(h, 5) ^ key[w]) * 0x517cc1b727220a95ULL;
    }
    const uint32_t id = index_.FindOrAdd(
        h, [&](uint32_t id) { return std::equal(key, key + width_, Key(id)); }, fresh);
    if (*fresh) {
      keys_.insert(keys_.end(), key, key + width_);
    }
    return id;
  }

  size_t size() const { return index_.size(); }

 private:
  const uint64_t* Key(uint32_t id) const { return keys_.data() + id * width_; }

  size_t width_;
  std::vector<uint64_t> keys_;  // id * width_
  IdIndex index_;
};

// Interned strings: one id and one stable address per distinct string.
class StringTable {
 public:
  // The id of `s`, interning a copy when new; At(id) stays valid for the
  // table's lifetime.
  uint32_t Intern(std::string_view s) {
    bool fresh = false;
    const uint32_t id = index_.FindOrAdd(
        std::hash<std::string_view>{}(s), [&](uint32_t id) { return strings_[id] == s; },
        &fresh);
    if (fresh) {
      strings_.emplace_back(s);
    }
    return id;
  }

  const std::string& At(uint32_t id) const { return strings_[id]; }

 private:
  std::deque<std::string> strings_;  // stable addresses
  IdIndex index_;
};

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_FLAT_INDEX_H_
