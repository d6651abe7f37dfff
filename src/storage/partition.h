// A storage partition: one (day, agent-group) shard of the event table
// (paper §3.2 "Time and Space Partitioning").
//
// Events are appended straight into a structure-of-arrays layout
// (EventColumns). Finalize() sorts a (start_time, id, row) key array, gathers
// every column into that order (time-range scans are then binary searches),
// and builds per-entity posting lists (CSR; see posting_index.h), the
// analogue of the paper's per-attribute B-tree indexes, and a zone map
// (min/max per column, op mask, agent set, entity blooms over the posting
// keys) from the columns, so Database::ExecuteQuery can skip whole partitions
// before touching any column. Queries run a vectorized scan that evaluates
// one column at a time over a shrinking selection vector and emits EventViews
// without materializing Event copies.
#ifndef AIQL_SRC_STORAGE_PARTITION_H_
#define AIQL_SRC_STORAGE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/storage/data_query.h"
#include "src/storage/encoding.h"
#include "src/storage/entity.h"
#include "src/storage/event.h"
#include "src/storage/event_view.h"
#include "src/storage/posting_index.h"
#include "src/storage/scan_kernels.h"
#include "src/storage/zone_map.h"
#include "src/util/lru_cache.h"

namespace aiql {

// --- archive tier ------------------------------------------------------------
//
// Cold partitions trade decoded columns for delta/FOR-encoded ones
// (ArchivedColumns) after Database::Finalize applies the archive policy.
// Everything above the column-access seam is unchanged: zone maps, entity
// blooms, and posting lists stay resident, so CanMatch prunes archived
// partitions without touching a single encoded byte, and the vectorized scan
// kernels run over decoded columns exactly as over hot ones. Only a partition
// that survives pruning decodes — per column, on demand, through the
// database's DecodeCache — and only the columns its filters and its query's
// consumers (DataQuery::columns) read.

// The delta/FOR re-encoding of one partition's EventColumns (codec choice is
// adaptive per column; see encoding.h).
struct ArchivedColumns {
  uint32_t count = 0;
  EncodedInts cols[kNumEventColumns];

  size_t EncodedBytes() const {
    size_t total = 0;
    for (const EncodedInts& c : cols) {
      total += c.EncodedBytes();
    }
    return total;
  }
};

ArchivedColumns EncodeEventColumns(const EventColumns& cols);

class Partition;

// Decode state of one archived partition: columns decompress individually, on
// first use, into an EventColumns whose vectors are written exactly once and
// never reallocate — EventViews emitted from a scan point into them, so their
// addresses must be stable for as long as the entry is alive (cache-resident
// or pinned; see ColumnPins). Thread-safe: concurrent scan workers race to
// Ensure the same columns and the mutex serializes the decodes.
class DecodedPartition {
 public:
  explicit DecodedPartition(const ArchivedColumns* src) : src_(src) {}

  // Decodes every column in `mask` not yet decoded; returns the columns.
  // Byte counters accrue into `stats` for newly decoded columns only. The
  // other columns of the result stay empty until some caller ensures them.
  const EventColumns* Ensure(EventColumnMask mask, ScanStats* stats);

 private:
  const ArchivedColumns* src_;
  std::mutex mu_;
  EventColumnMask decoded_ = 0;
  EventColumns cols_;
};

// Decoded archived partitions, owned by the Database (one per database;
// internally synchronized, so const query paths share it). Between Clear()
// calls at most one decode entry per partition is alive: besides the LRU,
// which decides what stays alive between requests (capacity counted in
// partitions), the cache remembers every entry it created by weak reference.
// Eviction drops the LRU's reference only — entries are shared_ptr, so
// in-flight scans and ColumnPins keep theirs alive, and a scan that needs an
// evicted entry still held that way gets it back instead of decoding the
// partition a second time. EventViews into an evicted, unpinned entry are the
// caller's bug (the engine pins via the execution session).
class DecodeCache {
 public:
  explicit DecodeCache(size_t capacity) : cache_(capacity) {}

  // Returns the decode entry for `p` (which must be archived): the LRU's, else
  // a live evicted one put back into the LRU, else a fresh one (counted into
  // stats->partitions_decoded). Evicts least recently used entries beyond
  // capacity.
  std::shared_ptr<DecodedPartition> Acquire(const Partition* p, ScanStats* stats);

  // Drops every entry and forgets the live ones (bench/test hook: makes the
  // next scan of every partition decode).
  void Clear();

  size_t capacity() const { return cache_.capacity(); }
  size_t size() const { return cache_.size(); }
  uint64_t evictions() const { return cache_.evictions(); }

 private:
  // Keyed by (partition, archive generation): a partition re-archived by a
  // later finalization never hits the decode of its earlier contents.
  using Key = std::pair<const Partition*, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>{}(k.first) ^ (k.second * 0x9e3779b97f4a7c15ull);
    }
  };
  LruCache<Key, std::shared_ptr<DecodedPartition>, KeyHash> cache_;

  // Every entry this cache created, by partition: at most one per partition
  // (a newer archive generation replaces the older one), so it grows to the
  // number of archived partitions scanned, not with the number of scans.
  struct LiveEntry {
    uint64_t generation = 0;
    std::weak_ptr<DecodedPartition> entry;
  };
  std::mutex live_mu_;
  std::unordered_map<const Partition*, LiveEntry> live_;
};

// Plan-time per-partition entity filters: pushed-down candidate sets
// translated into dense bitmaps over this partition's zone index ranges, so
// the scan's membership probe is a bit test instead of a search of the
// sorted set. Built once per (plan, partition) and read-only during the
// scan. Any member may be absent (set too small — the flat probe wins — or
// too large or too wide for an affordable bitmap).
struct EntityBitmaps {
  std::optional<DenseBitmap> subject;
  std::optional<DenseBitmap> object;
  std::optional<DenseBitmap> agent;
};

// One partition-scan invocation: the query, its compiled predicate, the
// candidate sets (ascending, distinct; null = unconstrained), and optional
// plan-built bitmaps. All pointers are borrowed; `query`, `pred`, and
// `catalog` must be non-null.
struct PartitionScanArgs {
  const DataQuery* query = nullptr;
  const CompiledEventPred* pred = nullptr;
  const EntityCatalog* catalog = nullptr;
  const std::vector<uint32_t>* subject_ids = nullptr;
  const std::vector<uint32_t>* object_ids = nullptr;
  const std::vector<AgentId>* agent_ids = nullptr;
  const EntityBitmaps* bitmaps = nullptr;
  // Archive tier: the database's decode cache (required to scan an archived
  // partition) and the optional pin sink that keeps decoded columns — and
  // therefore the emitted EventViews — alive past cache eviction. Filled by
  // Database::ScanSurvivor, never cached inside a ScanPlan (pins are
  // per-run).
  DecodeCache* decode_cache = nullptr;
  ColumnPins* pins = nullptr;
};

struct PartitionKey {
  int64_t day_index = 0;
  uint32_t agent_group = 0;

  bool operator==(const PartitionKey&) const = default;
};

struct PartitionKeyHash {
  size_t operator()(const PartitionKey& k) const {
    // Boost-style hash combine; the previous multiplicative mix collided for
    // any (day + 1, group - 1000003) neighbor pair.
    size_t h = std::hash<int64_t>{}(k.day_index);
    h ^= std::hash<uint32_t>{}(k.agent_group) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

class Partition {
 public:
  explicit Partition(PartitionKey key) : key_(key) {}

  const PartitionKey& key() const { return key_; }
  size_t size() const { return archived_ != nullptr ? archived_->count : cols_.size(); }

  // Appends one row to the columns (decoding an archived partition back
  // first); the partition needs Finalize again before it is scanned.
  void Append(const Event& e);

  // Sorts the rows by (start_time, id) and builds the zone map and posting
  // lists from the columns. Must be called before Execute. A partition that
  // received no event since its last Finalize is left as it is (archived
  // ones stay encoded). Without `build_indexes` the posting indexes keep
  // their keys (for the blooms) but no rows. Finalize and Archive touch only
  // this partition, so different partitions may run them concurrently
  // (Database::Finalize does).
  void Finalize(bool build_indexes);
  bool finalized() const { return finalized_; }

  // Archive tier: re-encodes the decoded columns (delta/FOR, adaptive per
  // column; see encoding.h) and releases them. Requires a finalized, hot
  // partition; no-op otherwise, so an archived partition keeps its encoding
  // and generation until it receives an event. Zone map and posting lists
  // stay resident, so pruning and planning never decode. Ingesting
  // into an archived partition decodes it back (Append). `generation` is the
  // archiving database's finalization stamp (Database::generation), part of
  // the partition's decode-cache key.
  void Archive(uint64_t generation);
  bool archived() const { return archived_ != nullptr; }
  const ArchivedColumns* archived_columns() const { return archived_.get(); }
  uint64_t archive_generation() const { return archive_generation_; }

  // Adds how many of this partition's events reference each entity, as the
  // subject and as the object, to `counts` (entities beyond its sizes are
  // skipped). Reads the posting offsets when the rows are indexed and counts
  // the entity columns otherwise.
  void AddEventCounts(EntityEventCounts* counts) const;

  // Resident decoded column bytes (zero when archived) and encoded archive
  // bytes (zero when hot), for the storage footprint report.
  size_t ColumnBytes() const;
  size_t ArchivedBytes() const { return archived_ != nullptr ? archived_->EncodedBytes() : 0; }
  // Resident bytes of both posting indexes (hot or archived alike).
  size_t PostingBytes() const { return subject_postings_.Bytes() + object_postings_.Bytes(); }

  // Zone-map candidate check: could ANY event in this partition satisfy the
  // query of `args`? `range` is its effective time range; the operation
  // mask, object type, agents, compiled column filters and the subject/object
  // ids (entity range + bloom pruning; a prune they cause bumps
  // stats->partitions_pruned_entity) are checked against the zone map.
  // Consulted by Database::PlanQuery before any scan.
  bool CanMatch(const TimeRange& range, const PartitionScanArgs& args, ScanStats* stats) const;

  // Appends events matching `args` to `out`, in time order. args.pred must
  // be the compilation of args.query->event_pred.
  void Execute(const PartitionScanArgs& args, std::vector<EventView>* out,
               ScanStats* stats) const;

  // The side whose posting lists Execute would union for these candidate
  // sets instead of scanning the time slice; nullopt when it scans. PlanQuery
  // builds no bitmaps for a partition with a posting side.
  std::optional<EntitySide> PostingSide(const PartitionScanArgs& args) const;

  // Translates the candidate sets of `args` into dense bitmaps over this
  // partition's zone index ranges (see EntityBitmaps). Returns nullptr when
  // no side is worth a bitmap.
  std::unique_ptr<EntityBitmaps> TranslateCandidateBitmaps(const PartitionScanArgs& args) const;

  // Visits every event in storage order ((start_time, id) order once
  // finalized), materializing rows on the fly; archived partitions decode
  // transiently (bulk export path — graph/MPP builds).
  void ForEachEvent(const std::function<void(const Event&)>& fn) const;

  const ZoneMap& zone_map() const { return zone_; }
  const PostingIndex& subject_postings() const { return subject_postings_; }
  const PostingIndex& object_postings() const { return object_postings_; }
  TimestampMs min_time() const { return zone_.MinOf(EventColumnId::kStartTime); }
  TimestampMs max_time() const { return zone_.MaxOf(EventColumnId::kStartTime); }

 private:
  // Offsets of events within [range) via binary search on start_time. `cols`
  // is the partition's decoded columns (cols_ for hot partitions, the decode
  // cache entry's for archived ones).
  static std::pair<size_t, size_t> TimeSlice(const EventColumns* cols, const TimeRange& range);

  // Columns the filter stages of `args` will touch (always includes
  // start_time for the slice; everything when a residual predicate needs
  // arbitrary attribute access). Emission adds args.query->columns, the
  // columns the engine reads from a returned view.
  EventColumnMask ScanColumnMask(const PartitionScanArgs& args) const;

  // Per-stage activity predicates, shared by NeedsFiltering and VectorScan
  // so the fast path and the filter pipeline can never disagree about which
  // stages may reject a row.
  bool OpFilterActive(OpMask mask) const { return (zone_.op_mask & ~mask) != 0; }
  bool TypeFilterActive(EntityType want) const {
    return zone_.object_type_mask != (1u << static_cast<int>(want));
  }
  bool AgentFilterActive(const std::vector<AgentId>* agent_ids) const;
  bool ColumnFilterActive(const ColumnFilter& f) const {
    return !f.AlwaysTrueOnRange(zone_.MinOf(f.col), zone_.MaxOf(f.col));
  }

  // True when some scan stage could reject a row in this partition; false
  // means every row in a time slice matches and can be emitted directly.
  bool NeedsFiltering(const PartitionScanArgs& args) const;

  // Columnar scan: narrows `sel` one kernel at a time over `cols`, then emits
  // views. `dec` is non-null for archived partitions: when rows survive, the
  // decode widens to the query's emission columns (DataQuery::columns) before
  // they are emitted. Rows from the posting lists of `posting_side` are its
  // members by construction and skip that side's membership stage.
  void VectorScan(std::vector<uint32_t>* sel, const PartitionScanArgs& args,
                  std::optional<EntitySide> posting_side, const EventColumns* cols,
                  DecodedPartition* dec, std::vector<EventView>* out, ScanStats* stats) const;

  // The two columnar emit paths (whole range / selection vector): one
  // reserve, and the single place events_matched is accounted, so the fast
  // path and the filtered path cannot drift on stats.
  void EmitRange(const EventColumns* cols, size_t lo, size_t hi, std::vector<EventView>* out,
                 ScanStats* stats) const;
  void EmitSel(const EventColumns* cols, const std::vector<uint32_t>& sel,
               std::vector<EventView>* out, ScanStats* stats) const;

  // Unions the posting lists of `side`'s candidates into sorted offsets
  // clipped to [lo, hi).
  void PostingCandidates(const PartitionScanArgs& args, EntitySide side, size_t lo, size_t hi,
                         std::vector<uint32_t>* offsets, ScanStats* stats) const;

  PartitionKey key_;
  EventColumns cols_;  // columnar storage (hot; empty while archived)
  std::unique_ptr<ArchivedColumns> archived_;  // encoded columns (archived)
  uint64_t archive_generation_ = 0;
  ZoneMap zone_;
  bool finalized_ = false;
  bool has_indexes_ = false;

  // Posting lists (rows kept only with indexes): subject catalog index ->
  // rows, and PackObjectKey(type, idx) -> rows.
  PostingIndex subject_postings_;
  PostingIndex object_postings_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_PARTITION_H_
