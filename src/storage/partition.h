// A storage partition: one (day, agent-group) shard of the event table
// (paper §3.2 "Time and Space Partitioning").
//
// Events are ingested into a row buffer and, at Finalize(), sorted by
// start_time (time-range scans are binary searches) and transposed into a
// structure-of-arrays layout (EventColumns). Queries run a vectorized scan
// that evaluates one column at a time over a shrinking selection vector and
// emits EventViews without materializing Event copies. Finalize also builds
// per-entity posting lists, the analogue of the paper's per-attribute B-tree
// indexes, and a zone map (min/max per column, op mask, agent set)
// so Database::ExecuteQuery can skip whole partitions before touching any
// column.
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
#include "src/storage/event.h"
#include "src/storage/event_view.h"
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
// database's LRU-bounded DecodeCache.

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
// or pinned; see ColumnPins). Thread-safe: concurrent morsel workers race to
// Ensure the same columns and the mutex serializes the decodes.
class DecodedPartition {
 public:
  explicit DecodedPartition(const ArchivedColumns* src) : src_(src) {}

  // Decodes every column in `mask` not yet decoded; returns the columns.
  // Byte counters accrue into `stats` for newly decoded columns only.
  const EventColumns* Ensure(EventColumnMask mask, ScanStats* stats);
  const EventColumns* EnsureAll(ScanStats* stats) { return Ensure(kAllEventColumns, stats); }

 private:
  const ArchivedColumns* src_;
  std::mutex mu_;
  EventColumnMask decoded_ = 0;
  EventColumns cols_;
};

// LRU cache of decoded archived partitions, owned by the Database (one per
// database; internally synchronized, so const query paths share it). Capacity
// is counted in partitions. Eviction drops the cache's reference only —
// entries are shared_ptr, so in-flight scans and ColumnPins keep theirs
// alive; EventViews into an evicted, unpinned entry are the caller's bug
// (the engine pins via the execution session).
class DecodeCache {
 public:
  explicit DecodeCache(size_t capacity) : cache_(capacity) {}

  // Returns the decode entry for `p` (which must be archived), creating it on
  // a miss (counted into stats->partitions_decoded) and evicting the least
  // recently used entries beyond capacity.
  std::shared_ptr<DecodedPartition> Acquire(const Partition* p, ScanStats* stats);

  // Drops every entry (bench/test hook: makes the next scan cold).
  void Clear() { cache_.Clear(); }

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
};

// Plan-time per-partition entity filters: pushed-down candidate sets
// translated into dense bitmaps over this partition's zone index ranges, so
// the scan's membership probe is a bit test instead of a hash lookup. Built
// once per (plan, partition) and shared read-only by every morsel that scans
// the partition. Any member may be absent (set too small — the flat probe
// wins — or index range too wide for an affordable bitmap).
struct EntityBitmaps {
  std::optional<DenseBitmap> subject;
  std::optional<DenseBitmap> object;
  std::optional<DenseBitmap> agent;
};

// One partition-scan invocation: the query, its compiled predicate, the
// resolved candidate sets, optional plan-built bitmaps, and a row clamp for
// sub-partition morsels. All pointers are borrowed; `query`, `pred`, and
// `catalog` must be non-null.
struct PartitionScanArgs {
  const DataQuery* query = nullptr;
  const CompiledEventPred* pred = nullptr;
  const EntityCatalog* catalog = nullptr;
  const std::unordered_set<uint32_t>* subject_set = nullptr;
  const std::unordered_set<uint32_t>* object_set = nullptr;
  const std::unordered_set<AgentId>* agent_set = nullptr;
  const EntityBitmaps* bitmaps = nullptr;
  // Archive tier: the database's decode cache (required to scan an archived
  // partition) and the optional pin sink that keeps decoded columns — and
  // therefore the emitted EventViews — alive past cache eviction. Filled by
  // Database::ScanPlanned*, never cached inside a ScanPlan (pins are
  // per-run).
  DecodeCache* decode_cache = nullptr;
  ColumnPins* pins = nullptr;
  // Row clamp within the partition; the scan intersects it with the query's
  // time slice. The default covers the whole partition.
  uint32_t begin_row = 0;
  uint32_t end_row = UINT32_MAX;
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
  size_t size() const {
    return archived_ != nullptr ? archived_->count : finalized_ ? cols_.size() : events_.size();
  }

  // Pre-finalize row buffer; it is released at Finalize().
  const std::vector<Event>& events() const { return events_; }

  // Appending to a finalized partition rehydrates the row buffer;
  // re-finalization rebuilds columns and indexes.
  void Append(const Event& e);

  // Sorts by start_time, builds the zone map and posting lists, and
  // transposes rows into EventColumns. Must be called before Execute; ingest
  // after Finalize requires re-finalization.
  void Finalize(bool build_indexes);
  bool finalized() const { return finalized_; }

  // Archive tier: re-encodes the decoded columns (delta/FOR, adaptive per
  // column; see encoding.h) and releases them. Requires a finalized
  // partition; no-op otherwise. Zone map and posting lists stay resident, so
  // pruning and morsel planning never decode. Ingesting into an archived
  // partition decodes it back (Append/Finalize handle this transparently).
  // `generation` is the archiving database's finalization stamp
  // (Database::generation), part of the partition's decode-cache key.
  void Archive(uint64_t generation);
  bool archived() const { return archived_ != nullptr; }
  const ArchivedColumns* archived_columns() const { return archived_.get(); }
  uint64_t archive_generation() const { return archive_generation_; }

  // Resident decoded column bytes (zero when archived) and encoded archive
  // bytes (zero when hot), for the storage footprint report.
  size_t ColumnBytes() const;
  size_t ArchivedBytes() const { return archived_ != nullptr ? archived_->EncodedBytes() : 0; }

  // Zone-map candidate check: could ANY event in this partition satisfy the
  // query? `range` is the query's effective time range, `pred` the compiled
  // event predicate, `agent_set` the plan's resolved agent candidates, and
  // `subjects`/`objects` optional plan-time candidate-set summaries (entity
  // range + bloom pruning; a prune they cause bumps
  // stats->partitions_pruned_entity). Consulted by Database::PlanQuery before
  // any scan.
  bool CanMatch(const TimeRange& range, const DataQuery& q, const CompiledEventPred& pred,
                const std::unordered_set<AgentId>* agent_set, const CandidateSummary* subjects,
                const CandidateSummary* objects, ScanStats* stats) const;

  // Appends events matching `args` (clamped to args.begin_row/end_row) to
  // `out`, in time order. args.pred must be the compilation of
  // args.query->event_pred.
  void Execute(const PartitionScanArgs& args, std::vector<EventView>* out,
               ScanStats* stats) const;

  // Offsets of this partition's rows inside the query time range (the rows
  // Execute would consider before filtering). Used by the morsel planner to
  // split large partitions into row ranges. Archived partitions answer
  // conservatively ({0, size()}) rather than decode start_time at plan time —
  // the morsel planner keeps them whole anyway (see BuildScanMorsels).
  std::pair<uint32_t, uint32_t> SliceRows(const TimeRange& range) const {
    if (archived_ != nullptr) {
      return {0, static_cast<uint32_t>(size())};
    }
    auto [lo, hi] = TimeSlice(&cols_, range);
    return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
  }

  // True when Execute would take the posting-list access path for these
  // candidate sets. Such partitions are never split into row morsels: the
  // posting union would be repeated (and its stats double-counted) per
  // morsel.
  bool PrefersPostingScan(const std::unordered_set<uint32_t>* subject_set,
                          const std::unordered_set<uint32_t>* object_set) const;

  // Translates the candidate sets into dense bitmaps over this partition's
  // zone index ranges (see EntityBitmaps). Returns nullptr when no side is
  // worth a bitmap.
  std::unique_ptr<EntityBitmaps> TranslateCandidateBitmaps(
      const std::unordered_set<uint32_t>* subject_set,
      const std::unordered_set<uint32_t>* object_set,
      const std::unordered_set<AgentId>* agent_set) const;

  // Visits every event in storage order (start_time order once finalized).
  // Columnar partitions materialize rows on the fly; archived partitions
  // decode transiently (bulk export path — graph/MPP builds).
  void ForEachEvent(const std::function<void(const Event&)>& fn) const;

  // Hot partitions only: views into an archived partition must come from a
  // scan (which routes through the decode cache).
  EventView ViewAt(uint32_t row) const { return EventView(&cols_, row); }

  const ZoneMap& zone_map() const { return zone_; }
  TimestampMs min_time() const { return zone_.MinOf(EventColumnId::kStartTime); }
  TimestampMs max_time() const { return zone_.MaxOf(EventColumnId::kStartTime); }

 private:
  // Offsets of events within [range) via binary search on start_time. `cols`
  // is the partition's decoded columns (cols_ for hot partitions, the decode
  // cache entry's for archived ones).
  static std::pair<size_t, size_t> TimeSlice(const EventColumns* cols, const TimeRange& range);

  // Columns the filter stages of `args` will touch (always includes
  // start_time for the slice; everything when a residual predicate needs
  // arbitrary attribute access). Emission widens to kAllEventColumns — the
  // engine reads any attribute of a returned view.
  EventColumnMask ScanColumnMask(const PartitionScanArgs& args) const;

  // Rebuilds the row buffer from columns (decoding archived ones first) so
  // post-finalize ingest works.
  void Rehydrate();

  // Per-stage activity predicates, shared by NeedsFiltering and VectorScan
  // so the fast path and the filter pipeline can never disagree about which
  // stages may reject a row.
  bool OpFilterActive(OpMask mask) const { return (zone_.op_mask & ~mask) != 0; }
  bool TypeFilterActive(EntityType want) const {
    return zone_.object_type_mask != (1u << static_cast<int>(want));
  }
  bool AgentFilterActive(const std::unordered_set<AgentId>* agent_set) const;
  bool ColumnFilterActive(const ColumnFilter& f) const {
    return !f.AlwaysTrueOnRange(zone_.MinOf(f.col), zone_.MaxOf(f.col));
  }

  // True when some scan stage could reject a row in this partition; false
  // means every row in a time slice matches and can be emitted directly.
  bool NeedsFiltering(const PartitionScanArgs& args) const;

  // Columnar scan: narrows `sel` one kernel at a time over `cols`, then emits
  // views. `dec` is non-null for archived partitions: surviving rows widen
  // the decode to every column before emission.
  void VectorScan(std::vector<uint32_t>* sel, const PartitionScanArgs& args,
                  const EventColumns* cols, DecodedPartition* dec, std::vector<EventView>* out,
                  ScanStats* stats) const;

  // The two columnar emit paths (whole range / selection vector): one
  // reserve, and the single place events_matched is accounted, so the fast
  // path and the filtered path cannot drift on stats.
  void EmitRange(const EventColumns* cols, size_t lo, size_t hi, std::vector<EventView>* out,
                 ScanStats* stats) const;
  void EmitSel(const EventColumns* cols, const std::vector<uint32_t>& sel,
               std::vector<EventView>* out, ScanStats* stats) const;

  // Unions posting lists for the chosen side into sorted offsets clipped to
  // [lo, hi). Returns false when no side qualifies for index access.
  bool PostingCandidates(const DataQuery& q, const std::unordered_set<uint32_t>* subject_set,
                         const std::unordered_set<uint32_t>* object_set, size_t lo, size_t hi,
                         std::vector<uint32_t>* offsets, ScanStats* stats) const;

  PartitionKey key_;
  std::vector<Event> events_;  // pre-Finalize ingest buffer
  EventColumns cols_;          // columnar storage (finalized, hot)
  std::unique_ptr<ArchivedColumns> archived_;  // encoded columns (archived)
  uint64_t archive_generation_ = 0;
  ZoneMap zone_;
  bool finalized_ = false;
  bool has_indexes_ = false;

  // Posting lists: catalog index -> sorted event offsets.
  std::unordered_map<uint32_t, std::vector<uint32_t>> subject_postings_;
  // Object postings keyed by (type, idx) packed into a u64.
  std::unordered_map<uint64_t, std::vector<uint32_t>> object_postings_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_PARTITION_H_
