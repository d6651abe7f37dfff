// The embedded event database: the storage substrate of the AIQL system
// (paper §3.2).
//
// The database owns the entity catalog and a set of partitions. Two partition
// schemes are supported:
//   - kTimeSpace: one partition per (day, agent-group) — the paper's
//     domain-specific storage optimization;
//   - kNone: a single monolithic partition — the configuration of the
//     PostgreSQL/Neo4j baselines in the end-to-end evaluation (§6.2.2).
// Independently, secondary indexes (entity attribute hash indexes + per-
// partition posting lists) can be enabled or disabled for ablations.
//
// A database is ingested once, finalized, and then queried read-only; all
// query entry points are const and thread-safe. Queries run in two phases:
// a serial planning phase (predicate compilation, candidate-entity
// resolution, partition pruning via scheme keys and zone maps) and a scan
// phase over the surviving partitions. Every scan phase — serial or pooled,
// one database or every MPP segment — runs through ScanMorsels, one work-
// queue entry per surviving partition, with identical results and aggregate
// ScanStats.
#ifndef AIQL_SRC_STORAGE_DATABASE_H_
#define AIQL_SRC_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/data_query.h"
#include "src/storage/entity.h"
#include "src/storage/event.h"
#include "src/storage/event_store.h"
#include "src/storage/partition.h"
#include "src/util/time_utils.h"

namespace aiql {

enum class PartitionScheme : uint8_t {
  kNone = 0,       // single monolithic partition (baseline storage)
  kTimeSpace = 1,  // (day, agent-group) partitions (AIQL storage)
};

// Phase 1 of a data-query execution: everything that is computed once per
// query and then shared read-only by every partition scan. Produced by
// Database::PlanQuery, consumed by Database::ScanSurvivor — either serially
// or from multiple scan workers at once. Holds a pointer to the caller's
// DataQuery; the plan must not outlive it.
struct ScanPlan {
  const DataQuery* query = nullptr;
  CompiledEventPred compiled;
  // Candidate entities of each side: the query's own resolved candidates
  // (shared, not copied), or resolved from its subject/object predicate;
  // null means "unconstrained side", empty would have short-circuited
  // planning.
  std::shared_ptr<const EntityCandidates> subjects;
  std::shared_ptr<const EntityCandidates> objects;
  // The query's agents, ascending and distinct; disengaged when the query
  // has no spatial constraint.
  std::optional<std::vector<AgentId>> agents;
  // Partitions that survived scheme-key and zone-map pruning, in partition
  // (day, agent-group) order. This order is the deterministic merge order of
  // the parallel scan.
  std::vector<const Partition*> survivors;
  // Per-survivor dense-bitmap translations of the candidate sets (parallel
  // to `survivors`; null = no affordable bitmap). Built once at plan time,
  // read-only during the scan.
  std::vector<std::unique_ptr<EntityBitmaps>> bitmaps;

  // The scan arguments for survivor `i`.
  PartitionScanArgs ArgsFor(size_t i, const EntityCatalog& catalog) const {
    PartitionScanArgs a;
    a.query = query;
    a.pred = &compiled;
    a.catalog = &catalog;
    a.subject_ids = subjects != nullptr ? &subjects->ids : nullptr;
    a.object_ids = objects != nullptr ? &objects->ids : nullptr;
    a.agent_ids = agents.has_value() ? &*agents : nullptr;
    a.bitmaps = i < bitmaps.size() ? bitmaps[i].get() : nullptr;
    return a;
  }
};

// Restores the global (start_time, id) order of `events`, whose slices
// starting at `run_starts[i]` (ascending, first element 0; last run ends at
// events->size()) are each already sorted — the shape every partition scan
// emits. Adjacent runs already in order coalesce with a single boundary
// comparison, so non-overlapping partitions (a purely time-ordered scan)
// cost one pass; overlapping runs pay O(n log k) ladder merges instead of the
// O(n log n) full sort. Consumes `run_starts`.
void MergeSortedRuns(std::vector<EventView>* events, std::vector<size_t>* run_starts);

class Database;

// One entry of a scan's work queue: one surviving partition of one plan of
// one database (MppCluster queues the survivors of every segment together).
struct ScanMorsel {
  const Database* db = nullptr;
  const ScanPlan* plan = nullptr;
  uint32_t survivor = 0;  // index into plan->survivors
};

// The one scan loop of both stores. Scans `morsels`, accumulating into
// `*stats` (required), and returns their matches in (start_time, id) order.
// With a null `pool` or fewer than two morsels the calling thread scans them
// in list order; otherwise `pool`'s workers claim morsels into per-morsel
// slots and per-worker stats (counting parallel_morsels), and the slots
// concatenate in list order, never completion order. Either way the runs
// merge with MergeSortedRuns, so results and strategy-invariant stats do not
// depend on the pool. `ctx`'s stop state is checked once per morsel; decoded
// archive columns stay pinned through the merge (into ctx's sink, or a
// call-local one).
std::vector<EventView> ScanMorsels(const std::vector<ScanMorsel>& morsels, ThreadPool* pool,
                                   ScanStats* stats, const ScanContext* ctx);

struct DatabaseOptions {
  PartitionScheme scheme = PartitionScheme::kTimeSpace;
  uint32_t agent_group_size = 4;  // agents per spatial partition group
  bool build_indexes = true;      // entity hash indexes + posting lists
  // Archive tier (see partition.h). At Finalize, partitions whose day is at
  // least archive_after_days older than the newest ingested day re-encode
  // their columns and decode on demand at scan time; 0 archives
  // every partition, < 0 disables archiving. Results are identical either
  // way — archiving trades cold-scan decode time for resident memory.
  int64_t archive_after_days = -1;
  // Capacity (in partitions) of the archived-partition decode cache.
  size_t decode_cache_partitions = 8;
  // Capacity (in entries) of the scan-plan caches the prepare/bind/execute
  // API creates against this database (see plan_cache.h).
  size_t plan_cache_capacity = kDefaultPlanCacheCapacity;
};

// Resident-memory report for the archive tier (README's compression table
// and bench_ablation's resident-bytes ratio).
struct StorageFootprint {
  size_t partitions = 0;
  size_t archived_partitions = 0;
  size_t hot_column_bytes = 0;  // decoded column bytes resident
  size_t archived_bytes = 0;    // encoded bytes held by archived partitions
  size_t posting_bytes = 0;     // posting-index arrays, hot and archived partitions
};

class Database : public EventStore {
 public:
  // A catalog may be shared across databases (MPP segments replicate the
  // entity tables while sharding the event table); only the database that
  // created it publishes its event counts and indexes at Finalize.
  explicit Database(DatabaseOptions options = {},
                    std::shared_ptr<EntityCatalog> catalog = nullptr);

  EntityCatalog& catalog() { return *catalog_; }
  const EntityCatalog& catalog() const override { return *catalog_; }
  std::shared_ptr<EntityCatalog> shared_catalog() const { return catalog_; }
  const DatabaseOptions& options() const { return options_; }

  // Appends an event; ids and per-agent sequence numbers are assigned here.
  // end_time defaults to start_time when omitted.
  void RecordEvent(AgentId agent, uint32_t subject_idx, Operation op, EntityType object_type,
                   uint32_t object_idx, TimestampMs start_time, int64_t amount = 0,
                   int32_t failure_code = 0, TimestampMs end_time = -1);

  // Appends a fully-formed event preserving its id/sequence (used when
  // re-sharding an existing database into MPP segments).
  void AppendRaw(const Event& e);

  // Sorts partitions, builds all indexes, and applies the archive policy
  // (archive_after_days). Idempotent. A re-finalize after more ingest
  // rebuilds only the partitions that received events (and archives hot
  // ones the policy now reaches); the others keep their order, indexes and
  // (if archived) their encoding. Partitions that will be archived are
  // independent work items — Partition::Finalize, then Archive — run on a
  // transient pool of min(hardware_concurrency(), their count) threads, the
  // calling thread included; partitions that stay hot are built on the
  // calling thread, so their resident columns come from its malloc arena.
  // The generation is fixed and the decode cache cleared before any
  // partition is built, so the result does not depend on scheduling.
  void Finalize();
  bool finalized() const { return finalized_; }
  // Stamp of the last Finalize that changed the database, unique across the
  // process. Plan-cache keys carry it, so a plan of an earlier finalization
  // is never reused; a partition archived by this Finalize carries it in its
  // decode-cache key (Partition::archive_generation).
  uint64_t generation() const { return generation_; }

  size_t num_events() const { return num_events_; }
  size_t num_partitions() const { return partitions_.size(); }
  size_t num_archived_partitions() const;
  // The partitions, in (day, agent-group) order.
  std::vector<const Partition*> partitions() const;
  StorageFootprint Footprint() const;

  // The archived-partition decode cache (internally synchronized; Clear()
  // makes the next scan of every archived partition cold).
  DecodeCache& decode_cache() const { return *decode_cache_; }
  TimeRange data_time_range() const override { return data_range_; }
  bool SupportsDaySplit() const override { return options_.scheme == PartitionScheme::kTimeSpace; }

  // Visits every ingested event (partition order). Used to build the graph
  // and MPP substrates from the same data.
  void ForEachEvent(const std::function<void(const Event&)>& fn) const;

  // Entity search over this database's catalog (ResolveEntities,
  // entity_search.h): the catalog indices of type `t` satisfying `pred`,
  // optionally restricted to `agents`, through the exact-value index on the
  // default attribute when the predicate allows it.
  std::vector<uint32_t> FindEntities(EntityType t, const PredExpr& pred,
                                     const std::optional<std::vector<AgentId>>& agents,
                                     ScanStats* stats = nullptr) const;

  // Executes a data query on the calling thread: PlanQuery, then
  // ScanWithPlan without a pool. Results are sorted by (start_time, id) so
  // that all engines and schedulers produce deterministic, comparable
  // output. Partitions are skipped via scheme keys and zone maps before any
  // scan. `ctx` (optional) carries the run's cancellation flag / deadline —
  // checked between partition scans, so a cancelled session stops after the
  // current partition instead of finishing the plan — and the pin sink that
  // keeps decoded archive columns alive for the caller (see ScanContext).
  std::vector<EventView> ExecuteQuery(const DataQuery& q, ScanStats* stats = nullptr,
                                      const ScanContext* ctx = nullptr) const override;
  bool SupportsParallelScan() const override { return true; }

  // The pooled fetch: plans (or, with a `cache`, looks `q` up by constraint
  // fingerprint and skips PlanQuery on a hit, incrementing *cache_hits; a
  // miss plans and publishes the compiled plan), then scans the surviving
  // partitions on `pool`'s workers (calling thread included; null = the
  // calling thread alone). Results and aggregate ScanStats are identical to
  // ExecuteQuery, parallel_morsels aside — the planning-phase counters are
  // recorded in the cache entry and replayed on hits. Cached plans pin
  // partitions of the current finalization: the key carries generation(), so
  // after a re-finalize the lookup misses and the query is replanned.
  std::vector<EventView> ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                            ThreadPool* pool, ScanPlanCache* cache,
                                            uint64_t* cache_hits,
                                            const ScanContext* ctx = nullptr) const override;

  // Prepared-query plan caches against this store honor the configured
  // capacity.
  size_t PlanCacheCapacity() const override {
    return options_.plan_cache_capacity == 0 ? 1 : options_.plan_cache_capacity;
  }

  // The two phases of every fetch. PlanQuery takes each side's candidate
  // entities from the query when it carries them and resolves the side's
  // predicate otherwise. It returns nullopt when the query provably matches
  // nothing before any partition is considered (op-mask contradiction, empty
  // candidate entity set) — in that case no pruning counters move.
  // Partitions pruned during planning do count into `stats`.
  // ScanWithPlan queues one morsel per surviving partition into ScanMorsels.
  std::optional<ScanPlan> PlanQuery(const DataQuery& q, ScanStats* stats) const;
  std::vector<EventView> ScanWithPlan(const ScanPlan& plan, ScanStats* stats, ThreadPool* pool,
                                      const ScanContext* ctx = nullptr) const;

  // Scans survivor `i` of `plan` (one ScanMorsels work-queue entry),
  // appending its matches in time order to `out` (not globally sorted —
  // callers merge), and counts it in partitions_scanned.
  void ScanSurvivor(const ScanPlan& plan, size_t i, std::vector<EventView>* out,
                    ScanStats* stats, const ScanContext* ctx) const;

  // The distinct day indices covered by ingested data (for time-window
  // partitioned parallel execution).
  std::vector<int64_t> DayIndices() const;

 private:
  Partition& PartitionFor(AgentId agent, TimestampMs t);
  PartitionKey KeyFor(AgentId agent, TimestampMs t) const;

  DatabaseOptions options_;
  // True when this database created its catalog: its Finalize then publishes
  // the catalog's event counts and indexes (EntityCatalog::Publish).
  bool owns_catalog_ = true;
  std::shared_ptr<EntityCatalog> catalog_;
  // Decoded archived partitions, LRU-bounded; mutable because decoding is a
  // caching detail of const query execution (internally synchronized).
  // unique_ptr keeps Database movable despite the cache's mutex.
  mutable std::unique_ptr<DecodeCache> decode_cache_;
  std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Partition>> partitions_;
  // O(1) partition lookup for the ingest hot path; partitions_ keeps the
  // ordered iteration that ForEachEvent/DayIndices rely on.
  std::unordered_map<PartitionKey, Partition*, PartitionKeyHash> partition_lookup_;
  std::unordered_map<AgentId, int64_t> agent_seq_;
  int64_t next_event_id_ = 1;
  size_t num_events_ = 0;
  TimeRange data_range_{INT64_MAX, INT64_MIN};
  bool finalized_ = false;
  uint64_t generation_ = 0;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_DATABASE_H_
