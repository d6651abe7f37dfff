#include "src/storage/database.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

#include "src/storage/entity_search.h"
#include "src/storage/plan_cache.h"
#include "src/util/string_utils.h"
#include "src/util/thread_pool.h"

namespace aiql {

Database::Database(DatabaseOptions options, std::shared_ptr<EntityCatalog> catalog)
    : options_(options),
      owns_catalog_(catalog == nullptr),
      catalog_(owns_catalog_ ? std::make_shared<EntityCatalog>() : std::move(catalog)),
      decode_cache_(std::make_unique<DecodeCache>(options.decode_cache_partitions)) {
  if (options_.agent_group_size == 0) {
    options_.agent_group_size = 1;
  }
}

PartitionKey Database::KeyFor(AgentId agent, TimestampMs t) const {
  if (options_.scheme == PartitionScheme::kNone) {
    return PartitionKey{0, 0};
  }
  return PartitionKey{DayIndex(t), agent / options_.agent_group_size};
}

Partition& Database::PartitionFor(AgentId agent, TimestampMs t) {
  PartitionKey key = KeyFor(agent, t);
  auto cached = partition_lookup_.find(key);
  if (cached != partition_lookup_.end()) {
    return *cached->second;
  }
  auto map_key = std::make_pair(key.day_index, key.agent_group);
  auto it = partitions_.emplace(map_key, std::make_unique<Partition>(key)).first;
  partition_lookup_.emplace(key, it->second.get());
  return *it->second;
}

void Database::RecordEvent(AgentId agent, uint32_t subject_idx, Operation op,
                           EntityType object_type, uint32_t object_idx, TimestampMs start_time,
                           int64_t amount, int32_t failure_code, TimestampMs end_time) {
  Event e;
  e.id = next_event_id_;
  e.seq = ++agent_seq_[agent];
  e.agent_id = agent;
  e.op = op;
  e.object_type = object_type;
  e.subject_idx = subject_idx;
  e.object_idx = object_idx;
  e.start_time = start_time;
  e.end_time = end_time < 0 ? start_time : end_time;
  e.amount = amount;
  e.failure_code = failure_code;
  AppendRaw(e);
}

void Database::AppendRaw(const Event& e) {
  PartitionFor(e.agent_id, e.start_time).Append(e);
  ++num_events_;
  next_event_id_ = std::max(next_event_id_, e.id + 1);
  data_range_.begin = std::min(data_range_.begin, e.start_time);
  data_range_.end = std::max(data_range_.end, e.start_time + 1);
  finalized_ = false;
}

void Database::Finalize() {
  if (finalized_) {
    return;
  }
  // Fixed before any partition is built: the partitions archived below all
  // carry this stamp, whatever order they finish in.
  static std::atomic<uint64_t> last_generation{0};
  generation_ = last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  // A decode-cache entry may be reused only for the same encoded bytes; its
  // key is (partition, archive generation). A partition this Finalize leaves
  // alone keeps its encoding and generation, so its entry would still be
  // valid, while one re-encoded below gets a new generation and its old
  // entry becomes unreachable. The cache is dropped whole, so every
  // finalization starts with a cold cache and unreachable entries do not
  // hold capacity until evicted.
  decode_cache_->Clear();

  // The partitions to build are those that received events since their
  // last Finalize (Partition::Finalize leaves the others alone) and hot ones
  // the archive policy now reaches (the newest day moved on). Partitions
  // that stay hot are built right here on the calling thread: their gathered
  // columns stay resident, and a pool worker would allocate them in its own
  // malloc arena while the ingest buffers they replace are freed into the
  // main arena, which then keeps that memory instead of reusing it
  // (ARCHITECTURE.md, "Finalize").
  std::vector<Partition*> archiving;
  const int64_t newest_day = partitions_.empty() ? 0 : partitions_.rbegin()->first.first;
  for (auto& [key, p] : partitions_) {
    if (options_.archive_after_days >= 0 &&
        newest_day - key.first >= options_.archive_after_days) {
      if (!p->archived()) {
        archiving.push_back(p.get());
      }
    } else {
      p->Finalize(options_.build_indexes);
    }
  }
  // Archiving partitions are independent work items (finalize, then encode
  // and release the columns); a transient pool builds them, the calling
  // thread included.
  auto build = [&](size_t i) {
    archiving[i]->Finalize(options_.build_indexes);
    archiving[i]->Archive(generation_);
  };
  const size_t threads =
      std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()), archiving.size());
  if (threads > 1) {
    ThreadPool pool(threads - 1);
    pool.ParallelFor(archiving.size(), build);
  } else {
    for (size_t i = 0; i < archiving.size(); ++i) {
      build(i);
    }
  }
  if (owns_catalog_) {
    // The catalog's event counts come from the posting offsets just built;
    // a segment sharing another database's catalog keeps that store's.
    EntityEventCounts counts = catalog_->ZeroEventCounts();
    for (const auto& [key, p] : partitions_) {
      p->AddEventCounts(&counts);
    }
    catalog_->Publish(std::move(counts), options_.build_indexes, generation_);
  }
  finalized_ = true;
}

size_t Database::num_archived_partitions() const {
  size_t n = 0;
  for (const auto& [key, p] : partitions_) {
    n += p->archived() ? 1 : 0;
  }
  return n;
}

std::vector<const Partition*> Database::partitions() const {
  std::vector<const Partition*> out;
  out.reserve(partitions_.size());
  for (const auto& [key, p] : partitions_) {
    out.push_back(p.get());
  }
  return out;
}

StorageFootprint Database::Footprint() const {
  StorageFootprint f;
  f.partitions = partitions_.size();
  for (const auto& [key, p] : partitions_) {
    f.archived_partitions += p->archived() ? 1 : 0;
    f.hot_column_bytes += p->ColumnBytes();
    f.archived_bytes += p->ArchivedBytes();
    f.posting_bytes += p->PostingBytes();
  }
  return f;
}

std::vector<uint32_t> Database::FindEntities(EntityType t, const PredExpr& pred,
                                             const std::optional<std::vector<AgentId>>& agents,
                                             ScanStats* stats) const {
  return ResolveEntities(*catalog_, t, pred, agents, stats);
}

std::optional<ScanPlan> Database::PlanQuery(const DataQuery& q, ScanStats* stats) const {
  assert(finalized_ && "Database::Execute before Finalize()");
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;

  ScanPlan plan;
  plan.query = &q;

  // Compile the event predicate once per query: an op-mask refinement plus
  // vectorizable column filters drive both zone-map pruning and the scan.
  plan.compiled = CompileEventPred(q.event_pred);
  const CompiledEventPred& compiled = plan.compiled;
  if ((q.op_mask & compiled.op_mask) == 0) {
    return std::nullopt;
  }

  // Candidate entity sets: the query's resolved candidates, or a resolution
  // of the side's predicate when it arrives without them.
  auto candidates = [&](EntitySide side, EntityType type, const PredExpr& pred,
                        const std::optional<std::vector<AgentId>>& agents,
                        std::optional<std::unordered_set<uint32_t>>* set) {
    if (const auto& given = q.candidates(side); given != nullptr) {
      set->emplace(given->ids.begin(), given->ids.end());
    } else if (!pred.is_true()) {
      std::vector<uint32_t> found = ResolveEntities(*catalog_, type, pred, agents, st);
      set->emplace(found.begin(), found.end());
    }
  };
  std::optional<std::unordered_set<uint32_t>>& subject_set = plan.subject_set;
  std::optional<std::unordered_set<uint32_t>>& object_set = plan.object_set;
  candidates(EntitySide::kSubject, EntityType::kProcess, q.subject_pred, q.agent_ids,
             &subject_set);
  candidates(EntitySide::kObject, q.object_type, q.object_pred, ObjectSideAgents(q),
             &object_set);

  // Short-circuit: a constrained side with no candidates matches nothing.
  if ((subject_set.has_value() && subject_set->empty()) ||
      (object_set.has_value() && object_set->empty())) {
    return std::nullopt;
  }

  std::unordered_set<uint32_t> agent_groups;
  if (q.agent_ids.has_value()) {
    for (AgentId a : *q.agent_ids) {
      agent_groups.insert(a / options_.agent_group_size);
    }
    plan.agent_set.emplace(q.agent_ids->begin(), q.agent_ids->end());
  }

  // Candidate-set summaries for entity zone pruning, computed once per query
  // (not per partition): index range plus bloom-probe eligibility.
  std::optional<CandidateSummary> subjects;
  std::optional<CandidateSummary> objects;
  if (subject_set.has_value()) {
    subjects = CandidateSummary::For(*subject_set);
  }
  if (object_set.has_value()) {
    objects = CandidateSummary::For(*object_set);
  }

  TimeRange range = q.EffectiveTime();
  for (const auto& [key, p] : partitions_) {
    if (options_.scheme == PartitionScheme::kTimeSpace) {
      // Partition pruning along both key dimensions.
      TimeRange day{DayStart(key.first), DayStart(key.first + 1)};
      if (!range.Overlaps(day) ||
          (q.agent_ids.has_value() && agent_groups.count(key.second) == 0)) {
        ++st->partitions_pruned;
        st->events_skipped += p->size();
        continue;
      }
    }
    // Zone-map pruning: skip the partition when no stored event can satisfy
    // the operation mask, object type, agent set, compiled column filters, or
    // entity candidate summaries.
    if (!p->CanMatch(range, q, compiled, plan.agent_set.has_value() ? &*plan.agent_set : nullptr,
                     subjects.has_value() ? &*subjects : nullptr,
                     objects.has_value() ? &*objects : nullptr, st)) {
      ++st->partitions_pruned;
      st->events_skipped += p->size();
      continue;
    }
    plan.survivors.push_back(p.get());
  }

  // Translate candidate sets into per-partition dense bitmaps for the
  // survivors the vectorized scan will probe row-by-row (the posting-list
  // access path unions tiny offset lists instead and skips the translation).
  if (plan.subject_set.has_value() || plan.object_set.has_value() ||
      plan.agent_set.has_value()) {
    plan.bitmaps.resize(plan.survivors.size());
    const auto* subj = plan.subject_set.has_value() ? &*plan.subject_set : nullptr;
    const auto* obj = plan.object_set.has_value() ? &*plan.object_set : nullptr;
    const auto* agents = plan.agent_set.has_value() ? &*plan.agent_set : nullptr;
    for (size_t i = 0; i < plan.survivors.size(); ++i) {
      if (plan.survivors[i]->PrefersPostingScan(subj, obj)) {
        continue;
      }
      plan.bitmaps[i] = plan.survivors[i]->TranslateCandidateBitmaps(subj, obj, agents);
    }
  }
  return plan;
}

void Database::ScanSurvivor(const ScanPlan& plan, size_t i, std::vector<EventView>* out,
                            ScanStats* stats, const ScanContext* ctx) const {
  ++stats->partitions_scanned;
  PartitionScanArgs args = plan.ArgsFor(i, *catalog_);
  args.decode_cache = decode_cache_.get();
  args.pins = ctx != nullptr ? ctx->pins : nullptr;
  plan.survivors[i]->Execute(args, out, stats);
}

void MergeSortedRuns(std::vector<EventView>* events, std::vector<size_t>* run_starts) {
  if (events->empty() || run_starts->size() <= 1) {
    return;
  }
  // Coalesce: drop empty runs and boundaries that are already in order
  // (run i's last element is its max, run i+1's first is its min).
  std::vector<size_t> runs;
  runs.reserve(run_starts->size());
  runs.push_back(0);
  for (size_t s : *run_starts) {
    if (s == 0 || s >= events->size() || s == runs.back()) {
      continue;
    }
    if (!EventViewTimeIdLess((*events)[s], (*events)[s - 1])) {
      continue;
    }
    runs.push_back(s);
  }
  run_starts->clear();
  // Balanced ladder: merge adjacent run pairs until one run remains. Each
  // pass halves the run count, so every element moves O(log k) times.
  while (runs.size() > 1) {
    std::vector<size_t> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      size_t end = i + 2 < runs.size() ? runs[i + 2] : events->size();
      std::inplace_merge(events->begin() + runs[i], events->begin() + runs[i + 1],
                         events->begin() + end, EventViewTimeIdLess);
      next.push_back(runs[i]);
    }
    if (runs.size() % 2 == 1) {
      next.push_back(runs.back());
    }
    runs = std::move(next);
  }
}

std::vector<EventView> ScanMorsels(const std::vector<ScanMorsel>& morsels, ThreadPool* pool,
                                   ScanStats* stats, const ScanContext* ctx) {
  ScanPinScope pin_scope(ctx);
  ctx = pin_scope.ctx();
  // Cooperative stop (cancellation / run deadline): checked between morsels,
  // never per row. A stopped scan returns whatever it has — the executor
  // turns the session state into the user-visible error.
  auto scan = [&](const ScanMorsel& m, std::vector<EventView>* out, ScanStats* st) {
    if (ctx->ShouldStop()) {
      return;  // claimed but skipped: the queue drains without scanning
    }
    m.db->ScanSurvivor(*m.plan, m.survivor, out, st, ctx);
  };
  std::vector<EventView> out;
  std::vector<size_t> run_starts;
  run_starts.reserve(morsels.size());
  if (pool == nullptr || morsels.size() < 2) {
    for (const ScanMorsel& m : morsels) {
      run_starts.push_back(out.size());
      scan(m, &out, stats);
    }
  } else {
    // Workers claim the next unclaimed morsel and write into that morsel's
    // slot (its events and ScanStats), so no scan state is shared; the slots
    // concatenate in list order regardless of which worker filled them.
    struct MorselSlot {
      std::vector<EventView> events;
      ScanStats stats;
    };
    std::vector<MorselSlot> slots(morsels.size());
    pool->ParallelFor(morsels.size(), [&](size_t i) {
      scan(morsels[i], &slots[i].events, &slots[i].stats);
    });
    stats->parallel_morsels += morsels.size();
    size_t total = 0;
    for (const MorselSlot& slot : slots) {
      total += slot.events.size();
    }
    out.reserve(total);
    for (const MorselSlot& slot : slots) {
      run_starts.push_back(out.size());
      out.insert(out.end(), slot.events.begin(), slot.events.end());
      *stats += slot.stats;
    }
  }
  MergeSortedRuns(&out, &run_starts);
  return out;
}

std::vector<EventView> Database::ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                              const ScanContext* ctx) const {
  return ExecuteQueryCached(q, stats, nullptr, nullptr, nullptr, ctx);
}

std::vector<EventView> Database::ScanWithPlan(const ScanPlan& plan, ScanStats* stats,
                                              ThreadPool* pool, const ScanContext* ctx) const {
  ScanStats local;
  std::vector<ScanMorsel> morsels;
  morsels.reserve(plan.survivors.size());
  for (size_t i = 0; i < plan.survivors.size(); ++i) {
    morsels.push_back(ScanMorsel{this, &plan, static_cast<uint32_t>(i)});
  }
  return ScanMorsels(morsels, pool, stats != nullptr ? stats : &local, ctx);
}

std::vector<EventView> Database::ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                                    ThreadPool* pool, ScanPlanCache* cache,
                                                    uint64_t* cache_hits,
                                                    const ScanContext* ctx) const {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  // An empty key is uncacheable: no cache, or a query too large to key.
  std::string key = cache != nullptr ? DataQueryFingerprint(q) : std::string();
  if (key.empty()) {
    std::optional<ScanPlan> plan = PlanQuery(q, st);
    if (!plan.has_value()) {
      return {};
    }
    return ScanWithPlan(*plan, st, pool, ctx);
  }
  key.push_back('#');
  key.append(std::to_string(generation_));

  std::shared_ptr<const ScanPlanCache::Entry> entry = cache->Find(key);
  if (entry == nullptr) {
    // Plan against an owned copy of the query so the published ScanPlan's
    // back-pointer stays valid for the cache entry's lifetime.
    auto fresh = std::make_shared<ScanPlanCache::Entry>();
    fresh->query = q;
    std::optional<ScanPlan> plan = PlanQuery(fresh->query, &fresh->planning_stats);
    if (plan.has_value()) {
      fresh->plan = std::make_unique<const ScanPlan>(std::move(*plan));
    }
    entry = cache->Insert(std::move(key), std::move(fresh));
  } else if (cache_hits != nullptr) {
    ++*cache_hits;
  }
  // Replaying the recorded planning counters keeps cached executions
  // stat-identical to fresh ones (hit or miss — on a miss they were accrued
  // into the entry above, not into *st).
  *st += entry->planning_stats;
  if (entry->plan == nullptr) {
    return {};
  }
  return ScanWithPlan(*entry->plan, st, pool, ctx);
}

void Database::ForEachEvent(const std::function<void(const Event&)>& fn) const {
  for (const auto& [key, p] : partitions_) {
    p->ForEachEvent(fn);
  }
}

std::vector<int64_t> Database::DayIndices() const {
  std::vector<int64_t> days;
  for (const auto& [key, p] : partitions_) {
    if (days.empty() || days.back() != key.first) {
      days.push_back(key.first);
    }
  }
  // partitions_ is ordered by (day, group); dedupe handles multiple groups.
  days.erase(std::unique(days.begin(), days.end()), days.end());
  return days;
}

}  // namespace aiql
