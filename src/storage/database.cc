#include "src/storage/database.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "src/storage/plan_cache.h"
#include "src/util/string_utils.h"
#include "src/util/thread_pool.h"

namespace aiql {

Database::Database(DatabaseOptions options, std::shared_ptr<EntityCatalog> catalog)
    : options_(options),
      catalog_(catalog != nullptr ? std::move(catalog) : std::make_shared<EntityCatalog>()),
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

const Event& Database::RecordEvent(AgentId agent, uint32_t subject_idx, Operation op,
                                   EntityType object_type, uint32_t object_idx,
                                   TimestampMs start_time, int64_t amount, int32_t failure_code,
                                   TimestampMs end_time) {
  Event e;
  e.id = next_event_id_++;
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

  Partition& p = PartitionFor(agent, start_time);
  p.Append(e);
  ++num_events_;
  data_range_.begin = std::min(data_range_.begin, start_time);
  data_range_.end = std::max(data_range_.end, start_time + 1);
  finalized_ = false;
  return p.events().back();
}

void Database::AppendRaw(const Event& e) {
  Partition& p = PartitionFor(e.agent_id, e.start_time);
  p.Append(e);
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
  static std::atomic<uint64_t> last_generation{0};
  generation_ = last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  for (auto& [key, p] : partitions_) {
    p->Finalize(options_.build_indexes);
  }
  BuildEntityIndexes();
  ApplyArchivePolicy();
  finalized_ = true;
}

void Database::ApplyArchivePolicy() {
  if (options_.archive_after_days < 0 || partitions_.empty()) {
    return;
  }
  // Decode entries of the previous generation are unreachable (the key
  // carries the archiving generation); drop them now rather than let them
  // hold cache capacity until evicted.
  decode_cache_->Clear();
  const int64_t newest_day = partitions_.rbegin()->first.first;
  for (auto it = partitions_.rbegin(); it != partitions_.rend(); ++it) {
    if (newest_day - it->first.first >= options_.archive_after_days) {
      it->second->Archive(generation_);
    }
  }
}

size_t Database::num_archived_partitions() const {
  size_t n = 0;
  for (const auto& [key, p] : partitions_) {
    n += p->archived() ? 1 : 0;
  }
  return n;
}

StorageFootprint Database::Footprint() const {
  StorageFootprint f;
  f.partitions = partitions_.size();
  for (const auto& [key, p] : partitions_) {
    f.archived_partitions += p->archived() ? 1 : 0;
    f.hot_column_bytes += p->ColumnBytes();
    f.archived_bytes += p->ArchivedBytes();
  }
  return f;
}

void Database::BuildEntityIndexes() {
  file_name_index_.clear();
  proc_exe_index_.clear();
  net_dstip_index_.clear();
  if (!options_.build_indexes) {
    return;
  }
  const auto& files = catalog_->files();
  for (uint32_t i = 0; i < files.size(); ++i) {
    file_name_index_[ToLower(files[i].name)].push_back(i);
  }
  const auto& procs = catalog_->processes();
  for (uint32_t i = 0; i < procs.size(); ++i) {
    proc_exe_index_[ToLower(procs[i].exe_name)].push_back(i);
  }
  const auto& nets = catalog_->networks();
  for (uint32_t i = 0; i < nets.size(); ++i) {
    net_dstip_index_[ToLower(nets[i].dst_ip)].push_back(i);
  }
}

std::vector<uint32_t> Database::FindEntities(EntityType t, const PredExpr& pred,
                                             const std::optional<std::vector<AgentId>>& agents,
                                             ScanStats* stats) const {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::unordered_set<AgentId> agent_set;
  if (agents.has_value()) {
    agent_set.insert(agents->begin(), agents->end());
  }
  auto agent_ok = [&](AgentId a) { return !agents.has_value() || agent_set.count(a) > 0; };
  const ResolvedPred resolved(pred, OwnerOf(t));
  auto matches = [&](uint32_t idx) {
    return resolved.Eval([&](const AttrDef& attr) { return attr.entity(*catalog_, idx); });
  };

  std::vector<uint32_t> out;

  // Index fast path: exact values on the default attribute.
  if (options_.build_indexes) {
    std::vector<Value> values = pred.EqualityValuesFor(DefaultAttr(t).name);
    if (!values.empty()) {
      const std::unordered_map<std::string, std::vector<uint32_t>>* index = nullptr;
      switch (t) {
        case EntityType::kFile:
          index = &file_name_index_;
          break;
        case EntityType::kProcess:
          index = &proc_exe_index_;
          break;
        case EntityType::kNetwork:
          index = &net_dstip_index_;
          break;
      }
      // Index keys are interned lowercase at Finalize(); fold each candidate
      // value into a reused scratch buffer instead of allocating two strings
      // per value (pushdown IN lists reach 10^5 candidates per query).
      std::string key_scratch;
      for (const Value& v : values) {
        ++st->index_lookups;
        if (v.is_string()) {
          ToLowerInto(v.as_string(), &key_scratch);
        } else {
          ToLowerInto(v.ToString(), &key_scratch);
        }
        auto it = index->find(key_scratch);
        if (it == index->end()) {
          continue;
        }
        for (uint32_t idx : it->second) {
          if (!agent_ok(catalog_->AgentOf(t, idx))) {
            continue;
          }
          if (matches(idx)) {
            out.push_back(idx);
          }
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
  }

  // Catalog scan: entities are few relative to events.
  size_t n = catalog_->CountOf(t);
  for (uint32_t idx = 0; idx < n; ++idx) {
    if (!agent_ok(catalog_->AgentOf(t, idx))) {
      continue;
    }
    if (matches(idx)) {
      out.push_back(idx);
    }
  }
  return out;
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

  // Resolve candidate entity sets from predicates and pushdown.
  std::optional<std::unordered_set<uint32_t>>& subject_set = plan.subject_set;
  if (!q.subject_pred.is_true()) {
    std::vector<uint32_t> found =
        FindEntities(EntityType::kProcess, q.subject_pred, q.agent_ids, st);
    subject_set.emplace(found.begin(), found.end());
  }
  if (q.subject_candidates.has_value()) {
    if (!subject_set.has_value()) {
      subject_set.emplace(q.subject_candidates->begin(), q.subject_candidates->end());
    } else {
      std::unordered_set<uint32_t> merged;
      for (uint32_t idx : *q.subject_candidates) {
        if (subject_set->count(idx) > 0) {
          merged.insert(idx);
        }
      }
      subject_set = std::move(merged);
    }
  }

  std::optional<std::unordered_set<uint32_t>>& object_set = plan.object_set;
  if (!q.object_pred.is_true()) {
    // Files and network connections are recorded as entities of the host the
    // event occurred on, so the event's agent constraint narrows the
    // candidate set; process objects may live on a remote host (cross-host
    // connect events), so their candidates must not be agent-filtered.
    const auto& object_agents = q.object_type == EntityType::kProcess
                                    ? std::optional<std::vector<AgentId>>{}
                                    : q.agent_ids;
    std::vector<uint32_t> found = FindEntities(q.object_type, q.object_pred, object_agents, st);
    object_set.emplace(found.begin(), found.end());
  }
  if (q.object_candidates.has_value()) {
    if (!object_set.has_value()) {
      object_set.emplace(q.object_candidates->begin(), q.object_candidates->end());
    } else {
      std::unordered_set<uint32_t> merged;
      for (uint32_t idx : *q.object_candidates) {
        if (object_set->count(idx) > 0) {
          merged.insert(idx);
        }
      }
      object_set = std::move(merged);
    }
  }

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

void Database::ScanPlannedMorsel(const ScanPlan& plan, const ScanMorsel& m,
                                 std::vector<EventView>* out, ScanStats* stats,
                                 const ScanContext* ctx) const {
  if (m.first) {
    ++stats->partitions_scanned;
  }
  PartitionScanArgs args = plan.ArgsFor(m.survivor, *catalog_, m.begin_row, m.end_row);
  args.decode_cache = decode_cache_.get();
  args.pins = ctx != nullptr ? ctx->pins : nullptr;
  plan.survivors[m.survivor]->Execute(args, out, stats);
}

std::vector<ScanMorsel> BuildScanMorsels(const ScanPlan& plan, uint32_t morsel_rows) {
  std::vector<ScanMorsel> morsels;
  morsels.reserve(plan.survivors.size());
  const auto* subj = plan.subject_set.has_value() ? &*plan.subject_set : nullptr;
  const auto* obj = plan.object_set.has_value() ? &*plan.object_set : nullptr;
  const TimeRange range = plan.query->EffectiveTime();
  for (size_t i = 0; i < plan.survivors.size(); ++i) {
    const Partition* p = plan.survivors[i];
    auto whole = ScanMorsel{static_cast<uint32_t>(i), 0, UINT32_MAX, /*first=*/true};
    // Archived partitions stay whole: splitting needs SliceRows' binary
    // search over start_time, which would force a decode at morsel-build
    // time — before pruning has proven anyone will scan the partition.
    if (morsel_rows == 0 || p->archived() || p->PrefersPostingScan(subj, obj)) {
      morsels.push_back(whole);
      continue;
    }
    auto [lo, hi] = p->SliceRows(range);
    if (hi - lo <= morsel_rows) {
      morsels.push_back(whole);  // empty slices included: they still account
                                 // partitions_scanned, matching the serial path
      continue;
    }
    for (uint32_t begin = lo; begin < hi; begin += morsel_rows) {
      morsels.push_back(ScanMorsel{static_cast<uint32_t>(i), begin,
                                   std::min(begin + morsel_rows, hi), begin == lo});
    }
  }
  return morsels;
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

std::vector<EventView> ScanMorsels(const std::vector<PlannedMorsel>& morsels, ThreadPool* pool,
                                   ScanStats* stats, const ScanContext* ctx) {
  ScanPinScope pin_scope(ctx);
  ctx = pin_scope.ctx();
  // Cooperative stop (cancellation / run deadline): checked between morsels,
  // never per row. A stopped scan returns whatever it has — the executor
  // turns the session state into the user-visible error.
  auto scan = [&](const PlannedMorsel& m, std::vector<EventView>* out, ScanStats* st) {
    if (ctx->ShouldStop()) {
      return;  // claimed but skipped: the queue drains without scanning
    }
    m.db->ScanPlannedMorsel(*m.plan, m.morsel, out, st, ctx);
  };
  std::vector<EventView> out;
  std::vector<size_t> run_starts;
  run_starts.reserve(morsels.size());
  if (pool == nullptr || morsels.size() < 2) {
    for (const PlannedMorsel& m : morsels) {
      run_starts.push_back(out.size());
      scan(m, &out, stats);
    }
  } else {
    // Workers claim the next unclaimed morsel and write into that morsel's
    // slot and their own ScanStats, so no scan state is shared; the slots
    // concatenate in list order regardless of which worker filled them.
    std::vector<std::vector<EventView>> slots(morsels.size());
    std::vector<ScanStats> worker_stats(pool->max_participants());
    pool->RunBulk(morsels.size(), [&](size_t worker, size_t i) {
      scan(morsels[i], &slots[i], &worker_stats[worker]);
    });
    for (const ScanStats& ws : worker_stats) {
      *stats += ws;
    }
    stats->parallel_morsels += morsels.size();
    size_t total = 0;
    for (const auto& slot : slots) {
      total += slot.size();
    }
    out.reserve(total);
    for (const auto& slot : slots) {
      run_starts.push_back(out.size());
      out.insert(out.end(), slot.begin(), slot.end());
    }
  }
  MergeSortedRuns(&out, &run_starts);
  return out;
}

std::vector<EventView> Database::ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                              const ScanContext* ctx) const {
  return ExecuteQueryParallel(q, stats, nullptr, ctx);
}

std::vector<EventView> Database::ScanWithPlan(const ScanPlan& plan, ScanStats* stats,
                                              ThreadPool* pool, const ScanContext* ctx) const {
  ScanStats local;
  // Large partitions split into morsel_rows chunks only when a pool can
  // spread them, so one skewed partition cannot serialize the scan.
  std::vector<ScanMorsel> built =
      BuildScanMorsels(plan, pool != nullptr ? options_.morsel_rows : 0);
  std::vector<PlannedMorsel> morsels;
  morsels.reserve(built.size());
  for (const ScanMorsel& m : built) {
    morsels.push_back(PlannedMorsel{this, &plan, m});
  }
  return ScanMorsels(morsels, pool, stats != nullptr ? stats : &local, ctx);
}

std::vector<EventView> Database::ExecuteQueryParallel(const DataQuery& q, ScanStats* stats,
                                                      ThreadPool* pool,
                                                      const ScanContext* ctx) const {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::optional<ScanPlan> plan = PlanQuery(q, st);
  if (!plan.has_value()) {
    return {};
  }
  return ScanWithPlan(*plan, st, pool, ctx);
}

std::vector<EventView> Database::ExecuteQueryCached(const DataQuery& q, ScanStats* stats,
                                                    ThreadPool* pool, ScanPlanCache* cache,
                                                    uint64_t* cache_hits,
                                                    const ScanContext* ctx) const {
  if (cache == nullptr) {
    return ExecuteQueryParallel(q, stats, pool, ctx);
  }
  std::string key = DataQueryFingerprint(q);
  if (key.empty()) {
    return ExecuteQueryParallel(q, stats, pool, ctx);  // too large to cache
  }
  key.push_back('#');
  key.append(std::to_string(generation_));
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;

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
