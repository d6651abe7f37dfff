#include "src/storage/partition.h"

#include <algorithm>

namespace aiql {
namespace {

// Threshold under which posting-list access beats a range scan.
constexpr size_t kPostingCandidateLimit = 4096;

// Makes room for `n` more views. `out` may already hold earlier partitions'
// matches (a serial scan emits every partition into one vector), so growth is
// geometric: an exact reserve per partition would recopy everything before
// it, quadratic in the partition count.
void ReserveMore(std::vector<EventView>* out, size_t n) {
  if (out->capacity() - out->size() < n) {
    out->reserve(std::max(out->size() + n, 2 * out->capacity()));
  }
}

// Applies one compiled column filter with the kernel matching its operator:
// branch-free compare loops for the ordered ops, the flat small-set probe or
// the hash fallback for IN / NOT IN.
template <typename T>
size_t ApplyColumnFilter(uint32_t* rows, size_t n, const T* col, const ColumnFilter& f) {
  switch (f.op) {
    case CmpOp::kIn:
    case CmpOp::kNotIn: {
      const bool negate = f.op == CmpOp::kNotIn;
      if (f.values == nullptr) {
        // Mirrors ColumnFilter::Matches: IN with no set never matches,
        // NOT IN with no set always does.
        return negate ? n : 0;
      }
      if (f.values->size() <= kSmallSetProbe) {
        int64_t flat[kSmallSetProbe];
        size_t k = 0;
        for (int64_t v : *f.values) {
          flat[k++] = v;
        }
        return kernels::SelectSmallSet(rows, n, col, flat, k, negate);
      }
      return kernels::SelectHashSet(rows, n, col, *f.values, negate);
    }
    default:
      return kernels::SelectCompare(rows, n, col, f.op, f.value);
  }
}

// Entity membership without a plan bitmap: flat array for small sets (the
// probe is an order-independent OR of equality tests), hash probe otherwise.
template <typename T>
size_t ApplyMembership(uint32_t* rows, size_t n, const T* col,
                       const std::unordered_set<uint32_t>& set) {
  if (set.size() <= kSmallSetProbe) {
    uint32_t flat[kSmallSetProbe];
    size_t k = 0;
    for (uint32_t v : set) {
      flat[k++] = v;
    }
    return kernels::SelectSmallSet(rows, n, col, flat, k, /*negate=*/false);
  }
  return kernels::SelectHashSet(rows, n, col, set, /*negate=*/false);
}

void DecodeOneColumn(const ArchivedColumns& a, EventColumnId id, EventColumns* out) {
  EventColumns::ForEachColumn([&](EventColumnId c, auto column, auto) {
    if (c == id) {
      DecodeColumn(a.cols[static_cast<int>(c)], &(out->*column));
    }
  });
}

size_t DecodedColumnBytes(EventColumnId id, size_t rows) {
  size_t bytes = 0;
  EventColumns::ForEachColumn([&](EventColumnId c, auto column, auto) {
    if (c == id) {
      bytes = rows * sizeof((EventColumns{}.*column)[0]);
    }
  });
  return bytes;
}

void DecodeAllColumns(const ArchivedColumns& a, EventColumns* out) {
  for (int i = 0; i < kNumEventColumns; ++i) {
    DecodeOneColumn(a, static_cast<EventColumnId>(i), out);
  }
}

}  // namespace

ArchivedColumns EncodeEventColumns(const EventColumns& cols) {
  ArchivedColumns a;
  a.count = static_cast<uint32_t>(cols.size());
  EventColumns::ForEachColumn([&](EventColumnId c, auto column, auto) {
    a.cols[static_cast<int>(c)] = EncodeColumn(cols.*column);
  });
  return a;
}

const EventColumns* DecodedPartition::Ensure(EventColumnMask mask, ScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const EventColumnMask missing = static_cast<EventColumnMask>(mask & ~decoded_);
  if (missing == 0) {
    return &cols_;
  }
  size_t decoded_bytes = 0;
  size_t archived_bytes = 0;
  for (int i = 0; i < kNumEventColumns; ++i) {
    const auto id = static_cast<EventColumnId>(i);
    if ((missing & ColumnBit(id)) == 0) {
      continue;
    }
    DecodeOneColumn(*src_, id, &cols_);
    decoded_bytes += DecodedColumnBytes(id, src_->count);
    archived_bytes += src_->cols[i].EncodedBytes();
  }
  decoded_ = static_cast<EventColumnMask>(decoded_ | missing);
  if (stats != nullptr) {
    stats->decoded_bytes += decoded_bytes;
    stats->archived_bytes += archived_bytes;
  }
  return &cols_;
}

std::shared_ptr<DecodedPartition> DecodeCache::Acquire(const Partition* p, ScanStats* stats) {
  const Key key{p, p->archive_generation()};
  if (std::shared_ptr<DecodedPartition> hit = cache_.Find(key)) {
    return hit;
  }
  std::shared_ptr<DecodedPartition> entry;
  {
    // Serializes revive-or-create, so racing threads share one entry.
    std::lock_guard<std::mutex> lock(live_mu_);
    LiveEntry& live = live_[p];
    if (live.generation == key.second) {
      entry = live.entry.lock();
    }
    if (entry == nullptr) {
      entry = std::make_shared<DecodedPartition>(p->archived_columns());
      live = LiveEntry{key.second, entry};
      if (stats != nullptr) {
        ++stats->partitions_decoded;
      }
    }
  }
  return cache_.Insert(key, std::move(entry));
}

void DecodeCache::Clear() {
  std::lock_guard<std::mutex> lock(live_mu_);
  live_.clear();
  cache_.Clear();
}

void Partition::Append(const Event& e) {
  if (archived_ != nullptr) {
    DecodeAllColumns(*archived_, &cols_);
    archived_.reset();
  }
  finalized_ = false;
  cols_.Append(e);
}

void Partition::Archive(uint64_t generation) {
  if (archived_ != nullptr || !finalized_ || cols_.size() == 0) {
    return;
  }
  archive_generation_ = generation;
  archived_ = std::make_unique<ArchivedColumns>(EncodeEventColumns(cols_));
  cols_ = EventColumns();  // release the decoded buffers, not just clear them
}

void Partition::AddEventCounts(EntityEventCounts* counts) const {
  auto bump = [](std::vector<uint32_t>* c, uint32_t idx, uint32_t n) {
    if (idx < c->size()) {
      (*c)[idx] += n;
    }
  };
  if (has_indexes_) {
    // Each key's rows are one CSR range: its count is an offset difference.
    const PostingIndex& subj = subject_postings_;
    for (size_t k = 0; k < subj.keys.size(); ++k) {
      bump(&counts->subject, static_cast<uint32_t>(subj.keys[k]),
           subj.offsets[k + 1] - subj.offsets[k]);
    }
    const PostingIndex& obj = object_postings_;
    for (size_t k = 0; k < obj.keys.size(); ++k) {
      bump(&counts->object[obj.keys[k] >> 32], static_cast<uint32_t>(obj.keys[k]),
           obj.offsets[k + 1] - obj.offsets[k]);
    }
    return;
  }
  // Built without posting rows: count the entity columns (an archived
  // partition decodes them transiently).
  EventColumns decoded;
  const EventColumns* cols = &cols_;
  if (archived_ != nullptr) {
    for (EventColumnId id :
         {EventColumnId::kSubjectIdx, EventColumnId::kObjectIdx, EventColumnId::kObjectType}) {
      DecodeOneColumn(*archived_, id, &decoded);
    }
    cols = &decoded;
  }
  for (size_t r = 0; r < cols->subject_idx.size(); ++r) {
    bump(&counts->subject, cols->subject_idx[r], 1);
    bump(&counts->object[static_cast<size_t>(cols->object_type[r])], cols->object_idx[r], 1);
  }
}

size_t Partition::ColumnBytes() const {
  size_t total = 0;
  for (int i = 0; i < kNumEventColumns; ++i) {
    total += DecodedColumnBytes(static_cast<EventColumnId>(i), cols_.size());
  }
  return total;
}

void Partition::Finalize(bool build_indexes) {
  if (finalized_) {
    return;
  }
  // (start_time, id) — not just start_time: scan emission order IS the
  // engine-wide result order (MergeSortedRuns merges per-partition runs
  // without re-sorting), and AppendRaw replay can ingest equal-timestamp
  // events with descending ids.
  struct SortKey {
    TimestampMs start_time;
    int64_t id;
    uint32_t row;
  };
  const size_t n = cols_.size();
  std::vector<SortKey> keys(n);
  for (uint32_t r = 0; r < n; ++r) {
    keys[r] = SortKey{cols_.start_time[r], cols_.id[r], r};
  }
  auto less = [](const SortKey& a, const SortKey& b) {
    return a.start_time != b.start_time ? a.start_time < b.start_time : a.id < b.id;
  };
  if (!std::is_sorted(keys.begin(), keys.end(), less)) {
    std::sort(keys.begin(), keys.end(), less);
  }
  // The gather also trims each column to its size (ingest grows by doubling).
  EventColumns::ForEachColumn([&](EventColumnId, auto column, auto) {
    auto& col = cols_.*column;
    std::remove_reference_t<decltype(col)> sorted(n);
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = col[keys[i].row];
    }
    col = std::move(sorted);
  });

  subject_postings_ = PostingIndex::Subjects(cols_, build_indexes);
  object_postings_ = PostingIndex::Objects(cols_, build_indexes);
  zone_ = ZoneMap(cols_, subject_postings_, object_postings_);
  has_indexes_ = build_indexes;
  finalized_ = true;
}

void Partition::ForEachEvent(const std::function<void(const Event&)>& fn) const {
  if (archived_ != nullptr) {
    // Bulk export (graph/MPP builds): a transient full decode, not routed
    // through the decode cache — nothing here outlives the call.
    EventColumns tmp;
    DecodeAllColumns(*archived_, &tmp);
    for (uint32_t i = 0; i < tmp.size(); ++i) {
      Event e = tmp.Materialize(i);
      fn(e);
    }
    return;
  }
  for (uint32_t i = 0; i < cols_.size(); ++i) {
    Event e = cols_.Materialize(i);
    fn(e);
  }
}

std::pair<size_t, size_t> Partition::TimeSlice(const EventColumns* cols,
                                               const TimeRange& range) {
  const auto& ts = cols->start_time;
  auto lo = std::lower_bound(ts.begin(), ts.end(), range.begin);
  auto hi = std::lower_bound(ts.begin(), ts.end(), range.end);
  return {static_cast<size_t>(lo - ts.begin()), static_cast<size_t>(hi - ts.begin())};
}

bool Partition::CanMatch(const TimeRange& range, const DataQuery& q,
                         const CompiledEventPred& pred,
                         const std::unordered_set<AgentId>* agent_set,
                         const CandidateSummary* subjects, const CandidateSummary* objects,
                         ScanStats* stats) const {
  if (size() == 0) {
    return false;
  }
  if (range.begin > max_time() || range.end <= min_time()) {
    return false;
  }
  OpMask mask = static_cast<OpMask>(q.op_mask & pred.op_mask);
  if ((zone_.op_mask & mask) == 0) {
    return false;
  }
  if ((zone_.object_type_mask & (1u << static_cast<int>(q.object_type))) == 0) {
    return false;
  }
  if (agent_set != nullptr && !zone_.ContainsAnyAgent(*agent_set)) {
    return false;
  }
  for (const ColumnFilter& f : pred.filters) {
    if (!f.CanMatchRange(zone_.MinOf(f.col), zone_.MaxOf(f.col))) {
      return false;
    }
  }
  if (subjects != nullptr && !zone_.MayContainSubject(*subjects)) {
    if (stats != nullptr) {
      ++stats->partitions_pruned_entity;
    }
    return false;
  }
  if (objects != nullptr && !zone_.MayContainObject(*objects, q.object_type)) {
    if (stats != nullptr) {
      ++stats->partitions_pruned_entity;
    }
    return false;
  }
  return true;
}

bool Partition::PrefersPostingScan(const std::unordered_set<uint32_t>* subject_set,
                                   const std::unordered_set<uint32_t>* object_set) const {
  if (!has_indexes_) {
    return false;
  }
  return (subject_set != nullptr && subject_set->size() <= kPostingCandidateLimit) ||
         (object_set != nullptr && object_set->size() <= kPostingCandidateLimit);
}

std::unique_ptr<EntityBitmaps> Partition::TranslateCandidateBitmaps(
    const std::unordered_set<uint32_t>* subject_set,
    const std::unordered_set<uint32_t>* object_set,
    const std::unordered_set<AgentId>* agent_set) const {
  EntityBitmaps b;
  bool any = false;
  if (subject_set != nullptr) {
    b.subject = TranslateCandidates(
        *subject_set, static_cast<uint32_t>(zone_.MinOf(EventColumnId::kSubjectIdx)),
        static_cast<uint32_t>(zone_.MaxOf(EventColumnId::kSubjectIdx)), size());
    any |= b.subject.has_value();
  }
  if (object_set != nullptr) {
    b.object = TranslateCandidates(
        *object_set, static_cast<uint32_t>(zone_.MinOf(EventColumnId::kObjectIdx)),
        static_cast<uint32_t>(zone_.MaxOf(EventColumnId::kObjectIdx)), size());
    any |= b.object.has_value();
  }
  // The agent stage only runs when some zone agent is outside the candidate
  // set; a bitmap for a partition whose agents all qualify would never be
  // probed.
  if (agent_set != nullptr && !zone_.agents.empty() && AgentFilterActive(agent_set)) {
    b.agent =
        TranslateCandidates(*agent_set, zone_.agents.front(), zone_.agents.back(), size());
    any |= b.agent.has_value();
  }
  if (!any) {
    return nullptr;
  }
  return std::make_unique<EntityBitmaps>(std::move(b));
}

bool Partition::PostingCandidates(const DataQuery& q,
                                  const std::unordered_set<uint32_t>* subject_set,
                                  const std::unordered_set<uint32_t>* object_set, size_t lo,
                                  size_t hi, std::vector<uint32_t>* offsets,
                                  ScanStats* stats) const {
  if (!has_indexes_) {
    return false;
  }
  const bool subj_indexed = subject_set != nullptr && subject_set->size() <= kPostingCandidateLimit;
  const bool obj_indexed = object_set != nullptr && object_set->size() <= kPostingCandidateLimit;
  if (!subj_indexed && !obj_indexed) {
    return false;
  }
  // Prefer the smaller candidate set.
  bool use_subject = subj_indexed;
  if (subj_indexed && obj_indexed) {
    use_subject = subject_set->size() <= object_set->size();
  }
  std::vector<uint32_t> raw;
  if (use_subject) {
    for (uint32_t idx : *subject_set) {
      ++stats->index_lookups;
      const std::span<const uint32_t> rows = subject_postings_.Find(idx);
      raw.insert(raw.end(), rows.begin(), rows.end());
    }
  } else {
    for (uint32_t idx : *object_set) {
      ++stats->index_lookups;
      const std::span<const uint32_t> rows =
          object_postings_.Find(PackObjectKey(q.object_type, idx));
      raw.insert(raw.end(), rows.begin(), rows.end());
    }
  }
  std::sort(raw.begin(), raw.end());
  offsets->reserve(raw.size());
  for (uint32_t off : raw) {
    if (off >= lo && off < hi) {
      offsets->push_back(off);
    }
  }
  return true;
}

bool Partition::AgentFilterActive(const std::unordered_set<AgentId>* agent_set) const {
  if (agent_set == nullptr) {
    return false;
  }
  for (AgentId a : zone_.agents) {
    if (agent_set->count(a) == 0) {
      return true;
    }
  }
  return false;
}

bool Partition::NeedsFiltering(const PartitionScanArgs& args) const {
  const DataQuery& q = *args.query;
  const CompiledEventPred& pred = *args.pred;
  if (OpFilterActive(static_cast<OpMask>(q.op_mask & pred.op_mask))) {
    return true;
  }
  if (TypeFilterActive(q.object_type)) {
    return true;
  }
  if (args.subject_set != nullptr || args.object_set != nullptr) {
    return true;
  }
  if (!pred.residual.is_true()) {
    return true;
  }
  for (const ColumnFilter& f : pred.filters) {
    if (ColumnFilterActive(f)) {
      return true;
    }
  }
  return AgentFilterActive(args.agent_set);
}

void Partition::EmitRange(const EventColumns* cols, size_t lo, size_t hi,
                          std::vector<EventView>* out, ScanStats* stats) const {
  stats->events_matched += hi - lo;
  ReserveMore(out, hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    out->push_back(EventView(cols, static_cast<uint32_t>(i)));
  }
}

void Partition::EmitSel(const EventColumns* cols, const std::vector<uint32_t>& sel,
                        std::vector<EventView>* out, ScanStats* stats) const {
  stats->events_matched += sel.size();
  ReserveMore(out, sel.size());
  for (uint32_t r : sel) {
    out->push_back(EventView(cols, r));
  }
}

EventColumnMask Partition::ScanColumnMask(const PartitionScanArgs& args) const {
  const DataQuery& q = *args.query;
  const CompiledEventPred& pred = *args.pred;
  if (!pred.residual.is_true()) {
    return kAllEventColumns;  // row-at-a-time attribute access
  }
  EventColumnMask m = ColumnBit(EventColumnId::kStartTime);
  if (OpFilterActive(static_cast<OpMask>(q.op_mask & pred.op_mask))) {
    m |= ColumnBit(EventColumnId::kOp);
  }
  if (TypeFilterActive(q.object_type)) {
    m |= ColumnBit(EventColumnId::kObjectType);
  }
  for (const ColumnFilter& f : pred.filters) {
    if (ColumnFilterActive(f)) {
      m |= ColumnBit(f.col);
    }
  }
  if (AgentFilterActive(args.agent_set)) {
    m |= ColumnBit(EventColumnId::kAgentId);
  }
  if (args.subject_set != nullptr) {
    m |= ColumnBit(EventColumnId::kSubjectIdx);
  }
  if (args.object_set != nullptr) {
    m |= ColumnBit(EventColumnId::kObjectIdx);
  }
  return m;
}

void Partition::VectorScan(std::vector<uint32_t>* sel, const PartitionScanArgs& args,
                           const EventColumns* cols, DecodedPartition* dec,
                           std::vector<EventView>* out, ScanStats* stats) const {
  const DataQuery& q = *args.query;
  const CompiledEventPred& pred = *args.pred;
  stats->events_scanned += sel->size();
  uint32_t* rows = sel->data();
  size_t n = sel->size();

  // Operation mask — skipped when the zone map proves every row qualifies.
  OpMask mask = static_cast<OpMask>(q.op_mask & pred.op_mask);
  if (OpFilterActive(mask)) {
    n = kernels::SelectOpMask(rows, n, cols->op.data(), static_cast<uint32_t>(mask));
  }

  // Object entity type — partitions usually hold a mix of types. Runs before
  // the object membership probe, so that probe only ever sees rows of the
  // query's object type.
  if (TypeFilterActive(q.object_type)) {
    n = kernels::SelectEq(rows, n, cols->object_type.data(), q.object_type);
  }

  // Compiled numeric filters, cheapest predicates first; each is skipped when
  // the zone map proves it true for the whole partition.
  for (const ColumnFilter& f : pred.filters) {
    if (n == 0) {
      break;
    }
    if (!ColumnFilterActive(f)) {
      continue;
    }
    EventColumns::ForEachColumn([&](EventColumnId c, auto column, auto) {
      if (c == f.col) {
        n = ApplyColumnFilter(rows, n, (cols->*column).data(), f);
      }
    });
  }

  // Membership stages, strongest probe available first: plan-built dense
  // bitmap (bit test) > flat small-set array > hash set.
  const EntityBitmaps* bm = args.bitmaps;

  // Spatial constraint — skipped when every agent in the partition qualifies.
  if (n > 0 && AgentFilterActive(args.agent_set)) {
    if (bm != nullptr && bm->agent.has_value()) {
      stats->bitmap_probes += n;
      n = kernels::SelectBitmap(rows, n, cols->agent_id.data(), *bm->agent);
    } else {
      n = ApplyMembership(rows, n, cols->agent_id.data(), *args.agent_set);
    }
  }

  // Entity membership probes.
  if (args.subject_set != nullptr && n > 0) {
    if (bm != nullptr && bm->subject.has_value()) {
      stats->bitmap_probes += n;
      n = kernels::SelectBitmap(rows, n, cols->subject_idx.data(), *bm->subject);
    } else {
      n = ApplyMembership(rows, n, cols->subject_idx.data(), *args.subject_set);
    }
  }
  if (args.object_set != nullptr && n > 0) {
    if (bm != nullptr && bm->object.has_value()) {
      stats->bitmap_probes += n;
      n = kernels::SelectBitmap(rows, n, cols->object_idx.data(), *bm->object);
    } else {
      n = ApplyMembership(rows, n, cols->object_idx.data(), *args.object_set);
    }
  }

  // Residual predicate: row-at-a-time over whatever survives.
  if (!pred.residual.is_true() && n > 0) {
    n = kernels::SelectIf(rows, n, [&](uint32_t r) {
      const EventView v(cols, r);
      return pred.residual.Eval(
          [&](const AttrDef& attr) { return attr.event(v, *args.catalog); });
    });
  }

  sel->resize(n);
  // Archived partitions decoded only the filter columns so far; surviving
  // rows become EventViews, so add the columns their consumers read.
  if (dec != nullptr && n > 0) {
    cols = dec->Ensure(q.columns, stats);
  }
  EmitSel(cols, *sel, out, stats);
}

void Partition::Execute(const PartitionScanArgs& args, std::vector<EventView>* out,
                        ScanStats* stats) const {
  const DataQuery& q = *args.query;
  TimeRange range = q.EffectiveTime();
  if (range.empty() || size() == 0 || range.begin > max_time() || range.end <= min_time()) {
    return;
  }

  // Archive tier: every pruning opportunity above (zone times, and the plan's
  // CanMatch before that) ran without touching an encoded byte. A partition
  // that reaches this point decodes — only the columns the filters need now;
  // the query's emission columns on first emitted row. The decode-cache
  // entry is pinned for the duration of this call, and registered with the
  // caller's ColumnPins so the emitted EventViews outlive cache eviction.
  const EventColumns* cols = &cols_;
  std::shared_ptr<DecodedPartition> decoded;
  DecodedPartition* dec = nullptr;
  if (archived_ != nullptr) {
    decoded = args.decode_cache->Acquire(this, stats);
    if (args.pins != nullptr) {
      args.pins->Add(decoded);
    }
    dec = decoded.get();
    cols = dec->Ensure(ScanColumnMask(args), stats);
  }

  auto [lo, hi] = TimeSlice(cols, range);
  if (lo >= hi) {
    return;
  }

  // Access path selection: when a side has a small candidate set and postings
  // exist, union the posting lists instead of scanning the time slice.
  std::vector<uint32_t> sel;
  bool from_postings =
      PostingCandidates(q, args.subject_set, args.object_set, lo, hi, &sel, stats);

  // Fast path: the zone map proves every row in the slice matches — emit the
  // whole range without materializing a selection vector.
  if (!from_postings && !NeedsFiltering(args)) {
    stats->events_scanned += hi - lo;
    if (dec != nullptr) {
      cols = dec->Ensure(q.columns, stats);
    }
    EmitRange(cols, lo, hi, out, stats);
    return;
  }
  if (!from_postings) {
    sel.resize(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      sel[i - lo] = static_cast<uint32_t>(i);
    }
  }
  VectorScan(&sel, args, cols, dec, out, stats);
}

}  // namespace aiql
