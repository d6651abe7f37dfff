#include "src/core/executor.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>

#include "src/storage/entity_search.h"
#include "src/storage/plan_cache.h"

namespace aiql {

const char* SchedulerKindName(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRelationship:
      return "aiql";
    case SchedulerKind::kFetchFilter:
      return "aiql-ff";
    case SchedulerKind::kBigJoin:
      return "bigjoin";
  }
  return "?";
}

const char* RelationshipOrderingName(RelationshipOrdering o) {
  switch (o) {
    case RelationshipOrdering::kCost:
      return "cost";
    case RelationshipOrdering::kPaper:
      return "paper";
    case RelationshipOrdering::kNone:
      return "none";
  }
  return "?";
}

Status ResolveCandidates(const EventStore& db, DataQuery* query, ExecutionSession* session) {
  const ScanContext& stop = session->scan;
  if (Status s = stop.StopStatus(); !s.ok()) {
    return s;
  }
  if (query->subject_pred.is_true() && query->object_pred.is_true()) {
    return Status::Ok();
  }
  const EntityCatalog& catalog = db.catalog();
  ScanPlanCache* cache = session->plan_cache;
  std::string key = cache != nullptr ? EntityResolutionFingerprint(*query) : std::string();
  if (!key.empty()) {
    key.push_back('#');
    key.append(std::to_string(catalog.generation()));
  }
  std::shared_ptr<const ScanPlanCache::Resolution> found =
      key.empty() ? nullptr : cache->FindResolution(key);
  if (found == nullptr) {
    auto fresh = std::make_shared<ScanPlanCache::Resolution>();
    auto resolve = [&](EntitySide side, EntityType type, const PredExpr& pred,
                       const std::optional<std::vector<AgentId>>& agents) {
      return std::make_shared<const EntityCandidates>(MakeCandidates(
          catalog, *query, side,
          ResolveEntities(catalog, type, pred, agents, &fresh->stats, &stop),
          /*narrowed=*/false));
    };
    if (!query->subject_pred.is_true()) {
      fresh->subject =
          resolve(EntitySide::kSubject, EntityType::kProcess, query->subject_pred,
                  query->agent_ids);
    }
    if (!query->object_pred.is_true()) {
      fresh->object = resolve(EntitySide::kObject, query->object_type, query->object_pred,
                              ObjectSideAgents(*query));
    }
    // A stopped resolution is partial: fail before it is used or memoized.
    if (Status s = stop.StopStatus(); !s.ok()) {
      return s;
    }
    found = key.empty() ? std::move(fresh) : cache->InsertResolution(std::move(key), fresh);
  }
  query->subject_candidates = found->subject;
  query->object_candidates = found->object;
  session->stats.scan += found->stats;
  return Status::Ok();
}

std::vector<EventView> FetchDataQuery(const EventStore& db, const DataQuery& query,
                                      const ExecOptions& options, ThreadPool* pool,
                                      ExecutionSession* session, const ScanContext* ctx) {
  ExecStats* stats = &session->stats;
  ++stats->data_queries;
  bool parallel = pool != nullptr && options.parallelism > 1;
  // Primary path: hand the pool to the store, which enumerates its pruning
  // survivors into a morsel queue (Database partitions, MPP segment
  // partitions) — fan-out lives where the data lives. The session's plan
  // cache lets stores that support it (Database) skip replanning repeated
  // constraint sets.
  if (parallel && options.storage_parallel && db.SupportsParallelScan()) {
    return db.ExecuteQueryCached(query, &stats->scan, pool, session->plan_cache,
                                 &stats->plan_cache_hits, ctx);
  }
  // Fallback for stores without internal parallelism: split multi-day time
  // windows into per-day sub-queries and run those on the pool.
  TimeRange range = query.EffectiveTime().Intersect(db.data_time_range());
  bool can_split = parallel && db.SupportsDaySplit() && !range.empty();
  if (can_split) {
    int64_t first_day = DayIndex(range.begin);
    int64_t last_day = DayIndex(range.end - 1);
    if (last_day > first_day) {
      size_t num_days = static_cast<size_t>(last_day - first_day + 1);
      struct DaySlice {
        std::vector<EventView> events;
        ScanStats stats;
      };
      std::vector<DaySlice> slices(num_days);
      pool->ParallelFor(num_days, [&](size_t k) {
        if (ctx != nullptr && ctx->ShouldStop()) {
          return;
        }
        DataQuery sub = query;
        TimeRange day{DayStart(first_day + static_cast<int64_t>(k)),
                      DayStart(first_day + static_cast<int64_t>(k) + 1)};
        sub.pushed_time = query.pushed_time.has_value() ? query.pushed_time->Intersect(day) : day;
        slices[k].events = db.ExecuteQuery(sub, &slices[k].stats, ctx);
      });
      std::vector<EventView> out;
      size_t total = 0;
      for (const DaySlice& slice : slices) {
        total += slice.events.size();
      }
      out.reserve(total);
      for (const DaySlice& slice : slices) {
        // Day slices are internally sorted and day-disjoint, so appending in
        // day order preserves the global (start_time, id) order.
        out.insert(out.end(), slice.events.begin(), slice.events.end());
        stats->scan += slice.stats;
      }
      stats->parallel_slices += num_days;
      return out;
    }
  }
  return db.ExecuteQueryCached(query, &stats->scan, nullptr, session->plan_cache,
                               &stats->plan_cache_hits, ctx);
}

std::vector<EventView> FetchPattern(const EventStore& db, const QueryContext& ctx,
                                    size_t pattern, const DataQuery& query,
                                    const ExecOptions& options, ThreadPool* pool,
                                    ExecutionSession* session) {
  std::vector<EventView> events =
      FetchDataQuery(db, query, options, pool, session, &session->scan);
  // Intra-pattern attribute relationships (e.g. p1.user = f1.owner within
  // one pattern) filter single events.
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.IsIntraPattern() && rel.left_pattern == pattern) {
      std::erase_if(events, [&](const EventView& e) {
        return !CheckAttrRel(rel, e, e, db.catalog());
      });
    }
  }
  session->stats.pattern_matches[pattern] = events.size();
  return events;
}

namespace {

// Rows a fetch of `query` is expected to return: the smallest event count of
// its candidate sides, or, with no side resolved, the events of its agents
// (of the whole store without an agent constraint).
uint64_t EstimateRows(const EntityCatalog& catalog, const DataQuery& query) {
  if (query.subject_candidates == nullptr && query.object_candidates == nullptr) {
    return catalog.AgentEvents(query.agent_ids);
  }
  uint64_t rows = UINT64_MAX;
  for (const EntityCandidates* c :
       {query.subject_candidates.get(), query.object_candidates.get()}) {
    if (c != nullptr) {
      rows = std::min(rows, c->events);
    }
  }
  return rows;
}

// Pushdown is skipped when the candidate value set exceeds this size.
constexpr size_t kPushdownValueLimit = 262144;

// Pattern type rank for relationship ordering: the paper sorts relationships
// over process/network events ahead of file events (§5.2 step 2).
int PatternTypeRank(const QueryContext& ctx, size_t pattern) {
  return ctx.patterns[pattern].query.object_type == EntityType::kFile ? 1 : 0;
}

std::vector<Relationship> SortedRelationships(const QueryContext& ctx,
                                              std::vector<Relationship> rels) {
  std::vector<size_t> scores(ctx.patterns.size());
  for (size_t i = 0; i < ctx.patterns.size(); ++i) {
    scores[i] = ctx.patterns[i].PruningScore();
  }
  std::vector<size_t> order(rels.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = PatternTypeRank(ctx, rels[a].left()) + PatternTypeRank(ctx, rels[a].right());
    int rb = PatternTypeRank(ctx, rels[b].left()) + PatternTypeRank(ctx, rels[b].right());
    if (ra != rb) {
      return ra < rb;
    }
    size_t sa = scores[rels[a].left()] + scores[rels[a].right()];
    size_t sb = scores[rels[b].left()] + scores[rels[b].right()];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  });
  std::vector<Relationship> out;
  out.reserve(rels.size());
  for (size_t i : order) {
    out.push_back(rels[i]);
  }
  return out;
}

class MultieventExecutor {
 public:
  MultieventExecutor(const EventStore& db, const QueryContext& ctx, const ExecOptions& options,
                     ThreadPool* pool, ExecutionSession* session)
      : db_(db),
        ctx_(ctx),
        options_(options),
        pool_(pool),
        session_(session),
        stats_(&session->stats),
        budget_(options.max_join_work, &session->scan),
        joiner_(db.catalog(), &budget_,
                JoinStrategy{.indexed = options.scheduler != SchedulerKind::kBigJoin}),
        m_(ctx.patterns.size()) {
    stats_->pattern_matches.assign(ctx.patterns.size(), 0);
    // The session's scan context is the run's one stop check (see
    // ExecutionSession::scan). AiqlEngine::ExecuteContext already folded the
    // session's budget override into options.time_budget_ms.
    session->scan.ArmDeadline(options.time_budget_ms);
  }

  Result<TupleSet> Run() {
    Status status = ResolvePatterns();
    if (status.ok()) {
      status = options_.scheduler == SchedulerKind::kBigJoin ? RunBigJoin()
                                                             : RunRelationshipLoop();
    }
    stats_->join_work = budget_.rows_produced();
    // The per-step checks run BEFORE each fetch; a cancel or deadline firing
    // during the final scan stops that scan mid-plan with no later check to
    // notice. A stop here means the matches may be truncated, so the run
    // must fail rather than pass them off as the answer.
    if (status.ok()) {
      status = CheckStop();
    }
    if (!status.ok()) {
      return Result<TupleSet>(status);
    }
    stats_->final_tuples = m_[0]->num_rows();
    return std::move(*m_[0]);
  }

 private:
  size_t Score(size_t pattern) const { return ctx_.patterns[pattern].PruningScore(); }

  // Cancellation / scan-deadline check between execution steps. A stopped
  // storage scan returns a partial result, so the run must fail rather than
  // pass truncated matches off as the answer.
  Status CheckStop() const { return session_->scan.StopStatus(); }

  // Copies every pattern's data query and resolves its entity predicates,
  // once per run, before any fetch: the cost ordering reads the candidate
  // sets, pushdown intersects them, and planning takes them as given.
  Status ResolvePatterns() {
    queries_.reserve(ctx_.patterns.size());
    estimates_.reserve(ctx_.patterns.size());
    for (const PatternContext& pattern : ctx_.patterns) {
      DataQuery& q = queries_.emplace_back(pattern.query);
      if (Status s = ResolveCandidates(db_, &q, session_); !s.ok()) {
        return s;
      }
      estimates_.push_back(EstimateRows(db_.catalog(), q));
    }
    return Status::Ok();
  }

  // True when `a` is fetched before `b` when neither is executed: the
  // smaller estimate under the cost ordering, the higher pruning score
  // otherwise; `a` on a tie.
  bool Leads(size_t a, size_t b) const {
    return options_.ordering == RelationshipOrdering::kCost ? estimates_[a] <= estimates_[b]
                                                            : Score(a) >= Score(b);
  }

  // Executes the data query of `pattern` into a singleton set of M, narrowed
  // by the rows `known` already binds for the other endpoint of `rel` when
  // pushdown is on (paper Algorithm 1: "S_j <- execute_{S_i} q_j"). Only the
  // relationship scheduler fetches with a known set: fetch-filter and the
  // big join fetch every pattern up front. Each pattern is fetched once, so
  // pushdown narrows its query in place.
  void Fetch(size_t pattern, const Relationship* rel = nullptr,
             const TupleSet* known = nullptr) {
    DataQuery& q = queries_[pattern];
    if (options_.pushdown && known != nullptr) {
      InjectPushdown(&q, *rel, pattern, *known);
    }
    m_[pattern] = std::make_shared<TupleSet>(TupleSet::FromMatches(
        pattern, FetchPattern(db_, ctx_, pattern, q, options_, pool_, session_)));
  }

  // The entity side an equi-join of `rel` binds on `target`, or nullopt when
  // it binds an event attribute (or an alias).
  static std::optional<EntitySide> TargetSide(const Relationship& rel, size_t target) {
    if (rel.kind != Relationship::Kind::kAttr || !rel.attr.IsEquiJoin()) {
      return std::nullopt;
    }
    switch (rel.attr.left_pattern == target ? rel.attr.left_side : rel.attr.right_side) {
      case RefSide::kSubject:
        return EntitySide::kSubject;
      case RefSide::kObject:
        return EntitySide::kObject;
      case RefSide::kEvent:
      case RefSide::kAlias:
        break;
    }
    return std::nullopt;
  }

  // True when `rel` joins the same entity on both ends (the `id` row of one
  // type on two entity sides): pushdown then carries catalog indices.
  static bool JoinsEntityIds(const Relationship& rel) {
    return rel.kind == Relationship::Kind::kAttr && rel.attr.IsEquiJoin() &&
           rel.attr.left_attr == rel.attr.right_attr && IsEntityId(rel.attr.left_attr) &&
           rel.attr.left_side != RefSide::kEvent && rel.attr.right_side != RefSide::kEvent &&
           rel.attr.left_side != RefSide::kAlias && rel.attr.right_side != RefSide::kAlias;
  }

  // The candidates of `target`'s side of `rel` narrowed to the entities the
  // rows of `known` bind on the other end of the entity-id join `rel`:
  // the known catalog indices, intersected with the side's own candidates.
  std::shared_ptr<const EntityCandidates> IdPushdown(const Relationship& rel, size_t target,
                                                     const TupleSet& known) const {
    const bool target_is_left = rel.attr.left_pattern == target;
    const size_t source = target_is_left ? rel.attr.right_pattern : rel.attr.left_pattern;
    const RefSide source_side = target_is_left ? rel.attr.right_side : rel.attr.left_side;
    const EntitySide side = *TargetSide(rel, target);
    const DataQuery& q = queries_[target];
    // The join attribute is one type's `id`: only rows whose source entity is
    // of that type can bind.
    const EntityType type = side == EntitySide::kSubject ? EntityType::kProcess : q.object_type;
    const EntityCatalog& catalog = db_.catalog();
    std::vector<uint32_t> ids;
    if (static_cast<AttrOwner>(type) == rel.attr.left_attr->owner) {
      const int col = known.ColumnOf(source);
      std::vector<bool> seen(catalog.CountOf(type));
      for (size_t r = 0; r < known.num_rows(); ++r) {
        const EventView& e = known.At(r, col);
        const bool subject = source_side == RefSide::kSubject;
        if (!subject && e.object_type() != type) {
          continue;
        }
        const uint32_t idx = subject ? e.subject_idx() : e.object_idx();
        if (idx < seen.size() && !seen[idx]) {
          seen[idx] = true;
          ids.push_back(idx);
        }
      }
      std::sort(ids.begin(), ids.end());
    }
    return std::make_shared<const EntityCandidates>(
        MakeCandidates(catalog, q, side, Intersect(std::move(ids), q.candidates(side)),
                       /*narrowed=*/true));
  }

  // `ids` restricted to `own` (all of them when the side is unconstrained).
  static std::vector<uint32_t> Intersect(std::vector<uint32_t> ids,
                                         const std::shared_ptr<const EntityCandidates>& own) {
    if (own == nullptr) {
      return ids;
    }
    std::vector<uint32_t> out;
    std::set_intersection(ids.begin(), ids.end(), own->ids.begin(), own->ids.end(),
                          std::back_inserter(out));
    return out;
  }

  // Constrained execution: derive candidate entities / values / time bounds
  // for `target` from the known side of `rel`.
  void InjectPushdown(DataQuery* q, const Relationship& rel, size_t target,
                      const TupleSet& known) {
    size_t source = rel.left() == target ? rel.right() : rel.left();
    int source_col = known.ColumnOf(source);
    if (source_col < 0) {
      return;
    }
    const size_t num_known = known.num_rows();
    const EntityCatalog& catalog = db_.catalog();

    if (JoinsEntityIds(rel)) {
      q->candidates(*TargetSide(rel, target)) = IdPushdown(rel, target, known);
      ++stats_->pushdown_applications;
      return;
    }

    if (rel.kind == Relationship::Kind::kAttr && rel.attr.IsEquiJoin()) {
      bool target_is_left = rel.attr.left_pattern == target;
      RefSide target_side = target_is_left ? rel.attr.left_side : rel.attr.right_side;
      const AttrDef* target_attr = target_is_left ? rel.attr.left_attr : rel.attr.right_attr;
      RefSide source_side = target_is_left ? rel.attr.right_side : rel.attr.left_side;
      const AttrDef* source_attr = target_is_left ? rel.attr.right_attr : rel.attr.left_attr;
      if (target_side == RefSide::kAlias) {
        return;
      }

      std::unordered_set<Value, ValueHash> distinct;
      for (size_t r = 0; r < num_known; ++r) {
        distinct.insert(
            EndpointValue(known.At(r, source_col), source_side, source_attr, catalog));
        if (distinct.size() > kPushdownValueLimit) {
          return;  // candidate set too large to help
        }
      }
      std::vector<Value> values(distinct.begin(), distinct.end());
      PredExpr in_pred =
          PredExpr::Leaf(AttrPredicate::In(std::string(target_attr->name), std::move(values)));
      if (std::optional<EntitySide> side = TargetSide(rel, target); side.has_value()) {
        // An entity attribute: the entities holding a known value, within the
        // side's own candidates; the side's predicate is not evaluated again.
        const bool subject = *side == EntitySide::kSubject;
        std::vector<uint32_t> ids = ResolveEntities(
            catalog, subject ? EntityType::kProcess : q->object_type, in_pred,
            subject ? q->agent_ids : ObjectSideAgents(*q), &stats_->scan, &session_->scan);
        q->candidates(*side) = std::make_shared<const EntityCandidates>(MakeCandidates(
            catalog, *q, *side, Intersect(std::move(ids), q->candidates(*side)),
            /*narrowed=*/true));
      } else {
        q->event_pred = PredExpr::And(std::move(q->event_pred), std::move(in_pred));
      }
      ++stats_->pushdown_applications;
      return;
    }

    if (rel.kind == Relationship::Kind::kTemp) {
      TimestampMs tmin = INT64_MAX, tmax = INT64_MIN;
      for (size_t r = 0; r < num_known; ++r) {
        TimestampMs t = known.At(r, source_col).start_time();
        tmin = std::min(tmin, t);
        tmax = std::max(tmax, t);
      }
      if (tmin > tmax) {
        q->pushed_time = TimeRange{0, 0};  // empty: no source rows
        return;
      }
      TimeRange bound = TempStartWindow(rel.temp, rel.temp.left_pattern == target, tmin, tmax);
      q->pushed_time = q->pushed_time.has_value() ? q->pushed_time->Intersect(bound) : bound;
      ++stats_->pushdown_applications;
    }
  }

  // Joins the sets of patterns `x` (left) and `y` (right) under `rels`, and
  // maps every pattern of either input to the result.
  Status Merge(size_t x, size_t y, const std::vector<Relationship>& rels) {
    const std::shared_ptr<TupleSet> left = m_[x];
    const std::shared_ptr<TupleSet> right = m_[y];
    Result<TupleSet> joined = joiner_.Join(*left, *right, rels);
    if (!joined.ok()) {
      return joined.status();
    }
    auto merged = std::make_shared<TupleSet>(joined.take());
    for (std::shared_ptr<TupleSet>& set : m_) {
      if (set == left || set == right) {
        set = merged;
      }
    }
    return Status::Ok();
  }

  // Algorithm 1's connect step for one relationship. The lead endpoint is
  // the executed one (`a` when both are); with neither executed it is the
  // one that Leads and is fetched plainly. The other endpoint is then
  // fetched with pushdown from the lead's set. Endpoints already in one set
  // filter it; otherwise their sets join.
  Status Connect(const Relationship& rel) {
    const size_t a = rel.left();
    const size_t b = rel.right();
    const size_t lead = m_[a] != nullptr || (m_[b] == nullptr && Leads(a, b)) ? a : b;
    const size_t other = lead == a ? b : a;
    if (m_[lead] == nullptr) {
      Fetch(lead);
    }
    if (m_[other] == nullptr) {
      Fetch(other, &rel, m_[lead].get());
    }
    if (m_[lead] == m_[other]) {
      m_[lead]->Filter(rel, db_.catalog());
      return Status::Ok();
    }
    return Merge(lead, other, {rel});
  }

  // Estimated rows of fetching `pending` through `rel`: its own estimate, or
  // with pushdown on an entity-id join, that of its candidates narrowed to
  // the entities the executed endpoint binds.
  uint64_t PendingEstimate(const Relationship& rel, size_t pending) const {
    const size_t source = rel.left() == pending ? rel.right() : rel.left();
    if (!options_.pushdown || !JoinsEntityIds(rel)) {
      return estimates_[pending];
    }
    const EntitySide side = *TargetSide(rel, pending);
    const EntitySide other_side =
        side == EntitySide::kSubject ? EntitySide::kObject : EntitySide::kSubject;
    uint64_t rows = IdPushdown(rel, pending, *m_[source])->events;
    if (const auto& other = queries_[pending].candidates(other_side); other != nullptr) {
      rows = std::min(rows, other->events);
    }
    return rows;
  }

  // The cost ordering's next relationship among `rels`: one whose endpoints
  // are both executed (a filter or a merge, no fetch) if any; otherwise the
  // one whose pending endpoint — with neither executed, the cheaper one —
  // has the smallest estimate, preferring one that extends an executed set
  // on a tie, then list order.
  size_t NextByCost(const std::vector<const Relationship*>& rels) const {
    size_t best = 0;
    uint64_t best_rows = UINT64_MAX;
    bool best_extends = false;
    for (size_t i = 0; i < rels.size(); ++i) {
      const size_t a = rels[i]->left();
      const size_t b = rels[i]->right();
      if (m_[a] != nullptr && m_[b] != nullptr) {
        return i;
      }
      const bool extends = m_[a] != nullptr || m_[b] != nullptr;
      const uint64_t rows =
          extends ? PendingEstimate(*rels[i], m_[a] != nullptr ? b : a)
                  : std::min(estimates_[a], estimates_[b]);
      if (rows < best_rows || (rows == best_rows && extends && !best_extends)) {
        best = i;
        best_rows = rows;
        best_extends = extends;
      }
    }
    return best;
  }

  Status RunRelationshipLoop() {
    std::vector<Relationship> rels = InterPatternRelationships(ctx_);
    const bool relationship = options_.scheduler == SchedulerKind::kRelationship;
    if (relationship && options_.ordering == RelationshipOrdering::kPaper) {
      rels = SortedRelationships(ctx_, std::move(rels));
    }
    // Fetch-and-filter executes every data query up front (paper §5.2).
    if (options_.scheduler == SchedulerKind::kFetchFilter) {
      for (size_t i = 0; i < m_.size(); ++i) {
        if (Status s = CheckStop(); !s.ok()) {
          return s;
        }
        Fetch(i);
      }
    }
    // The cost ordering picks each next relationship once the previous one
    // has executed; the other orders walk the list.
    std::vector<const Relationship*> pending;
    for (const Relationship& rel : rels) {
      pending.push_back(&rel);
    }
    const bool by_cost = relationship && options_.ordering == RelationshipOrdering::kCost;
    while (!pending.empty()) {
      if (Status s = CheckStop(); !s.ok()) {
        return s;
      }
      const size_t next = by_cost ? NextByCost(pending) : 0;
      if (Status s = Connect(*pending[next]); !s.ok()) {
        return s;
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(next));
    }
    // Step 4: patterns untouched by any relationship.
    for (size_t i = 0; i < m_.size(); ++i) {
      if (m_[i] == nullptr) {
        if (Status s = CheckStop(); !s.ok()) {
          return s;
        }
        Fetch(i);
      }
    }
    // Step 5: cross-join each remaining disjoint set into pattern 0's.
    for (size_t i = 1; i < m_.size(); ++i) {
      if (m_[i] != m_[0]) {
        if (Status s = Merge(0, i, {}); !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }

  // "PostgreSQL scheduling": monolithic left-deep join in written order.
  Status RunBigJoin() {
    for (size_t i = 0; i < m_.size(); ++i) {
      if (Status s = CheckStop(); !s.ok()) {
        return s;
      }
      Fetch(i);
    }
    const std::vector<Relationship> rels = InterPatternRelationships(ctx_);
    for (size_t i = 1; i < m_.size(); ++i) {
      std::vector<Relationship> applicable;
      for (const Relationship& rel : rels) {
        bool touches_i = rel.left() == i || rel.right() == i;
        size_t other = rel.left() == i ? rel.right() : rel.left();
        if (touches_i && other < i) {
          applicable.push_back(rel);
        }
      }
      if (Status s = Merge(0, i, applicable); !s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  const EventStore& db_;
  const QueryContext& ctx_;
  const ExecOptions& options_;
  ThreadPool* pool_;
  ExecutionSession* session_;
  ExecStats* stats_;
  BudgetGuard budget_;
  TupleJoiner joiner_;
  // Each pattern's data query with its resolved candidates, and its
  // estimated rows before any pushdown.
  std::vector<DataQuery> queries_;
  std::vector<uint64_t> estimates_;
  // Algorithm 1's map M: pattern -> the tuple set binding it; null until the
  // pattern is fetched, so "executed" is "has an entry".
  std::vector<std::shared_ptr<TupleSet>> m_;
};

}  // namespace

Result<TupleSet> ExecuteMultievent(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session) {
  ExecutionSession local;
  MultieventExecutor executor(db, ctx, options, pool, session != nullptr ? session : &local);
  return executor.Run();
}

}  // namespace aiql
