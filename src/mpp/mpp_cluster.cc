#include "src/mpp/mpp_cluster.h"

#include <algorithm>

namespace aiql {

const char* DistributionPolicyName(DistributionPolicy p) {
  switch (p) {
    case DistributionPolicy::kArrivalRoundRobin:
      return "round-robin";
    case DistributionPolicy::kSemanticsAware:
      return "semantics-aware";
  }
  return "?";
}

MppCluster::MppCluster(size_t num_segments, DistributionPolicy policy,
                       DatabaseOptions segment_options)
    : policy_(policy) {
  if (num_segments == 0) {
    num_segments = 1;
  }
  catalog_ = std::make_shared<EntityCatalog>();
  segments_.reserve(num_segments);
  for (size_t i = 0; i < num_segments; ++i) {
    segments_.push_back(std::make_unique<Database>(segment_options, catalog_));
  }
  // The calling thread participates in RunBulk, so num_segments - 1 workers
  // give one scan thread per segment.
  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(1, num_segments - 1));
}

size_t MppCluster::SegmentFor(const Event& e, size_t arrival_index) const {
  if (policy_ == DistributionPolicy::kArrivalRoundRobin) {
    return arrival_index % segments_.size();
  }
  // Semantics-aware: co-locate each (agent, day) slice on one segment, so
  // spatial/temporal constraints prune whole segments.
  uint64_t key = static_cast<uint64_t>(e.agent_id) * 1000003ull +
                 static_cast<uint64_t>(DayIndex(e.start_time));
  return static_cast<size_t>(key % segments_.size());
}

void MppCluster::BuildFrom(const Database& source) {
  // Share the source's catalog so entity indices remain valid in shards.
  catalog_ = source.shared_catalog();
  DatabaseOptions opts = segments_.empty() ? DatabaseOptions{} : segments_[0]->options();
  size_t n = segments_.size();
  segments_.clear();
  for (size_t i = 0; i < n; ++i) {
    segments_.push_back(std::make_unique<Database>(opts, catalog_));
  }
  size_t arrival = 0;
  std::vector<std::vector<Event>> shard(n);
  source.ForEachEvent([&](const Event& e) {
    shard[SegmentFor(e, arrival)].push_back(e);
    ++arrival;
  });
  // Replay into segments preserving ids/sequences from the source.
  for (size_t i = 0; i < n; ++i) {
    // Arrival order within a shard follows source partition order; sort by id
    // to reproduce the original ingest order.
    std::sort(shard[i].begin(), shard[i].end(),
              [](const Event& a, const Event& b) { return a.id < b.id; });
    for (const Event& e : shard[i]) {
      segments_[i]->AppendRaw(e);  // preserve original event ids/sequences
    }
    segments_[i]->Finalize();
  }
  range_ = source.data_time_range();
}

size_t MppCluster::num_events() const {
  size_t total = 0;
  for (const auto& s : segments_) {
    total += s->num_events();
  }
  return total;
}

std::vector<EventView> MppCluster::ExecuteQuery(const DataQuery& query, ScanStats* stats,
                                                const ScanContext* ctx) const {
  return ExecuteQueryParallel(query, stats, pool_.get(), ctx);
}

std::vector<EventView> MppCluster::ExecuteQueryParallel(const DataQuery& query, ScanStats* stats,
                                                        ThreadPool* pool,
                                                        const ScanContext* ctx) const {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  // Plan every segment serially (cheap: zone-map arithmetic; the shared
  // catalog makes entity resolution identical per segment), then queue every
  // surviving (segment, partition) morsel into the one scan loop.
  std::vector<std::optional<ScanPlan>> plans(segments_.size());
  std::vector<PlannedMorsel> morsels;
  for (size_t s = 0; s < segments_.size(); ++s) {
    plans[s] = segments_[s]->PlanQuery(query, st);
    if (!plans[s].has_value()) {
      continue;
    }
    const uint32_t morsel_rows = pool != nullptr ? segments_[s]->options().morsel_rows : 0;
    for (const ScanMorsel& m : BuildScanMorsels(*plans[s], morsel_rows)) {
      morsels.push_back(PlannedMorsel{segments_[s].get(), &*plans[s], m});
    }
  }
  return ScanMorsels(morsels, pool, st, ctx);
}

}  // namespace aiql
