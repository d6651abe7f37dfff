// MPP cluster: the Greenplum-model parallel storage of the paper's §6.3.3.
//
// Events are sharded across N segment databases; the entity catalog is
// replicated (shared). Two distribution policies are implemented:
//   kArrivalRoundRobin — events distributed in arrival (ingest) order, the
//     behavior the paper attributes to stock Greenplum ("distributes the
//     storage of events based on their incoming orders, which is arbitrary");
//   kSemanticsAware    — events distributed by hash of (agent, day), the
//     AIQL data model's placement ("allows Greenplum to evenly distribute
//     events in a host").
// Data queries plan on every segment and scan all surviving (segment,
// partition) pairs in parallel through the storage layer's one scan loop
// (ScanMorsels), gathering merged, order-preserving results; the query engine
// runs unchanged on top.
#ifndef AIQL_SRC_MPP_MPP_CLUSTER_H_
#define AIQL_SRC_MPP_MPP_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/storage/database.h"
#include "src/util/thread_pool.h"

namespace aiql {

enum class DistributionPolicy : uint8_t {
  kArrivalRoundRobin = 0,
  kSemanticsAware = 1,
};

const char* DistributionPolicyName(DistributionPolicy p);

class MppCluster : public EventStore {
 public:
  // `segment_options` configures each segment's local storage (partitioning
  // within a segment mirrors §3.2's optimizations, as in the paper's Fig 7
  // setup where Greenplum also employs the data storage optimizations).
  MppCluster(size_t num_segments, DistributionPolicy policy,
             DatabaseOptions segment_options = {});

  // Shards all events of a finalized database into the segments.
  void BuildFrom(const Database& source);

  size_t num_segments() const { return segments_.size(); }
  DistributionPolicy policy() const { return policy_; }
  const Database& segment(size_t i) const { return *segments_[i]; }
  size_t num_events() const;

  // EventStore interface. The optional ScanContext threads cancellation /
  // deadline into the scan loop and pins decoded archive columns (each
  // segment owns its own decode cache; the archive policy is part of
  // segment_options). Every segment plans locally, then all surviving
  // (segment, partition) pairs pool into one work queue, so a query whose
  // matches concentrate in one segment still parallelizes. The scan runs on
  // `pool`, or on the cluster's own pool when that is null — one thread per
  // segment, like Greenplum's segment servers; ExecuteQuery always uses the
  // cluster's pool. The plan cache is ignored (segments plan per query).
  const EntityCatalog& catalog() const override { return *catalog_; }
  std::vector<EventView> ExecuteQuery(const DataQuery& query, ScanStats* stats,
                                      const ScanContext* ctx = nullptr) const override;
  std::vector<EventView> ExecuteQueryCached(const DataQuery& query, ScanStats* stats,
                                            ThreadPool* pool, ScanPlanCache* /*cache*/,
                                            uint64_t* /*cache_hits*/,
                                            const ScanContext* ctx = nullptr) const override;
  bool SupportsParallelScan() const override { return true; }
  // Prepared-query plan caches honor the segment options' capacity knob.
  size_t PlanCacheCapacity() const override {
    return segments_.empty() ? EventStore::PlanCacheCapacity()
                             : segments_[0]->PlanCacheCapacity();
  }
  TimeRange data_time_range() const override { return range_; }
  bool SupportsDaySplit() const override { return false; }  // own parallelism

 private:
  size_t SegmentFor(const Event& e, size_t arrival_index) const;

  DistributionPolicy policy_;
  std::shared_ptr<EntityCatalog> catalog_;
  std::vector<std::unique_ptr<Database>> segments_;
  std::unique_ptr<ThreadPool> pool_;
  TimeRange range_{INT64_MAX, INT64_MIN};
};

}  // namespace aiql

#endif  // AIQL_SRC_MPP_MPP_CLUSTER_H_
