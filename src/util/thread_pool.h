// Fixed-size worker pool used for parallel query execution: morsel-driven
// partition scans in the storage layer (Database/MppCluster) and the
// executor's day-split fallback (paper §5.2 "Time Window Partition"). On the
// build side, Database::Finalize runs a transient pool for the duration of
// one call to finalize and archive partitions.
//
// glibc gives each allocating thread its own malloc arena. Work that
// replaces large long-lived buffers (a hot partition's gather, which frees
// the ingest columns and allocates their sorted copies) therefore stays on
// the calling thread: on a worker the copies land in the worker's arena
// while the freed memory idles in the main one, which raised resident
// memory without making Finalize faster (ARCHITECTURE.md, "Finalize").
#ifndef AIQL_SRC_UTIL_THREAD_POOL_H_
#define AIQL_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace aiql {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Upper bound on the number of concurrent participants a RunBulk /
  // ParallelFor call can have: every pool worker plus the calling thread.
  // Callers size per-worker scratch (stats, buffers) by this.
  size_t max_participants() const { return workers_.size() + 1; }

  // Bulk submit-and-wait, the morsel-driven execution primitive: participants
  // (up to size() pool workers plus the calling thread) repeatedly claim the
  // next unclaimed index in [0, count) from a shared atomic cursor until the
  // range drains; returns once every index has finished.
  //
  // `fn(worker, index)` receives the claiming participant's id
  // (worker < max_participants()) so callers can keep per-worker scratch
  // without sharing. Work distribution is dynamic — a participant that draws
  // a large morsel simply claims fewer — but which worker runs which index is
  // nondeterministic; callers must make their merge order index-driven.
  //
  // Safe to call from inside a pool worker: the calling thread participates,
  // so completion never depends on free pool capacity. The first exception
  // thrown by `fn` is rethrown here after the range drains.
  void RunBulk(size_t count, const std::function<void(size_t, size_t)>& fn);

  // Runs fn(i) for i in [0, n) across the pool (calling thread included) and
  // blocks until all finish. Built on RunBulk; kept for callers that need no
  // worker identity.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_THREAD_POOL_H_
