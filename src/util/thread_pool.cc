#include "src/util/thread_pool.h"

#include <atomic>
#include <exception>

namespace aiql {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

// Shared by the caller and the enqueued helper tasks of one RunBulk call;
// helper tasks may start after the call returned (the range already drained),
// so everything they touch lives here behind a shared_ptr.
struct BulkState {
  std::function<void(size_t, size_t)> fn;
  size_t count = 0;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t finished = 0;
  std::exception_ptr error;

  // Claims indices until the range drains; `worker` identifies the
  // participant for the caller's per-worker scratch.
  void Drain(size_t worker) {
    for (;;) {
      size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) {
        return;
      }
      try {
        fn(worker, index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++finished == count) {
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::RunBulk(size_t count, const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) {
    return;
  }
  if (count == 1) {
    fn(0, 0);
    return;
  }
  auto state = std::make_shared<BulkState>();
  state->fn = fn;
  state->count = count;
  // Helper participants beyond the calling thread (worker id 0). Excess
  // helpers beyond count-1 would only claim out-of-range indices.
  size_t helpers = std::min(workers_.size(), count - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      tasks_.push([state, worker = h + 1] { state->Drain(worker); });
    }
  }
  cv_.notify_all();
  state->Drain(0);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->finished == state->count; });
    if (state->error != nullptr) {
      std::rethrow_exception(state->error);
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  RunBulk(n, [&fn](size_t /*worker*/, size_t i) { fn(i); });
}

}  // namespace aiql
