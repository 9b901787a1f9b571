#ifndef SVR_CONCURRENCY_QUERY_POOL_H_
#define SVR_CONCURRENCY_QUERY_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace svr::concurrency {

/// \brief A small persistent thread pool for query-side fan-out: the
/// sharded engine scatters per-shard top-k work across it instead of
/// running the shards sequentially in the calling thread
/// (docs/sharding.md). Many callers may RunAll() concurrently — tasks
/// from different batches interleave freely on the workers, and the
/// calling thread runs every task of its own batch that no worker has
/// started, so a pool of W workers gives a scatter up to W+1 lanes and
/// a batch never waits on a task queued behind other batches.
class QueryPool {
 public:
  /// Spawns `workers` threads (0 is treated as 1).
  explicit QueryPool(size_t workers);
  ~QueryPool();

  QueryPool(const QueryPool&) = delete;
  QueryPool& operator=(const QueryPool&) = delete;

  /// Runs every task and returns once all of them completed. The caller
  /// runs one task, then each task of the batch still queued, and waits
  /// only for tasks a worker already started. Tasks must not themselves
  /// call RunAll on the same pool.
  void RunAll(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

  size_t workers() const { return workers_.size(); }

 private:
  /// Completion counter for one RunAll call. Stack-allocated by the
  /// caller; its mutex is ordered after the pool's queue mutex by
  /// construction (workers only touch it with mu_ released).
  struct Batch {
    Mutex mu;
    CondVar done_cv;
    size_t remaining GUARDED_BY(mu) = 0;
  };
  struct Task {
    std::function<void()> fn;
    Batch* batch;
  };

  void WorkerLoop() EXCLUDES(mu_);
  static void Finish(Task* task);
  /// Removes and returns the first queued task of `batch`; an empty
  /// `fn` when a worker has started all of them.
  Task TakeQueued(Batch* batch) EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  std::deque<Task> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  // Written only by the constructor and joined by the destructor, both
  // of which are exempt from the analysis (single-threaded phases).
  std::vector<std::thread> workers_;
};

}  // namespace svr::concurrency

#endif  // SVR_CONCURRENCY_QUERY_POOL_H_
