#include "concurrency/query_pool.h"

#include <utility>

namespace svr::concurrency {

QueryPool::QueryPool(size_t workers) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryPool::~QueryPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void QueryPool::Finish(Task* task) {
  Batch* batch = task->batch;
  MutexLock lock(batch->mu);
  if (--batch->remaining == 0) batch->done_cv.NotifyAll();
}

void QueryPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task.fn();
    Finish(&task);
  }
}

void QueryPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Batch batch;
  {
    MutexLock lock(batch.mu);
    batch.remaining = tasks.size();
  }

  // The calling thread keeps the last task for itself, then takes back
  // every task of its batch that no worker has started: with one worker
  // and one caller the scatter still runs two lanes, and a pool whose
  // workers are all busy with other batches cannot stall this one.
  std::function<void()> mine = std::move(tasks.back());
  tasks.pop_back();
  {
    MutexLock lock(mu_);
    for (auto& fn : tasks) {
      queue_.push_back(Task{std::move(fn), &batch});
    }
  }
  work_cv_.NotifyAll();

  Task task{std::move(mine), &batch};
  while (task.fn) {
    task.fn();
    Finish(&task);
    task = TakeQueued(&batch);
  }

  // Only tasks a worker already started are left.
  MutexLock lock(batch.mu);
  while (batch.remaining != 0) batch.done_cv.Wait(batch.mu);
}

QueryPool::Task QueryPool::TakeQueued(Batch* batch) {
  MutexLock lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->batch == batch) {
      Task task = std::move(*it);
      queue_.erase(it);
      return task;
    }
  }
  return Task{nullptr, batch};
}

}  // namespace svr::concurrency
