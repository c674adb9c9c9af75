#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"

namespace qasca::util {

void ThreadPool::AttachTelemetry(MetricRegistry* registry) {
  if (registry == nullptr) {
    tasks_queued_ = nullptr;
    tasks_executed_ = nullptr;
    return;
  }
  tasks_queued_ = registry->GetCounter(tnames::kPoolTasksQueued);
  tasks_executed_ = registry->GetCounter(tnames::kPoolTasksExecuted);
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  QASCA_CHECK_GE(num_threads, 1);
  // The calling thread blocks in ParallelFor rather than executing chunks
  // itself (keeping the wait logic trivial), so a pool of size T spawns T
  // workers; size 1 spawns none and runs everything inline.
  if (num_threads > 1) {
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(int begin, int end, int grain,
                             const std::function<void(int, int)>& fn) {
  QASCA_CHECK_GT(grain, 0);
  if (end <= begin) return;
  // Serial pool, or a range small enough that one chunk covers it: run
  // inline. Chunk decomposition is identical either way.
  if (workers_.empty() || end - begin <= grain) {
    for (int b = begin; b < end; b += grain) {
      fn(b, std::min(b + grain, end));
    }
    if (tasks_executed_ != nullptr) {
      tasks_executed_->Add(NumChunks(begin, end, grain));
    }
    return;
  }
  {
    MutexLock lock(mutex_);
    QASCA_CHECK_EQ(in_flight_, 0) << "ThreadPool::ParallelFor is not reentrant";
    for (int b = begin; b < end; b += grain) {
      int e = std::min(b + grain, end);
      queue_.emplace_back([&fn, b, e] { fn(b, e); });
      ++in_flight_;
    }
  }
  work_cv_.NotifyAll();
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) done_cv_.Wait(mutex_);
  }
  // Counted after the barrier, on the dispatching thread: every queued
  // chunk has executed by the time ParallelFor returns.
  if (tasks_queued_ != nullptr) {
    const int chunks = NumChunks(begin, end, grain);
    tasks_queued_->Add(chunks);
    tasks_executed_->Add(chunks);
  }
}

}  // namespace qasca::util
