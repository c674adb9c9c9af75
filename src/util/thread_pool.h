#ifndef QASCA_UTIL_THREAD_POOL_H_
#define QASCA_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/lock_ranks.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qasca::util {

class Counter;
class MetricRegistry;

/// Fixed-size worker pool shared by the HIT-request kernels (Qw estimation
/// and the per-candidate benefit scan; EM refits run serially, DESIGN.md
/// §8). Sized once from AppConfig::num_threads and reused for the engine's
/// lifetime so the per-HIT cost is chunk dispatch, not thread creation.
///
/// Determinism contract (see DESIGN.md "Threading and incrementality"):
/// ParallelFor decomposes [begin, end) into chunks of `grain` indices, and
/// that decomposition depends only on (begin, end, grain) — never on the
/// pool size or on scheduling. Kernels write results indexed by chunk or by
/// element and fold reductions in chunk-index order, so every thread count
/// (including the serial num_threads == 1 path, which runs the same chunks
/// inline in order) produces bit-identical results.
class ThreadPool {
 public:
  /// `num_threads` >= 1. A pool of size 1 spawns no workers at all: every
  /// ParallelFor runs inline on the calling thread, chunk by chunk, which is
  /// the exact serial fallback.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const noexcept { return num_threads_; }

  /// Wires the pool's task counters (tnames::kPoolTasksQueued /
  /// kPoolTasksExecuted) into `registry`. Queued counts chunks handed to
  /// worker threads; executed counts every chunk run, including the inline
  /// serial path. Counting happens once per ParallelFor (not per chunk), on
  /// the dispatching thread. nullptr detaches.
  void AttachTelemetry(MetricRegistry* registry);

  /// Runs `fn(chunk_begin, chunk_end)` over every grain-sized chunk of
  /// [begin, end) and blocks until all chunks finish. `fn` must be safe to
  /// call concurrently from multiple threads and must not depend on chunk
  /// execution order; it must not call ParallelFor on the same pool
  /// (not reentrant). Aborting checks (QASCA_CHECK) inside `fn` terminate
  /// the process as they would on the calling thread.
  void ParallelFor(int begin, int end, int grain,
                   const std::function<void(int, int)>& fn)
      QASCA_EXCLUDES(mutex_);

 private:
  void WorkerLoop() QASCA_EXCLUDES(mutex_);

  const int num_threads_;
  // Counter is internally atomic; the pointers follow the same
  // write-once-before-concurrency protocol as MetricRegistry::recorder_
  // (AttachTelemetry is documented single-threaded setup).
  // analyze:allow(guarded-by-coverage) attach-before-use protocol
  Counter* tasks_queued_ = nullptr;    // chunks dispatched to workers
  // analyze:allow(guarded-by-coverage) attach-before-use protocol
  Counter* tasks_executed_ = nullptr;  // chunks run (inline or worker)
  // Populated in the ctor, joined in the dtor; workers never touch the
  // vector itself. analyze:allow(guarded-by-coverage) ctor/dtor confined
  std::vector<std::thread> workers_;
  Mutex mutex_{lock_ranks::kThreadPool};
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<std::function<void()>> queue_ QASCA_GUARDED_BY(mutex_);
  // Queued + currently-running jobs.
  int in_flight_ QASCA_GUARDED_BY(mutex_) = 0;
  bool stop_ QASCA_GUARDED_BY(mutex_) = false;
};

/// Number of grain-sized chunks ParallelFor will dispatch over [begin, end).
inline int NumChunks(int begin, int end, int grain) {
  return end > begin ? (end - begin + grain - 1) / grain : 0;
}

/// Chunk index of element `i` within the canonical decomposition; kernels
/// use it to address per-chunk partial-result slots.
inline int ChunkIndex(int begin, int i, int grain) {
  return (i - begin) / grain;
}

/// ParallelFor through an optional pool: `pool == nullptr` (or a pool of
/// size 1) runs the same chunks inline in chunk order. This is the form the
/// kernels call so that every caller that has no pool gets the serial path
/// with zero synchronisation cost. The serial path calls `fn` directly, and
/// a pool receives it type-erased by reference (ThreadPool::ParallelFor), so
/// the closure is never copied to the heap, whatever it captures.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int begin, int end, int grain,
                 const Fn& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(begin, end, grain, std::cref(fn));
    return;
  }
  QASCA_CHECK_GT(grain, 0);
  for (int b = begin; b < end; b += grain) {
    fn(b, std::min(b + grain, end));
  }
}

/// Deterministic chunked sum: `chunk_sum(chunk_begin, chunk_end)` returns
/// the serial sum over one chunk; the per-chunk partials are folded in
/// chunk-index order. Because the decomposition and fold order are fixed,
/// the result is bit-identical for every thread count — the serial path
/// folds the same partials in the same order.
template <typename ChunkSum>
double ParallelSum(ThreadPool* pool, int begin, int end, int grain,
                   const ChunkSum& chunk_sum) {
  const int chunks = NumChunks(begin, end, grain);
  if (chunks == 0) return 0.0;
  // Partials land in chunk-index slots and fold in chunk order, so the
  // floating-point association is fixed regardless of scheduling.
  std::vector<double> partials(static_cast<size_t>(chunks), 0.0);
  ParallelFor(pool, begin, end, grain, [&](int b, int e) {
    partials[static_cast<size_t>(ChunkIndex(begin, b, grain))] =
        chunk_sum(b, e);
  });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

}  // namespace qasca::util

#endif  // QASCA_UTIL_THREAD_POOL_H_
