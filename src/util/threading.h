// Threading substrate: parallel-region executors, a thread pool,
// Fetch&Inc work distribution, and the atomic best-so-far (BSF) cell.
//
// ParIS/ParIS+/MESSI are structured as *parallel regions*: worker
// threads all execute the same phase function, distributing work items
// among themselves with Fetch&Inc counters (the primitive the papers
// call out explicitly). An Executor runs one region; ThreadPool runs it
// on a fixed set of workers, which may also meet at a barrier (the ParIS
// bulk loader's per-batch one).
#ifndef PARISAX_UTIL_THREADING_H_
#define PARISAX_UTIL_THREADING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace parisax {

/// Atomic shared upper bound used for pruning: the Best-So-Far distance.
/// Readers may see a slightly stale (larger) value, which only weakens
/// pruning, never correctness.
class AtomicMinFloat {
 public:
  explicit AtomicMinFloat(float initial) : value_(initial) {}

  /// Lowers the stored value to `candidate` if it is smaller.
  /// Returns true if this call lowered the value.
  bool UpdateMin(float candidate) {
    float current = value_.load(std::memory_order_relaxed);
    while (candidate < current) {
      if (value_.compare_exchange_weak(current, candidate,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  float Load() const { return value_.load(std::memory_order_acquire); }

  void Reset(float v) { value_.store(v, std::memory_order_release); }

 private:
  std::atomic<float> value_;
};

/// Fetch&Inc work distribution over a range [0, total). Each call to
/// NextBatch claims the next contiguous batch of up to `grain` items.
class WorkCounter {
 public:
  explicit WorkCounter(size_t total) : total_(total) {}

  /// Claims up to `grain` items. Returns false when the range is
  /// exhausted; otherwise sets [*begin, *end).
  bool NextBatch(size_t grain, size_t* begin, size_t* end) {
    const size_t b = next_.fetch_add(grain, std::memory_order_relaxed);
    if (b >= total_) return false;
    *begin = b;
    *end = b + grain < total_ ? b + grain : total_;
    return true;
  }

  /// Claims a single item; returns false when exhausted.
  bool NextItem(size_t* item) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= total_) return false;
    *item = i;
    return true;
  }

  void Reset(size_t total) {
    total_ = total;
    next_.store(0, std::memory_order_relaxed);
  }

  size_t total() const { return total_; }

 private:
  size_t total_;
  std::atomic<size_t> next_{0};
};

/// Abstract parallel-region executor: the degree of parallelism a search
/// phase runs with, decoupled from who owns the threads.
///
/// Run(f) calls f(0) exactly once and f(id) at most once for each other
/// id in [1, num_threads()), and returns when every call has returned.
/// An id may not run at all, so a phase must not wait for a sibling id:
/// it claims its work by Fetch&Inc, and whichever ids run finish it.
/// State sized by num_threads() is indexed by id and may stay untouched.
/// InlineExecutor runs only f(0), on the caller; the query service's
/// helper executor runs f(0) on the caller and lends it the serve
/// workers that are idle (serve/query_service.h); ThreadPool runs every
/// id on its own workers. Query paths written against Executor thus run
/// unchanged fanned out over every core or confined to one thread,
/// which is what lets the serve layer answer many queries at once.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual int num_threads() const = 0;

  /// Runs one parallel region as described above.
  virtual void Run(const std::function<void(int)>& fn) = 0;

  /// Convenience: splits [0, total) into batches of `grain` items claimed
  /// via Fetch&Inc and calls fn(begin, end, worker_id) for each batch.
  void ParallelFor(size_t total, size_t grain,
                   const std::function<void(size_t, size_t, int)>& fn);
};

/// Runs parallel regions serially on the calling thread (worker id 0).
/// Fully re-entrant and shareable: any number of InlineExecutor regions
/// may execute concurrently on different threads, so a query answered
/// through one is safe to run alongside other queries.
class InlineExecutor : public Executor {
 public:
  int num_threads() const override { return 1; }
  void Run(const std::function<void(int)>& fn) override { fn(0); }
};

/// Completion counter for a group of asynchronous tasks: Add() announces
/// work, Done() retires it, Wait() blocks until the outstanding count
/// reaches zero. Reusable (a later Add() re-arms it).
class TaskGroup {
 public:
  void Add(size_t n = 1) {
    MutexLock lock(&mu_);
    outstanding_ += n;
  }

  void Done() {
    MutexLock lock(&mu_);
    if (--outstanding_ == 0) cv_.NotifyAll();
  }

  /// Blocks until every added task has called Done().
  void Wait() {
    MutexLock lock(&mu_);
    while (outstanding_ != 0) cv_.Wait(mu_);
  }

  size_t outstanding() const {
    MutexLock lock(&mu_);
    return outstanding_;
  }

 private:
  mutable Mutex mu_{"TaskGroup::mu_", LockRank::kTaskGroup};
  CondVar cv_;
  size_t outstanding_ PARISAX_GUARDED_BY(mu_) = 0;
};

/// A pool of `num_threads` persistent workers executing parallel regions.
///
/// Run(f) makes every worker execute f(worker_id) once and returns when all
/// have finished. Workers are identified by 0..num_threads-1 so phases can
/// use per-worker state (e.g. MESSI's per-thread iSAX buffer parts).
class ThreadPool : public Executor {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const override { return num_threads_; }

  /// Executes `fn(worker_id)` on every worker, ids 0..num_threads()-1;
  /// blocks until every worker has returned from `fn`. Unlike the other
  /// executors it runs every id, so a phase may wait for its siblings,
  /// as the ParIS bulk loader's per-batch barrier does. Not reentrant:
  /// at most one Run may be active at a time (see util/threading.cpp),
  /// so Engine creates a pool per build, restore, save or compaction.
  void Run(const std::function<void(int)>& fn) override;

 private:
  void WorkerLoop(int id);

  const int num_threads_;
  std::vector<std::thread> threads_;

  Mutex mu_{"ThreadPool::mu_", LockRank::kPool};
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* task_ PARISAX_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ PARISAX_GUARDED_BY(mu_) = 0;
  int active_ PARISAX_GUARDED_BY(mu_) = 0;
  bool shutdown_ PARISAX_GUARDED_BY(mu_) = false;
};

}  // namespace parisax

#endif  // PARISAX_UTIL_THREADING_H_
