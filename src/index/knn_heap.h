// The thread-safe result sets exact searches prune against: BestNeighbor
// for 1-NN (the best-so-far, BSF) and KnnHeap for kNN. KnnHeap's pruning
// bound is the k-th best distance (or +inf until k results exist), so it
// is monotonically non-increasing and all BSF-based pruning arguments
// carry over.
#ifndef PARISAX_INDEX_KNN_HEAP_H_
#define PARISAX_INDEX_KNN_HEAP_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "core/types.h"
#include "util/mutex.h"
#include "util/threading.h"

namespace parisax {

/// Thread-safe single best neighbor (1-NN result set): the atomic BSF
/// workers prune against, and the (distance, id)-ordered best match.
struct BestNeighbor {
  explicit BestNeighbor(Neighbor seed) : bsf(seed.distance_sq), best(seed) {}

  float Bound() const { return bsf.Load(); }

  void Offer(SeriesId id, float d) {
    if (!bsf.UpdateMin(d) && d > bsf.Load()) return;
    MutexLock lock(&mu);
    if (d < best.distance_sq || (d == best.distance_sq && id < best.id)) {
      best = Neighbor{id, d};
    }
  }

  /// Final answer; the searches read it only after the worker fan-in
  /// (Executor::Run has joined), but it still locks for the analysis
  /// and for any future streaming reader.
  Neighbor Take() const {
    MutexLock lock(&mu);
    return best;
  }

  AtomicMinFloat bsf;
  mutable Mutex mu{"BestNeighbor::mu", LockRank::kResultMerge};
  Neighbor best PARISAX_GUARDED_BY(mu);
};

class KnnHeap {
 public:
  explicit KnnHeap(size_t k) : k_(k) {}

  /// Current pruning bound: the k-th best squared distance seen, +inf if
  /// fewer than k results exist. Lock-free: reads the cached copy, which
  /// is refreshed under the mutex after every insert. A concurrent reader
  /// can observe a slightly stale (larger) bound, which only weakens
  /// pruning, never correctness; single-threaded callers always see the
  /// exact value.
  float Bound() const {
    return cached_bound_.load(std::memory_order_relaxed);
  }

  /// Inserts if the candidate improves the result set. Thread-safe.
  ///
  /// The common case under a converged bound is rejection, so it is
  /// served lock-free from a cached copy of the bound: no mutex and no
  /// O(k) duplicate scan. The comparison is strict (>) because a
  /// candidate tying the k-th distance with a smaller id still wins
  /// under Closer's id tie-break. The cache is only ever >= the true
  /// bound (both shrink monotonically), so a stale read can only let a
  /// doomed candidate through to the locked path, never reject a good
  /// one.
  void Update(const Neighbor& candidate) {
    if (candidate.distance_sq >
        cached_bound_.load(std::memory_order_relaxed)) {
      return;
    }
    MutexLock lock(&mu_);
    if (heap_.size() == k_ && !Closer(candidate, heap_.front())) return;
    // Refuse duplicates (the same id can reach the heap via the
    // approximate phase and again via refinement).
    for (const Neighbor& n : heap_) {
      if (n.id == candidate.id) return;
    }
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), Closer);
    if (heap_.size() > k_) {
      std::pop_heap(heap_.begin(), heap_.end(), Closer);
      heap_.pop_back();
    }
    cached_bound_.store(BoundLocked(), std::memory_order_relaxed);
  }

  /// Results sorted ascending by (distance, id). Thread-safe.
  std::vector<Neighbor> Sorted() const {
    MutexLock lock(&mu_);
    std::vector<Neighbor> out = heap_;
    std::sort(out.begin(), out.end(), Closer);
    return out;
  }

  size_t k() const { return k_; }

 private:
  /// Max-heap order: the worst (largest distance, then largest id)
  /// element sits at the front.
  static bool Closer(const Neighbor& a, const Neighbor& b) {
    return a.distance_sq < b.distance_sq ||
           (a.distance_sq == b.distance_sq && a.id < b.id);
  }

  float BoundLocked() const PARISAX_REQUIRES(mu_) {
    return heap_.size() == k_ ? heap_.front().distance_sq
                              : std::numeric_limits<float>::infinity();
  }

  const size_t k_;
  mutable Mutex mu_{"KnnHeap::mu_", LockRank::kResultMerge};
  std::vector<Neighbor> heap_ PARISAX_GUARDED_BY(mu_);  // max-heap via Closer
  /// Copy of BoundLocked() refreshed under mu_ after every insert; read
  /// without the lock by Update's fast reject path.
  std::atomic<float> cached_bound_{std::numeric_limits<float>::infinity()};
};

}  // namespace parisax

#endif  // PARISAX_INDEX_KNN_HEAP_H_
