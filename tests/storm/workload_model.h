// The storm harness's deterministic oracle: a brute-force model of the
// collection an Engine is expected to serve.
//
// The model is plain data — a growing Dataset mirror plus the list of
// batch-boundary counts — and answers queries with the repository's
// own BruteForce* scans (src/scan/ucr_scan.h), the same kernels and
// (distance, id) tie-break every engine is exact against. Anything the
// backend returns that the model would not is a bug, byte for byte.
//
// Concurrency contract with the runner (one driver thread mutates, N
// actor threads check):
//   * AppendBatch is called by the driver BEFORE the backend sees the
//     batch, so the model always holds a superset of the backend's
//     data; MarkPublished is called AFTER the backend's Append returns.
//   * A query that ran while counts moved from `lo` (published_floor at
//     submit) to `hi` (model count at completion) must match the oracle
//     at exactly one batch boundary in [lo, hi] — engines publish whole
//     batches atomically, so every serving snapshot is one of those
//     prefixes. CandidateCounts(lo, hi) enumerates them.
#ifndef PARISAX_TESTS_STORM_WORKLOAD_MODEL_H_
#define PARISAX_TESTS_STORM_WORKLOAD_MODEL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "io/dataset.h"
#include "io/generator.h"
#include "util/mutex.h"

namespace parisax {
namespace storm {

class WorkloadModel {
 public:
  /// Seeds the model with the first `initial_count` series of the
  /// deterministic collection (kind, data_seed) — the same series
  /// GenerateDataset would produce, so the backend under test can be
  /// built from an identical dataset independently.
  WorkloadModel(DatasetKind kind, uint64_t data_seed, size_t initial_count,
                size_t length);

  size_t length() const { return length_; }

  /// Model data count (>= the backend's count at all times).
  size_t count() const;

  /// Largest count known to be fully published to the backend.
  size_t published_floor() const {
    return published_floor_.load(std::memory_order_acquire);
  }

  /// Generates the next `count` series of the deterministic collection,
  /// appends them to the model, and returns their values (row-major)
  /// for the driver to feed the backend. Driver thread only.
  std::vector<Value> AppendBatch(size_t count);

  /// Records that the backend finished publishing prefix `count`.
  /// Driver thread only; counts must be monotonic.
  void MarkPublished(size_t count);

  /// The batch-boundary counts in [lo, hi]: every prefix a query
  /// overlapping that window could legally have been answered over.
  std::vector<size_t> CandidateCounts(size_t lo, size_t hi) const;

  /// A copy of the current model collection (for rebuilds and reopen
  /// data files). Driver thread only (quiesced — the copy must not race
  /// an AppendBatch, and only the driver appends).
  Dataset CopyData() const;

  // --- brute-force oracle over the first `n` series -------------------
  // Thread-safe against concurrent AppendBatch: Dataset::Append retires
  // (never frees) superseded buffers, but the raw() base pointer itself
  // moves, so readers take the model lock shared for the scan.

  Neighbor ExactNn(SeriesView query, size_t n) const;
  std::vector<Neighbor> ExactKnn(SeriesView query, size_t k, size_t n) const;
  Neighbor ExactDtwNn(SeriesView query, size_t band, size_t n) const;

  /// Squared ED between `query` and model series `id` (well-formedness
  /// checks for approximate answers).
  float DistanceTo(SeriesView query, SeriesId id) const;

 private:
  const DatasetKind kind_;
  const uint64_t data_seed_;
  const size_t length_;

  /// Guards data_ and batch_counts_. Highest rank (kLeaf): nothing is
  /// ever acquired under it — oracle scans touch no engine code.
  mutable SharedMutex mu_{"WorkloadModel::mu_", LockRank::kLeaf};
  Dataset data_ PARISAX_GUARDED_BY(mu_);
  /// Every count the collection has ever had at a batch boundary,
  /// ascending, starting with the initial count.
  std::vector<size_t> batch_counts_ PARISAX_GUARDED_BY(mu_);

  std::atomic<size_t> published_floor_;
};

}  // namespace storm
}  // namespace parisax

#endif  // PARISAX_TESTS_STORM_WORKLOAD_MODEL_H_
