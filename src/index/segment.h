// Immutable delta segments: the LSM-style ingest unit shared by MESSI
// and ParIS/ParIS+.
//
// An append no longer grows the serving tree in place. It builds a
// *segment* — a self-contained mini iSAX index over the appended id
// range, produced by the same summarize -> parallel-insert pipeline as
// the base tree — and publishes it onto an immutable serving snapshot
// (ServingState). Queries capture one snapshot at entry and merge
// candidates across the base tree and every segment through a single
// shared bound (BestNeighbor / KnnHeap), so appends and queries never
// exclude each other. A background compactor folds segments back into
// the base off the serving path; its splice is a compare-and-publish
// against the snapshot it folded, so a concurrent append can never be
// lost.
#ifndef PARISAX_INDEX_SEGMENT_H_
#define PARISAX_INDEX_SEGMENT_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "index/flat_sax.h"
#include "index/leaf_storage.h"
#include "index/raw_source.h"
#include "index/tree.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

/// One immutable delta segment: an iSAX mini-index over the contiguous
/// id range [first, first + count). Built once, then shared read-only
/// by shared_ptr — readers take no locks. Segment leaves are always
/// fully in memory (no flushed chunks), even for streamed indexes.
struct Segment {
  explicit Segment(const SaxTreeOptions& options) : tree(options) {}

  SeriesId first = 0;
  size_t count = 0;
  SaxTree tree;
  /// Full-cardinality summaries in id order (row i = series first + i).
  /// Filled for ParIS-family indexes, whose exact search filters over
  /// flat SAX rows; empty for MESSI.
  std::vector<SaxSymbols> sax_rows;
};

/// One immutable serving snapshot: the bulk-built base index plus the
/// ordered segment list, captured together with the raw-data view and
/// collection size they cover. Queries read exactly one ServingState
/// for their whole lifetime; publication replaces the shared_ptr, never
/// the pointee.
struct ServingState {
  /// The base tree (bulk build or last fold).
  std::shared_ptr<const SaxTree> base;
  /// Series covered by the base: ids [0, base_count).
  size_t base_count = 0;
  /// Flat SAX rows for the base ids (ParIS family; null for MESSI).
  /// Invariant: cache == nullptr || cache->count() == base_count.
  std::shared_ptr<const FlatSaxCache> cache;
  /// Segments in ascending id order, jointly covering
  /// [base_count, count).
  std::vector<std::shared_ptr<const Segment>> segments;
  /// Contiguous raw values for ids [0, count); base == nullptr for
  /// streamed sources (queries then fetch through the source).
  RawDataView raw;
  /// Total series served by this snapshot.
  size_t count = 0;

  size_t segment_series() const {
    size_t total = 0;
    for (const auto& s : segments) total += s->count;
    return total;
  }
};

/// The publication point: owns the current ServingState shared_ptr and
/// serializes every replacement under one mutex, so an append publish
/// and a compactor splice are atomic with respect to each other. Reads
/// copy the shared_ptr under the same brief lock (a handful of
/// instructions — never held across work).
class ServingDock {
 public:
  std::shared_ptr<const ServingState> get() const {
    MutexLock lock(&mu_);
    return state_;
  }

  /// The published state's collection size, read without the lock. It
  /// is stored under mu_ before the state it describes is swapped in,
  /// so no query that captured a state can see more series than a
  /// count() read after its answer reports.
  size_t count() const { return count_.load(std::memory_order_acquire); }

  void Publish(std::shared_ptr<const ServingState> next) {
    MutexLock lock(&mu_);
    count_.store(next->count, std::memory_order_release);
    state_ = std::move(next);
  }

  /// Append publish: pushes `segment` onto the current snapshot and
  /// refreshes the raw view / collection size in the same atomic step.
  void PublishAppend(std::shared_ptr<const Segment> segment,
                     RawDataView raw, size_t count) {
    MutexLock lock(&mu_);
    auto next = std::make_shared<ServingState>(*state_);
    next->segments.push_back(std::move(segment));
    next->raw = raw;
    next->count = count;
    count_.store(count, std::memory_order_release);
    state_ = std::move(next);
  }

  /// Compactor splice (major fold): replaces the base and drops the
  /// first `folded` segments, keeping whatever the serving state has
  /// gained since `expected` was captured. Fails — discarding the fold —
  /// unless the current base and the folded segments are
  /// pointer-identical to `expected`'s (i.e. nothing else folded them
  /// meanwhile).
  bool TryFold(const std::shared_ptr<const ServingState>& expected,
               size_t folded, std::shared_ptr<const SaxTree> base,
               std::shared_ptr<const FlatSaxCache> cache,
               size_t base_count) {
    MutexLock lock(&mu_);
    if (!FoldInputsLive(expected, folded)) return false;
    auto next = std::make_shared<ServingState>(*state_);
    next->base = std::move(base);
    next->cache = std::move(cache);
    next->base_count = base_count;
    next->segments.erase(next->segments.begin(),
                         next->segments.begin() + folded);
    state_ = std::move(next);
    return true;
  }

  /// Compactor splice (minor merge): replaces the first `folded`
  /// segments with their merge, under the same identity check as
  /// TryFold.
  bool TryMergeSegments(const std::shared_ptr<const ServingState>& expected,
                        size_t folded,
                        std::shared_ptr<const Segment> merged) {
    MutexLock lock(&mu_);
    if (!FoldInputsLive(expected, folded)) return false;
    auto next = std::make_shared<ServingState>(*state_);
    next->segments.erase(next->segments.begin(),
                         next->segments.begin() + folded);
    next->segments.insert(next->segments.begin(), std::move(merged));
    state_ = std::move(next);
    return true;
  }

 private:
  bool FoldInputsLive(const std::shared_ptr<const ServingState>& expected,
                      size_t folded) const PARISAX_REQUIRES(mu_) {
    if (state_->base != expected->base) return false;
    if (state_->segments.size() < folded) return false;
    for (size_t i = 0; i < folded; ++i) {
      if (state_->segments[i] != expected->segments[i]) return false;
    }
    return true;
  }

  mutable Mutex mu_{"ServingDock::mu_", LockRank::kServingDock};
  std::shared_ptr<const ServingState> state_ PARISAX_GUARDED_BY(mu_);
  std::atomic<size_t> count_{0};
};

/// Builds a segment over `count` series whose raw values are `values`
/// (count * options.series_length floats, row-major), indexed as ids
/// [first, first + count): the batch is summarized in parallel, then
/// inserted through SegmentFromEntries like every other segment.
/// `with_sax_rows` additionally materializes the flat SAX rows (ParIS).
Result<std::shared_ptr<const Segment>> BuildSegment(
    const Value* values, size_t count, SeriesId first,
    const SaxTreeOptions& options, bool with_sax_rows, Executor* exec);

/// Builds a segment over [first, first + count) from already-summarized
/// entries (ids must all lie in the range). BuildSegment, MergeSegments
/// and delta re-sectioning (SegmentedIndex::DeltaSegment) build through
/// this.
Result<std::shared_ptr<const Segment>> SegmentFromEntries(
    const std::vector<LeafEntry>& entries, SeriesId first, size_t count,
    const SaxTreeOptions& options, bool with_sax_rows, Executor* exec);

/// Minor compaction: merges `parts` (ascending, id-contiguous) into one
/// segment covering their combined range.
Result<std::shared_ptr<const Segment>> MergeSegments(
    const std::vector<std::shared_ptr<const Segment>>& parts,
    const SaxTreeOptions& options, Executor* exec);

/// Appends every leaf entry of `tree` onto `out`; `storage` backs
/// leaves with flushed chunks (may be null iff there are none).
Status CollectTreeEntries(const SaxTree& tree, LeafStorage* storage,
                          std::vector<LeafEntry>* out);

/// Bulk-inserts `entries` into the fresh tree `tree`: deterministic
/// (root key, id)-ordered insertion, whole root subtrees in parallel —
/// the builders' no-synchronization-inside-a-subtree discipline. Seals
/// the roots. The major-fold path builds its new base through this.
Status BuildTreeFromEntries(SaxTree* tree,
                            const std::vector<LeafEntry>& entries,
                            Executor* exec);

}  // namespace parisax

#endif  // PARISAX_INDEX_SEGMENT_H_
