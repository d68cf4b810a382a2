// The segmented index core shared by MESSI and ParIS/ParIS+.
//
// Both indexes serve one immutable snapshot (ServingState, see
// segment.h): a bulk-built base tree plus an ordered list of delta
// segments, published through one ServingDock. Everything around their
// two query algorithms — appending a segment, the compactor's minor
// merge and major fold, the approximate probe that seeds every exact
// search, and re-sectioning the unsaved tail for a delta snapshot — is
// the same for both, so it lives here once. The derived indexes keep
// only their build pipelines and exact-search kernels.
//
// What differs between the two is data on the core, never a virtual
// call, so nothing here dispatches inside a search loop:
//   - flat SAX: ParIS-family segments carry flat-SAX rows and a fold
//     rebuilds the base's FlatSaxCache; MESSI has neither;
//   - leaf storage: an optional LeafStorage backing the base's flushed
//     leaf chunks, read back by folds and by the base probe (always
//     null for MESSI);
//   - probing: snapshots over addressable sources probe the pinned raw
//     view, streamed ones fetch through the source.
#ifndef PARISAX_INDEX_SEGMENTED_INDEX_H_
#define PARISAX_INDEX_SEGMENTED_INDEX_H_

#include <memory>

#include "dist/euclidean.h"
#include "index/leaf_storage.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/segment.h"
#include "index/tree.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

class SnapshotReader;

class SegmentedIndex {
 public:
  /// Incremental ingest: appends `count` series (count * length values,
  /// row-major, already z-normalized) to the owned source, then builds
  /// an immutable delta segment over just the new ids (with flat-SAX
  /// rows for the ParIS family) on the calling thread and publishes it
  /// onto the serving snapshot. Returns the number of root subtrees the
  /// segment populated. Queries proceed concurrently (they keep the
  /// snapshot they captured at entry); callers serialize appends with
  /// each other (the Engine append mutex does). Requires
  /// source().appendable().
  Result<size_t> Append(const Value* values, size_t count);

  /// Approximate 1-NN: best real distance within the matching leaf of
  /// the base and of every segment.
  Result<Neighbor> SearchApproximate(SeriesView query,
                                     QueryStats* stats = nullptr) const;

  /// Current serving snapshot (base + segments). Cheap: copies one
  /// shared_ptr under a brief lock.
  std::shared_ptr<const ServingState> serving() const { return dock_.get(); }

  /// Major compaction: folds the first `folded` segments of `snap` into
  /// a fresh base (tree, plus the flat SAX array for the ParIS family)
  /// and splices it in. Runs entirely off the serving path; the splice
  /// is discarded (returns false) if the serving state's base or folded
  /// segments changed since `snap` was captured. Safe to run
  /// concurrently with queries and appends.
  Result<bool> FoldSegments(const std::shared_ptr<const ServingState>& snap,
                            size_t folded, Executor* exec);

  /// Minor compaction: merges the first `folded` segments of `snap` into
  /// one segment (same discard semantics as FoldSegments).
  Result<bool> MergeSegmentRun(
      const std::shared_ptr<const ServingState>& snap, size_t folded,
      Executor* exec);

  /// The segment a delta snapshot serializes: ids [head, snap->count),
  /// all of which must lie in segments (snap->base_count <= head). A
  /// live segment with exactly that range is reused; otherwise the
  /// covering entries are re-sectioned into a fresh segment (a
  /// compactor merge may straddle the head).
  Result<std::shared_ptr<const Segment>> DeltaSegment(
      const std::shared_ptr<const ServingState>& snap, SeriesId head,
      Executor* exec) const;

  /// Base tree of the current snapshot. For quiescent callers (tests,
  /// invariant checks): the reference is only stable while nothing
  /// publishes a new snapshot.
  const SaxTree& tree() const { return *dock_.get()->base; }
  const SaxTreeOptions& tree_options() const { return tree_options_; }
  /// The raw series the index answers queries against: the source it
  /// was built over, or the one attached when it was restored from a
  /// snapshot.
  const RawSeriesSource& source() const { return *source_; }
  /// Backing store of the base's flushed leaf chunks; null unless a
  /// ParIS-family build materialized leaves.
  LeafStorage* leaf_storage() const { return leaf_storage_.get(); }
  /// True for the ParIS family: segments carry flat-SAX rows and the
  /// base a FlatSaxCache.
  bool flat_sax() const { return flat_sax_; }
  /// Series in the indexed collection (as of the current snapshot).
  size_t series_count() const { return dock_.count(); }
  /// Tree shape as of the build or restore. Appends keep only
  /// total_entries current (O(batch) bookkeeping); read it without
  /// concurrent appends.
  const TreeStats& tree_stats() const { return tree_stats_; }

 protected:
  SegmentedIndex(const SaxTreeOptions& tree_options, bool flat_sax)
      : tree_options_(tree_options), flat_sax_(flat_sax) {}

  /// Takes ownership of `source`. Fails if its series length does not
  /// match the index, or — for MESSI, whose searches read raw values
  /// only through the pinned view — if it is not directly addressable.
  Status AttachSource(std::unique_ptr<RawSeriesSource> source);

  /// Publishes the first serving state of a build or restore, pinning
  /// the attached source's raw view into it.
  void PublishInitial(std::shared_ptr<ServingState> state);

  /// Approximate probe merged across the snapshot's base and segments:
  /// the BSF seed for the exact searches.
  Result<Neighbor> ProbeAllTrees(const ServingState& snap, SeriesView query,
                                 const float* paa, const SaxSymbols& sax,
                                 KernelPolicy kernel,
                                 QueryStats* stats) const;

  SaxTreeOptions tree_options_;
  const bool flat_sax_;
  std::unique_ptr<RawSeriesSource> source_;
  std::unique_ptr<LeafStorage> leaf_storage_;
  /// The serving snapshot publication point (see segment.h).
  ServingDock dock_;
  TreeStats tree_stats_;

 private:
  /// Snapshot restore (src/persist/) reconstructs the serving state.
  friend class SnapshotReader;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_SEGMENTED_INDEX_H_
