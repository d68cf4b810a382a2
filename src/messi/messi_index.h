// MESSI: the first parallel in-memory data series index, reproduced from
//   Peng, Fatourou, Palpanas. "MESSI: In-Memory Data Series Indexing"
//   (ICDE 2020), as summarized in the thesis paper.
//
// Index construction (Fig. 3, Stages 1-2): the in-memory RawData array is
// split into chunks assigned to index workers by Fetch&Inc; workers write
// iSAX summaries into per-thread parts of per-root-subtree iSAX buffers
// (no locks); after a barrier, workers claim whole buffers by Fetch&Inc
// and build the corresponding root subtrees independently.
//
// Query answering (Stage 3): seed the BSF from the approximate-match
// leaf. In Stage 3a workers traverse root subtrees, pruning with mindist
// against the BSF, and each appends every surviving leaf (its bound, a
// tie key and its entries) to a run of its own, with no lock; it then
// orders only the 256 smallest items of its run, the head, by (bound,
// tie key, position). The tie key is 0 for the ED searches; for DTW it
// is the leaf's ED bound against the query's own PAA, since the
// envelope bound is 0 for nearly every leaf of poorly pruning data and
// a leaf close in ED lowers the BSF early. In Stage 3b workers claim
// items by Fetch&Inc, first from their own run and then from the
// others'. A worker leaves a run at the first head item whose bound has
// reached the BSF and skips a tail item whose bound has; every other
// claimed leaf gets per-entry lower bounds and early-abandoning real
// distances. Every node and entry bound is a lookup in one per-query
// MinDistTable (sax/mindist.h). Workers contend only on the runs' claim
// counters and the BSF: roots are claimed in batches of 32 by
// Fetch&Inc, and each worker counts its work privately and merges the
// counts once per stage. QueryStats reports the traversal (3a) as the
// filter phase and the claims with refinement (3b) as the refine phase.
// Unlike the paper, no shared priority queues hold the leaves: at w = 16
// leaves hold one or two series, and a locked push and pop per leaf cost
// more than the distances (docs/architecture.md, "Stage 3 work
// distribution").
//
// Incremental ingest (beyond the paper): the index serves an immutable
// snapshot — the bulk-built base tree plus an ordered list of delta
// segments (src/index/segment.h). Appends, compaction and the
// approximate probe live in the SegmentedIndex core it shares with
// ParIS (src/index/segmented_index.h); queries capture one snapshot at
// entry and run the paper's Stage 3 over the base's and every segment's
// root subtrees under a single shared bound, so appends never exclude
// queries.
//
// Extensions implemented beyond the exact-ED query: kNN search and DTW
// search on the unchanged index (the paper's "current work").
#ifndef PARISAX_MESSI_MESSI_INDEX_H_
#define PARISAX_MESSI_MESSI_INDEX_H_

#include <memory>
#include <vector>

#include "dist/euclidean.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/segmented_index.h"
#include "index/tree.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

struct MessiBuildOptions {
  /// Index worker count (used for both stages).
  int num_workers = 4;
  /// Chunk size (series) for Fetch&Inc work distribution in Stage 1.
  size_t chunk_series = 4096;
  /// Footnote-2 ablation: use one lock per iSAX buffer instead of
  /// per-thread buffer parts.
  bool locked_buffers = false;
  SaxTreeOptions tree;
};

struct MessiBuildStats {
  double wall_seconds = 0.0;
  /// Stage 1 wall time: "Calculate iSAX Representations" in Fig. 5.
  double summarize_wall_seconds = 0.0;
  /// Stage 2 wall time: "Tree Index Construction" in Fig. 5.
  double tree_wall_seconds = 0.0;
  TreeStats tree;
};

struct MessiQueryOptions {
  KernelPolicy kernel = KernelPolicy::kAuto;
  /// Sakoe-Chiba band radius (points) for DTW searches.
  size_t dtw_band = 12;
  /// Cancel/deadline token polled in Stage 3: every 64 node visits of
  /// the traversal and once per claimed leaf that is refined. An expired
  /// search returns kDeadlineExceeded instead of a partial answer. The
  /// caller keeps the token alive; null never expires.
  const CancellationToken* cancel = nullptr;
};

class SnapshotReader;

/// MESSI over the shared segmented core: append, compaction, the
/// approximate probe and the serving snapshot are SegmentedIndex's;
/// this class adds the Stage 1-2 build and the Stage 3 exact searches.
class MessiIndex : public SegmentedIndex {
 public:
  /// Builds over an owned raw-series source. The source must be directly
  /// addressable (an InMemorySource or MmapSource — MESSI's RawData array
  /// lives in memory); building over an MmapSource runs Stage 1 straight
  /// off the page cache with no in-RAM copy of the collection. The index
  /// takes ownership of the source.
  static Result<std::unique_ptr<MessiIndex>> Build(
      std::unique_ptr<RawSeriesSource> source,
      const MessiBuildOptions& options, ThreadPool* pool);

  // Query paths take an Executor rather than owning threads: the serve
  // layer's helper executor (or a ThreadPool) fans one query out over
  // every core (the paper's Stage 3, one leaf run per executor id), and
  // an InlineExecutor confines it to the calling thread so many queries
  // can run concurrently. An id that never runs leaves its run empty.
  // All per-query state is local to the call (including the serving
  // snapshot it captures at entry), so any number of searches may run
  // at once as long as each executor supports it.

  /// Exact 1-NN under squared ED. `Neighbor{0, +inf}` if empty.
  Result<Neighbor> SearchExact(SeriesView query,
                               const MessiQueryOptions& options,
                               Executor* exec,
                               QueryStats* stats = nullptr) const;

  /// Exact k-NN under squared ED, ascending (distance, id).
  Result<std::vector<Neighbor>> SearchKnn(SeriesView query, size_t k,
                                          const MessiQueryOptions& options,
                                          Executor* exec,
                                          QueryStats* stats = nullptr) const;

  /// Exact 1-NN under banded DTW (squared cost), through the unchanged
  /// index.
  Result<Neighbor> SearchExactDtw(SeriesView query,
                                  const MessiQueryOptions& options,
                                  Executor* exec,
                                  QueryStats* stats = nullptr) const;

  /// Stage timings and tree shape of the bulk build (zero after a
  /// snapshot restore).
  const MessiBuildStats& build_stats() const { return build_stats_; }

 private:
  /// Snapshot restore (src/persist/) constructs restored indexes.
  friend class SnapshotReader;

  explicit MessiIndex(const SaxTreeOptions& tree_options)
      : SegmentedIndex(tree_options, /*flat_sax=*/false) {}

  MessiBuildStats build_stats_;
};

}  // namespace parisax

#endif  // PARISAX_MESSI_MESSI_INDEX_H_
