// ParIS and ParIS+: the first data series indices designed for multi-core
// architectures (on-disk), reproduced from
//   Peng, Palpanas, Fatourou. "ParIS: The Next Destination for Fast Data
//   Series Indexing and Query Answering" (IEEE BigData 2018) and
//   "ParIS+: Data Series Indexing on Multi-core Architectures" (TKDE 2020)
// as summarized in the thesis paper this repository reproduces.
//
// Index creation pipeline (Fig. 2 of the paper):
//   Stage 1  a Coordinator worker reads raw series from disk into the raw
//            data buffer (double-buffered here);
//   Stage 2  IndexBulkLoading workers summarize the buffered series,
//            filling the flat SAX array and the per-root-subtree RecBufs;
//   Stage 3  when "main memory is full" (every batches_per_round batches
//            here), IndexConstruction workers drain RecBufs, grow the
//            corresponding subtrees, and flush leaves to LeafStorage.
//
// ParIS: stage 3 does not overlap stage 1 -- the coordinator pauses, so
// tree-construction CPU time is visible in the creation time.
// ParIS+: the bulk-loading workers themselves grow the subtrees after
// every batch (overlapped with the coordinator's next read), and leaf
// flushing happens along the way; only a small tail flush remains visible.
// For in-memory datasets the same machinery runs without a coordinator
// read phase or leaf materialization (used by Figs. 7/9/12).
//
// Incremental ingest (beyond the paper): the index serves an immutable
// snapshot — the bulk-built base (tree + flat SAX array) plus an ordered
// list of delta segments that carry their own SAX rows
// (src/index/segment.h). Appends, compaction and the approximate probe
// live in the SegmentedIndex core it shares with MESSI
// (src/index/segmented_index.h); queries capture one snapshot at entry,
// filter the base's SAX array and every segment's rows under one shared
// bound, and refine against the pinned raw view (or through a streamed
// source, which grows in place) — so appends never exclude queries.
//
// Query answering (both variants): seed the BSF from the approximate-
// match leaf, filter the flat SAX array in parallel with mindist, keeping
// each survivor's bound, then compute real distances of the survivors in
// parallel against a shared atomic BSF. Where random reads cost nothing
// they are refined in ascending-bound order up to the first bound that
// has reached the BSF; on a metered device (an SSD, or through one read
// stream an HDD) in position order, skipping any whose bound the BSF has
// reached (docs/architecture.md, "ParIS/ParIS+ refinement").
#ifndef PARISAX_PARIS_PARIS_INDEX_H_
#define PARISAX_PARIS_PARIS_INDEX_H_

#include <memory>
#include <string>

#include "dist/euclidean.h"
#include "index/flat_sax.h"
#include "index/leaf_storage.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/segmented_index.h"
#include "index/tree.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

class SnapshotReader;

struct ParisBuildOptions {
  /// IndexBulkLoading (and construction) worker count.
  int num_workers = 4;
  /// ParIS+ behaviour: grow subtrees inside the bulk-loading workers,
  /// overlapped with the coordinator's reads.
  bool plus_mode = false;
  /// Raw-data-buffer capacity: series per read batch.
  size_t batch_series = 8192;
  /// "Main memory full" trigger: ParIS runs stage 3 after this many
  /// batches.
  size_t batches_per_round = 4;
  SaxTreeOptions tree;
  /// Leaf materialization path. Non-empty enables leaf flushing to
  /// LeafStorage; required when the source is not addressable (the
  /// paper's on-disk pipeline). The build-time device model lives in the
  /// source (FileSource's stream profile), not here.
  std::string leaf_storage_path;
  /// Metered leaf-write throughput; <= 0 disables metering.
  double leaf_write_mbps = 0.0;
};

struct ParisBuildStats {
  double wall_seconds = 0.0;
  /// Coordinator wall time blocked on the raw-data device.
  double read_wall_seconds = 0.0;
  /// Wall time of ParIS stage-3 rounds (reading paused): the "visible
  /// CPU" of the paper's Fig. 4.
  double stage3_wall_seconds = 0.0;
  /// Wall time of the final (non-overlapped) flush: visible "Write".
  double final_flush_wall_seconds = 0.0;
  /// Accumulated per-worker busy time (informational, not wall time).
  double summarize_cpu_seconds = 0.0;
  double tree_cpu_seconds = 0.0;
  uint64_t leaf_chunks_flushed = 0;
  uint64_t leaf_chunk_readbacks = 0;
  TreeStats tree;
};

/// The executor passed to SearchExact sets the parallelism.
struct ParisQueryOptions {
  KernelPolicy kernel = KernelPolicy::kAuto;
  /// Cancel/deadline token polled per claimed batch in the filter and
  /// refine phases; an expired search returns kDeadlineExceeded instead
  /// of a partial answer. The caller keeps the token alive; null never
  /// expires.
  const CancellationToken* cancel = nullptr;
};

/// ParIS/ParIS+ over the shared segmented core: append, compaction,
/// the approximate probe and the serving snapshot are SegmentedIndex's;
/// this class adds the Fig. 2 build pipeline and the filter-and-refine
/// exact search over the flat SAX array.
class ParisIndex : public SegmentedIndex {
 public:
  /// Builds over an owned raw-series source; the index takes ownership
  /// and answers query-time raw fetches through it. An addressable
  /// source (InMemorySource, MmapSource) feeds the pipeline zero-copy
  /// batches — no coordinator read phase, and mmap-backed builds never
  /// copy the collection into RAM. A streamed source (FileSource) runs
  /// the paper's full pipeline: the coordinator pays the device model's
  /// sequential cost per batch, and `options.leaf_storage_path` (then
  /// required) materializes leaves.
  static Result<std::unique_ptr<ParisIndex>> Build(
      std::unique_ptr<RawSeriesSource> source,
      const ParisBuildOptions& options);

  /// Exact 1-NN (squared ED), parallel. `Neighbor{0, +inf}` if empty.
  /// `exec` supplies the query's parallelism: the serve layer's helper
  /// executor (or a ThreadPool) fans the filter/refine phases out over
  /// every core, an InlineExecutor runs the whole query on the calling
  /// thread so many queries can run concurrently. All mutable state is
  /// per-call (including the serving snapshot captured at entry).
  Result<Neighbor> SearchExact(SeriesView query,
                               const ParisQueryOptions& options,
                               Executor* exec,
                               QueryStats* stats = nullptr) const;

  /// Flat SAX array of the current snapshot's base. For quiescent
  /// callers (tests): the reference is only stable while nothing
  /// publishes a new snapshot.
  const FlatSaxCache& cache() const { return *dock_.get()->cache; }
  /// Pipeline timings and tree shape of the bulk build (zero after a
  /// snapshot restore).
  const ParisBuildStats& build_stats() const { return build_stats_; }

 private:
  explicit ParisIndex(const SaxTreeOptions& tree_options)
      : SegmentedIndex(tree_options, /*flat_sax=*/true) {}

  friend class ParisBuilder;
  /// Snapshot restore (src/persist/) constructs restored indexes.
  friend class SnapshotReader;

  ParisBuildStats build_stats_;
};

}  // namespace parisax

#endif  // PARISAX_PARIS_PARIS_INDEX_H_
