// ADS+ baseline: the serial state-of-the-art index the paper compares
// against (Zoumpatianos et al., "ADS: the adaptive data series index").
//
// Build: a single thread streams the collection, computes iSAX summaries
// into the flat SAX array and bulk-loads the tree; in on-disk mode leaf
// contents are then materialized to LeafStorage.
// Exact query answering follows ADS+'s SIMS strategy: seed a BSF with the
// real distances of the query's approximate-match leaf, serially filter
// the flat SAX array with mindist, then skip-sequentially scan the raw
// file for the surviving candidates (candidates sorted by position),
// skipping any whose bound has reached the BSF before reading it.
#ifndef PARISAX_INDEX_ADS_INDEX_H_
#define PARISAX_INDEX_ADS_INDEX_H_

#include <memory>
#include <string>

#include "dist/euclidean.h"
#include "index/flat_sax.h"
#include "index/leaf_storage.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/tree.h"
#include "util/status.h"

namespace parisax {

struct AdsBuildOptions {
  SaxTreeOptions tree;
  /// Raw-data-buffer capacity (series per read batch) for streamed
  /// sources.
  size_t batch_series = 8192;
  /// Leaf materialization file. Non-empty enables leaf flushing;
  /// required when the source is not addressable (on-disk mode). The
  /// build-time device model lives in the source (FileSource's stream
  /// profile).
  std::string leaf_storage_path;
  /// Metered leaf-write throughput; <= 0 disables metering.
  double leaf_write_mbps = 0.0;
};

struct AdsBuildStats {
  double wall_seconds = 0.0;
  double read_seconds = 0.0;   ///< blocked on the raw-data device
  double cpu_seconds = 0.0;    ///< summarization + tree building
  double write_seconds = 0.0;  ///< leaf materialization
  TreeStats tree;
};

struct AdsQueryOptions {
  KernelPolicy kernel = KernelPolicy::kAuto;
};

class AdsIndex {
 public:
  /// Builds over an owned raw-series source; the index takes ownership.
  /// Addressable sources (in-RAM, mmap) are summarized in place with no
  /// copy; streamed sources (FileSource) are read batch-by-batch through
  /// the device model and require `options.leaf_storage_path`.
  static Result<std::unique_ptr<AdsIndex>> Build(
      std::unique_ptr<RawSeriesSource> source,
      const AdsBuildOptions& options);

  /// Exact 1-NN by SIMS (serial). Returns the neighbor with the smallest
  /// squared ED; `Neighbor{0, +inf}` for an empty collection.
  Result<Neighbor> SearchExact(SeriesView query,
                               const AdsQueryOptions& options = {},
                               QueryStats* stats = nullptr) const;

  /// Approximate 1-NN: best real distance within the approximate-match
  /// leaf only.
  Result<Neighbor> SearchApproximate(SeriesView query,
                                     QueryStats* stats = nullptr) const;

  const SaxTree& tree() const { return tree_; }
  const FlatSaxCache& cache() const { return cache_; }
  const AdsBuildStats& build_stats() const { return build_stats_; }
  RawSeriesSource* raw_source() const { return source_.get(); }
  LeafStorage* leaf_storage() const { return leaf_storage_.get(); }

 private:
  explicit AdsIndex(const SaxTreeOptions& tree_options)
      : tree_(tree_options) {}

  /// Seeds the BSF from the approximate leaf; shared by both searches.
  Result<Neighbor> ApproximateInternal(SeriesView query, const float* paa,
                                       const SaxSymbols& sax,
                                       KernelPolicy kernel,
                                       QueryStats* stats) const;

  SaxTree tree_;
  FlatSaxCache cache_;
  std::unique_ptr<RawSeriesSource> source_;
  std::unique_ptr<LeafStorage> leaf_storage_;
  AdsBuildStats build_stats_;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_ADS_INDEX_H_
