// The iSAX approximate search shared by every index-based engine: descend
// the tree to the leaf matching the query's summary and return the best
// real distance among that leaf's series. Exact-search algorithms use the
// result to seed their Best-So-Far bound ("compute BSF" in Figs. 2/3).
#ifndef PARISAX_INDEX_APPROX_SEARCH_H_
#define PARISAX_INDEX_APPROX_SEARCH_H_

#include "dist/euclidean.h"
#include "index/leaf_storage.h"
#include "index/query_stats.h"
#include "index/raw_source.h"
#include "index/tree.h"

namespace parisax {

/// Returns the best (id, squared ED) within the approximate-match leaf,
/// or {0, +inf} for an empty tree. `storage` may be null iff no leaf has
/// flushed chunks.
Result<Neighbor> ApproximateLeafSearch(const SaxTree& tree,
                                       LeafStorage* storage,
                                       const RawSeriesSource& source,
                                       SeriesView query, const float* paa,
                                       const SaxSymbols& sax,
                                       KernelPolicy kernel,
                                       QueryStats* stats);

/// Variant over a contiguous raw view: reads the snapshot's pinned
/// buffer with no source virtual per series. Used by the segment-based
/// query paths over addressable sources.
Result<Neighbor> ApproximateLeafSearch(const SaxTree& tree,
                                       LeafStorage* storage,
                                       const RawDataView& raw,
                                       SeriesView query, const float* paa,
                                       const SaxSymbols& sax,
                                       KernelPolicy kernel,
                                       QueryStats* stats);

}  // namespace parisax

#endif  // PARISAX_INDEX_APPROX_SEARCH_H_
