// Lower-bounding distances between a query and iSAX summaries.
//
// All functions return *squared* distances (compare against squared ED /
// squared-cost DTW) and are guaranteed lower bounds of the corresponding
// true distance -- the correctness foundation of every pruning step in
// ADS+/ParIS/MESSI. The scaling factor n/w comes from the PAA
// lower-bounding lemma (Keogh et al.), carried through to iSAX regions.
#ifndef PARISAX_SAX_MINDIST_H_
#define PARISAX_SAX_MINDIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sax/word.h"

namespace parisax {

/// mindist(PAA(query), iSAX word)^2: lower bound on ED(query, any series
/// whose summary lies in `word`'s region)^2. Used to prune tree nodes.
float MinDistPaaToWordSq(const float* query_paa, const SaxWord& word, int w,
                         size_t n);

/// mindist(PAA(query), full-cardinality symbols)^2: the hot path used to
/// filter the flat SAX array (ParIS/ADS+) and leaf entries (MESSI).
float MinDistPaaToSymbolsSq(const float* query_paa, const SaxSymbols& sax,
                            int w, size_t n);

/// DTW variant against an iSAX word: lower-bounds DTW(query, series)^2
/// for every series in the region, given the PAA of the query's
/// lower/upper Sakoe-Chiba envelopes (see dist/dtw.h). Analogue of
/// LB_PAA from Keogh's exact DTW indexing.
float MinDistEnvelopePaaToWordSq(const float* env_lower_paa,
                                 const float* env_upper_paa,
                                 const SaxWord& word, int w, size_t n);

/// DTW variant against full-cardinality symbols.
float MinDistEnvelopePaaToSymbolsSq(const float* env_lower_paa,
                                    const float* env_upper_paa,
                                    const SaxSymbols& sax, int w, size_t n);

/// out[i] = MinDistPaaToWordSq(query_paa, RootWord(keys[i], w), w, n),
/// bit-identical, for `count` root keys: the w x 2 level-1 gaps are
/// computed once and each key sums its w gaps in segment order, four
/// keys at a time. The approximate probe's root fallback scans every
/// present root of a tree with it.
void MinDistPaaToRootKeysSq(const float* query_paa, const uint32_t* keys,
                            size_t count, int w, size_t n, float* out);

/// The four functions above, answered by table lookup: built once per
/// query, it holds the squared gap between the query's interval on each
/// segment and every iSAX region at every cardinality (w x 510 floats,
/// 32 KB at w = 16). A lookup adds the per-segment gaps in segment order
/// and scales by n/w once at the end, exactly as the functions above do,
/// so every bound it returns is bit-identical to theirs. Exact searches
/// build one per query and evaluate every node and entry bound through
/// it; one-shot callers keep the free functions.
///
/// A single lookup is one chain of w dependent float adds. The batched
/// ToSymbolsSq runs four summaries' chains side by side, so the scans
/// over runs of summaries (flat SAX rows, a leaf's entries) are bound by
/// throughput rather than by add latency.
class MinDistTable {
 public:
  /// Tables over the query interval [lo[s], hi[s]] on segment s. For ED
  /// pass the query PAA as both `lo` and `hi` (the MinDistPaaTo*
  /// bounds); for DTW the envelope PAA min/max
  /// (MinDistEnvelopePaaTo*).
  MinDistTable(const float* lo, const float* hi, int w, size_t n);

  /// Equals MinDistPaaToWordSq / MinDistEnvelopePaaToWordSq.
  float ToWordSq(const SaxWord& word) const {
    const float* row = gaps_.data();
    float sum = 0.0f;
    for (int s = 0; s < w_; ++s, row += kRegionsPerSegment) {
      sum += row[LevelOffset(word.bits[s]) + word.symbols[s]];
    }
    return sum * scale_;
  }

  /// Equals MinDistPaaToSymbolsSq / MinDistEnvelopePaaToSymbolsSq.
  float ToSymbolsSq(const SaxSymbols& sax) const {
    const float* row = gaps_.data() + LevelOffset(kMaxCardBits);
    float sum = 0.0f;
    for (int s = 0; s < w_; ++s, row += kRegionsPerSegment) {
      sum += row[sax.symbols[s]];
    }
    return sum * scale_;
  }

  /// Batched ToSymbolsSq: out[i] is bit-identical to ToSymbolsSq of the
  /// summary at `first` advanced by i * `stride` bytes, for i < `count`.
  /// The stride lets one call read SaxSymbols rows (sizeof(SaxSymbols))
  /// or the summaries inside LeafEntry records (sizeof(LeafEntry)).
  void ToSymbolsSq(const SaxSymbols* first, size_t stride, size_t count,
                   float* out) const;

 private:
  /// Regions at cardinalities 2^1..2^8: 2 + 4 + ... + 256.
  static constexpr int kRegionsPerSegment = 2 * kMaxCardinality - 2;

  /// First region of cardinality 2^bits within a segment's row.
  static constexpr int LevelOffset(int bits) { return (1 << bits) - 2; }

  int w_;
  float scale_;
  std::vector<float> gaps_;  ///< w rows of kRegionsPerSegment gaps
};

}  // namespace parisax

#endif  // PARISAX_SAX_MINDIST_H_
