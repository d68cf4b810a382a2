// Dynamic Time Warping under a Sakoe-Chiba band, with the envelope and
// LB_Keogh machinery of the UCR Suite. This is the "current work" DTW
// extension of the paper's engines: banded DTW refinement guarded by a
// cascade of envelope-based lower bounds, whose last stage (LB_Keogh's
// per-column suffix sums inside the DP) follows the UCR Suite's cascade
// (Rakthanmanon et al., KDD 2012).
//
// Costs are *squared* point differences, so DTW values here are directly
// comparable to the squared Euclidean distances used everywhere else
// (with any band, the diagonal alignment is feasible: DTW <= ED^2).
#ifndef PARISAX_DIST_DTW_H_
#define PARISAX_DIST_DTW_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace parisax {

/// Reusable scratch for DtwBand and the LbKeoghSq -> DtwBand cascade.
/// Callers that run many DTW refinements concurrently (the serve layer's
/// per-query workers) own one per worker per query instead of sharing
/// mutable thread_local state; the capacities stick across calls so the
/// allocator stays out of the refinement loop.
struct DtwScratch {
  /// Three consecutive anti-diagonals of the DP, b.size() + 2 cells each.
  std::vector<float> diagonals;
  /// `a` reversed, so the cells of a diagonal read both series forward.
  std::vector<float> reversed;
  /// LbKeoghSq's suffix sums for the candidate at hand; a caller passes
  /// them on to DtwBand's cascade.
  std::vector<float> suffix;
};

/// DTW of `a` (rows i) against `b` (columns j) restricted to the
/// Sakoe-Chiba band |i - j| <= band, evaluated over anti-diagonals: the
/// cells on i + j = d depend only on diagonals d - 1 and d - 2, so the
/// cells of one diagonal carry no dependency on each other. Each cell
/// does the row-order DP's subtraction, square, three-way min and add on
/// the same operands, so the result is bit-identical to a row-by-row
/// evaluation.
///
/// Early abandon, with `bound`. Every warping path touches one of any two
/// consecutive anti-diagonals, and cell values never fall along a path:
///  - without `suffix`: once every cell of two consecutive diagonals is
///    >= bound;
///  - with `suffix`, the output of LbKeoghSq for the envelope of `a` at
///    this band against `b`: once, on two consecutive diagonals, every
///    cell's value plus suffix[j] (the LB_Keogh terms of the columns after
///    it) scaled by (1 - delta) is >= bound, delta as for LbKeoghSq. A
///    path through that cell still crosses those columns, and each cell
///    of column k costs at least LB_Keogh's term k.
/// Both rules are exact: an abandoned call returns a value >= bound that
/// is <= the banded DTW; otherwise the call returns the banded DTW.
///
/// band == 0 degenerates to squared Euclidean (diagonal-only alignment);
/// band >= max(len) is unconstrained DTW. Lengths further apart than the
/// band admit no path: +inf.
float DtwBand(SeriesView a, SeriesView b, size_t band, float bound,
              DtwScratch* scratch,
              const std::vector<float>* suffix = nullptr);

/// Convenience overload backed by a thread_local scratch arena.
float DtwBand(SeriesView a, SeriesView b, size_t band, float bound);

/// Keogh envelope of `series` for a Sakoe-Chiba radius `band`:
/// (*lower)[i] = min(series[i-band .. i+band]) clamped to the series,
/// (*upper)[i] = max(series[i-band .. i+band]). O(n) via monotonic deques.
void ComputeEnvelope(SeriesView series, size_t band,
                     std::vector<Value>* lower, std::vector<Value>* upper);

/// Per-PAA-segment min of the lower envelope and max of the upper
/// envelope (segments as in sax/paa.h). This is the envelope summary the
/// iSAX DTW lower bounds (sax/mindist.h) take as input.
void ComputeEnvelopePaaMinMax(SeriesView lower, SeriesView upper, int w,
                              float* lower_paa, float* upper_paa);

/// LB_Keogh (squared) of `candidate` against the envelope of a query `a`
/// (ComputeEnvelope with the DTW band): the terms t_j, the squared
/// exceedance of candidate[j] outside [lower[j], upper[j]], summed in
/// eight independent lanes and scaled by (1 - delta), where
/// delta = (2 (n + m) + 4) * 2^-24 for n = lower.size() and
/// m = candidate.size() (2^-12 covers n = m <= 1000). The scale makes the
/// bound provable: the result never exceeds the float value of
/// DtwBand(a, candidate) at the envelope's band (proof in dtw.cpp), so
/// pruning on it keeps every candidate DtwBand would keep.
///
/// Checks the running sum every 32 points and abandons once it reaches
/// `bound`; the returned value is then >= bound, still a lower bound, but
/// not the full LB.
///
/// Optional cascade output: when `suffix` is non-null and the result is
/// below `bound`, (*suffix)[j] = t_j + ... + t_{m-1} for j < m and
/// (*suffix)[m] = 0, ready for DtwBand's `suffix`.
float LbKeoghSq(SeriesView lower, SeriesView upper, SeriesView candidate,
                float bound, std::vector<float>* suffix = nullptr);

}  // namespace parisax

#endif  // PARISAX_DIST_DTW_H_
