#include "dist/dtw.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

#include "sax/paa.h"

namespace parisax {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// LbKeoghSq compares its running sum with the bound once per this many
/// points (four steps of its eight lanes).
constexpr size_t kLbKeoghBlock = 32;

inline float SqDiff(float x, float y) {
  const float d = x - y;
  return d * d;
}

// Why LbKeoghSq scales by (1 - delta), and why that suffices.
//
// Let u = 2^-24 (float's unit roundoff), the query `a` have n points, the
// candidate `b` m points, and t_j be LB_Keogh's float term for column j.
// A cell (i, j) inside the band has a[i] in [lower[j], upper[j]], so its
// float cost fl(fl(a[i] - b[j])^2) >= t_j, as rounding is monotone.
//
// DtwBand's value D is the float sum of the costs along one warping path,
// in path order: a cell adds its cost to its smallest predecessor, which
// is exactly one of them. The path visits every column, so in real
// arithmetic its costs add up to at least T = t_0 + ... + t_{m-1}, and
// each of its at most n + m - 2 rounded additions of non-negative values
// loses at most a factor (1 - u): D >= (1 - u)^(n+m) T.
//
// A sequential sum in column order needs no slack: it adds a subset of
// the path's costs in the path's order, and float addition is monotone.
// Eight lanes add in another order. Each term passes through at most
// m + 2 rounded additions (the later adds of its lane, then the three
// levels that join the lanes), so the lane sum L <= (1 + u)^(m+2) T,
// and the product rounds once more:
//   fl(L (1 - delta)) <= (1 - delta) (1 + u)^(m+3) T
//                     <= (1 - delta) (1 - u)^-(m+3) T.
// That is <= (1 - u)^(n+m) T <= D once 1 - delta <= (1 - u)^(n+2m+3),
// which by Bernoulli's inequality holds for delta >= (n + 2m + 3) u. The
// delta used, (2 (n + m) + 4) u, covers it for every n. This argument
// assumes sums in float's normal range (no overflow, and no product below
// FLT_MIN, where rounding error stops being relative).
//
// DtwBand's cascade compares fl(fl(V + S) (1 - delta)) with the bound,
// for a cell of value V in column j and S = suffix[j], a sequential sum of
// the m - j later terms: S <= (1 + u)^m R for their real sum R. The
// rest of any path through the cell adds costs that total at least R in
// at most n + m rounded additions, so D >= (1 - u)^(n+m) (V + R), while
// the compared value is <= (1 - delta) (1 + u)^(m+2) (V + R): the same
// delta keeps it <= D.

/// 1 - delta for a query of n points and a candidate of m points. The
/// product is exact for 2 (n + m) + 4 <= 2^23; longer series fall back to
/// the trivial bound 0.
float LowerBoundScale(size_t n, size_t m) {
  const size_t k = 2 * (n + m) + 4;
  if (k > (size_t{1} << 23)) return 0.0f;
  return 1.0f - static_cast<float>(k) * 0x1p-24f;
}

/// LB_Keogh's term for one point: the squared distance from x to
/// [lo, hi]. At most one of the two gaps is positive, so the sum is exact
/// and the term equals SqDiff(x, hi) above the envelope and
/// SqDiff(x, lo) below it.
inline float KeoghTerm(float x, float lo, float hi) {
  const float gap = std::max(x - hi, 0.0f) + std::max(lo - x, 0.0f);
  return gap * gap;
}

inline float JoinLanes(const float* acc) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// The anti-diagonal DP of DtwBand over a reversed `a` (ra) and b, with
/// `cells` holding three diagonals of m + 2 floats. Column j of diagonal
/// d is cell (d - j, j); within the band j runs over [lo, hi], and the
/// entries at lo - 1 and hi + 1 are kept +inf, which is every entry the
/// next two diagonals read outside [lo, hi].
template <bool kCascade>
float AntiDiagonalDtw(const float* ra, const float* b, size_t n, size_t m,
                      size_t band, float bound, const float* suffix,
                      float* cells) {
  const size_t width = m + 2;
  float* d2 = cells;       // diagonal d - 2
  float* d1 = d2 + width;  // diagonal d - 1
  float* d0 = d1 + width;  // diagonal d
  std::fill(cells, cells + 3 * width, kInf);
  d2[0] = 0.0f;  // cell (0, 0)
  const float scale = kCascade ? LowerBoundScale(n, m) : 1.0f;
  // Diagonal 1 holds no cell, so it passes the abandon test vacuously.
  float prev_min = kInf;
  for (size_t d = 2; d <= n + m; ++d) {
    size_t lo = d > n ? d - n : 1;
    if (d > band) lo = std::max(lo, (d - band + 1) / 2);
    const size_t hi = std::min({m, d - 1, (d + band) / 2});
    const size_t count = lo <= hi ? hi - lo + 1 : 0;
    // Cell k of this diagonal is (d - lo - k, lo + k): above it, (i - 1,
    // j) is up[k + 1], left of it (i, j - 1) is up[k], and diagonally
    // before it (i - 1, j - 1) is diag[k].
    float* out = d0 + lo;
    const float* up = d1 + lo - 1;
    const float* diag = d2 + lo - 1;
    const float* av = ra + (lo + n - d);  // av[k] = a[d - lo - k - 1]
    const float* bv = b + (lo - 1);       // bv[k] = b[lo + k - 1]
    float mn = kInf;
    for (size_t k = 0; k < count; ++k) {
      const float step = std::min(std::min(up[k + 1], up[k]), diag[k]);
      const float c = SqDiff(av[k], bv[k]) + step;
      out[k] = c;
      if constexpr (kCascade) {
        mn = std::min(mn, c + suffix[lo + k]);
      } else {
        mn = std::min(mn, c);
      }
    }
    d0[lo - 1] = kInf;
    d0[hi + 1] = kInf;
    const float cur = kCascade ? mn * scale : mn;
    if (cur >= bound && prev_min >= bound) return std::min(cur, prev_min);
    prev_min = cur;
    float* const oldest = d2;
    d2 = d1;
    d1 = d0;
    d0 = oldest;
  }
  return d1[m];  // cell (n, m), on the last diagonal
}

}  // namespace

float DtwBand(SeriesView a, SeriesView b, size_t band, float bound) {
  // Per-thread fallback arena for callers without per-query scratch:
  // this runs once per surviving candidate in the DTW refinement loops,
  // and a per-call allocation would put the allocator in that hot path.
  static thread_local DtwScratch scratch;
  return DtwBand(a, b, band, bound, &scratch);
}

float DtwBand(SeriesView a, SeriesView b, size_t band, float bound,
              DtwScratch* scratch, const std::vector<float>* suffix) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return 0.0f;
  if ((n > m ? n - m : m - n) > band) return kInf;  // (n, m) is off-band
  scratch->reversed.assign(a.rbegin(), a.rend());
  scratch->diagonals.resize(3 * (m + 2));
  if (suffix != nullptr) {
    assert(suffix->size() == m + 1);
    return AntiDiagonalDtw<true>(scratch->reversed.data(), b.data(), n, m,
                                 band, bound, suffix->data(),
                                 scratch->diagonals.data());
  }
  return AntiDiagonalDtw<false>(scratch->reversed.data(), b.data(), n, m,
                                band, bound, nullptr,
                                scratch->diagonals.data());
}

void ComputeEnvelope(SeriesView series, size_t band,
                     std::vector<Value>* lower, std::vector<Value>* upper) {
  const size_t n = series.size();
  lower->assign(n, 0.0f);
  upper->assign(n, 0.0f);
  if (n == 0) return;
  // Monotonic deques of indices (Lemire's streaming min/max): front is
  // the min/max of the current window [i - band, i + band] ∩ [0, n).
  std::deque<size_t> min_q, max_q;
  const auto push = [&](size_t j) {
    while (!min_q.empty() && series[min_q.back()] >= series[j]) {
      min_q.pop_back();
    }
    min_q.push_back(j);
    while (!max_q.empty() && series[max_q.back()] <= series[j]) {
      max_q.pop_back();
    }
    max_q.push_back(j);
  };
  for (size_t j = 0; j < n && j <= band; ++j) push(j);
  for (size_t i = 0; i < n; ++i) {
    (*lower)[i] = series[min_q.front()];
    (*upper)[i] = series[max_q.front()];
    if (i + band + 1 < n) push(i + band + 1);
    if (i >= band) {  // index i - band leaves the window of i + 1
      if (min_q.front() == i - band) min_q.pop_front();
      if (max_q.front() == i - band) max_q.pop_front();
    }
  }
}

void ComputeEnvelopePaaMinMax(SeriesView lower, SeriesView upper, int w,
                              float* lower_paa, float* upper_paa) {
  const size_t n = lower.size();
  // Same segment math as ComputePaa, same precondition: w > n would
  // produce empty segments and out-of-bounds reads below.
  assert(w >= 1 && static_cast<size_t>(w) <= n);
  for (int s = 0; s < w; ++s) {
    const size_t begin = PaaSegmentBegin(n, w, s);
    const size_t end = PaaSegmentBegin(n, w, s + 1);
    float lo = lower[begin], hi = upper[begin];
    for (size_t j = begin + 1; j < end; ++j) {
      lo = std::min(lo, lower[j]);
      hi = std::max(hi, upper[j]);
    }
    lower_paa[s] = lo;
    upper_paa[s] = hi;
  }
}

float LbKeoghSq(SeriesView lower, SeriesView upper, SeriesView candidate,
                float bound, std::vector<float>* suffix) {
  const size_t m = candidate.size();
  assert(lower.size() >= m && upper.size() >= m);
  const float scale = LowerBoundScale(lower.size(), m);
  const float* x = candidate.data();
  const float* lo = lower.data();
  const float* hi = upper.data();
  // Eight independent sums: lane k adds the terms of points i = k mod 8.
  float acc[8] = {};
  size_t i = 0;
  while (i + kLbKeoghBlock <= m) {
    for (const size_t end = i + kLbKeoghBlock; i < end; i += 8) {
      for (size_t k = 0; k < 8; ++k) {
        acc[k] += KeoghTerm(x[i + k], lo[i + k], hi[i + k]);
      }
    }
    const float partial = JoinLanes(acc) * scale;
    if (partial >= bound) return partial;  // abandoned: >= bound
  }
  for (size_t k = 0; i < m; ++i, ++k) {
    acc[k % 8] += KeoghTerm(x[i], lo[i], hi[i]);
  }
  const float lb = JoinLanes(acc) * scale;
  if (suffix != nullptr && lb < bound) {
    suffix->resize(m + 1);
    float* s = suffix->data();
    s[m] = 0.0f;
    for (size_t j = m; j-- > 0;) {
      s[j] = KeoghTerm(x[j], lo[j], hi[j]) + s[j + 1];
    }
  }
  return lb;
}

}  // namespace parisax
