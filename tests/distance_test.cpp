// Tests for the distance kernels: scalar/AVX2 agreement, early
// abandoning semantics, z-normalization, DTW against row-order
// references, envelopes, LB_Keogh and the LB_Keogh -> DTW cascade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "dist/znorm.h"
#include "io/generator.h"
#include "util/rng.h"

namespace parisax {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> RandomSeries(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

std::vector<float> RandomWalk(Rng& rng, size_t n) {
  std::vector<float> v(n);
  float level = 0.0f;
  for (float& x : v) x = level += static_cast<float>(rng.NextGaussian());
  return v;
}

bool SameBits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

class EuclideanLengths : public ::testing::TestWithParam<size_t> {};

TEST_P(EuclideanLengths, ScalarAndSimdAgree) {
  const size_t n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, n);
    const auto b = RandomSeries(rng, n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    const float dispatched =
        SquaredEuclidean(a.data(), b.data(), n, KernelPolicy::kAuto);
    EXPECT_NEAR(dispatched, scalar, 1e-3f * std::max(1.0f, scalar));
#ifdef PARISAX_HAVE_AVX2
    ASSERT_TRUE(SimdAvailable());
    const float simd = SquaredEuclideanAvx2(a.data(), b.data(), n);
    EXPECT_NEAR(simd, scalar, 1e-3f * std::max(1.0f, scalar));
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, EuclideanLengths,
                         ::testing::Values(1, 3, 7, 8, 15, 16, 17, 31, 32,
                                           33, 64, 100, 128, 256, 1000));

// The AVX2 kernel processes 8 floats per lane-step; every length that is
// not a multiple of 8 exercises the scalar tail. Cover the boundary
// explicitly for all dispatch policies, including kAvx2 on builds (or
// CPUs) without AVX2, where it must fall back to scalar instead of
// faulting.
TEST(KernelBoundaryTest, TailLengthsAgreeAcrossAllPolicies) {
  Rng rng(900);
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 25u,
                         128u, 256u}) {
    const auto a = RandomSeries(rng, n);
    const auto b = RandomSeries(rng, n);
    const float scalar = SquaredEuclideanScalar(a.data(), b.data(), n);
    for (const KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kScalar, KernelPolicy::kAvx2}) {
      const float d = SquaredEuclidean(a.data(), b.data(), n, policy);
      EXPECT_NEAR(d, scalar, 1e-3f * std::max(1.0f, scalar)) << "n=" << n;
      const float ea = SquaredEuclideanEarlyAbandon(a.data(), b.data(), n,
                                                    scalar * 2.0f + 1.0f,
                                                    policy);
      EXPECT_NEAR(ea, scalar, 1e-3f * std::max(1.0f, scalar)) << "n=" << n;
    }
  }
}

TEST(KernelBoundaryTest, ScalarPolicyIsExactlyTheScalarKernel) {
  Rng rng(901);
  const auto a = RandomSeries(rng, 100);
  const auto b = RandomSeries(rng, 100);
  EXPECT_FLOAT_EQ(
      SquaredEuclidean(a.data(), b.data(), 100, KernelPolicy::kScalar),
      SquaredEuclideanScalar(a.data(), b.data(), 100));
}

TEST(KernelBoundaryTest, DispatchIsConsistentWithSimdAvailability) {
#ifdef PARISAX_HAVE_AVX2
  // Compiled in: availability is the CPU's call, and kAuto must serve
  // answers either way (checked by TailLengthsAgreeAcrossAllPolicies).
  SUCCEED() << "AVX2 kernel compiled in, SimdAvailable()="
            << SimdAvailable();
#else
  // Not compiled in: kAuto/kAvx2 have nothing to dispatch to and must
  // report SIMD as unavailable (the scalar fallback path).
  EXPECT_FALSE(SimdAvailable());
#endif
}

TEST(EuclideanTest, ZeroForIdenticalSeries) {
  Rng rng(2);
  const auto a = RandomSeries(rng, 128);
  EXPECT_FLOAT_EQ(SquaredEuclidean(a.data(), a.data(), 128), 0.0f);
}

TEST(EuclideanTest, EarlyAbandonExactWhenUnderBound) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 200);
    const auto b = RandomSeries(rng, 200);
    const float exact = SquaredEuclidean(a.data(), b.data(), 200);
    const float ea = SquaredEuclideanEarlyAbandon(a.data(), b.data(), 200,
                                                  exact * 2.0f + 1.0f);
    EXPECT_NEAR(ea, exact, 1e-3f * std::max(1.0f, exact));
  }
}

TEST(EuclideanTest, EarlyAbandonReturnsAtLeastBoundWhenAbandoned) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 200);
    const auto b = RandomSeries(rng, 200);
    const float exact = SquaredEuclidean(a.data(), b.data(), 200);
    const float bound = exact * 0.25f;
    const float ea =
        SquaredEuclideanEarlyAbandon(a.data(), b.data(), 200, bound);
    EXPECT_GE(ea, bound);
  }
}

TEST(EuclideanTest, EarlyAbandonZeroBoundAbandonsImmediately) {
  Rng rng(5);
  const auto a = RandomSeries(rng, 64);
  const auto b = RandomSeries(rng, 64);
  EXPECT_GE(SquaredEuclideanEarlyAbandon(a.data(), b.data(), 64, 0.0f),
            0.0f);
}

TEST(ZNormTest, NormalizesMoments) {
  Rng rng(6);
  std::vector<float> v(500);
  for (float& x : v) x = static_cast<float>(3.0 + 5.0 * rng.NextGaussian());
  ZNormalize(MutableSeriesView(v.data(), v.size()));
  EXPECT_TRUE(IsZNormalized(SeriesView(v.data(), v.size())));
  const SeriesMoments m = ComputeMoments(SeriesView(v.data(), v.size()));
  EXPECT_NEAR(m.mean, 0.0, 1e-4);
  EXPECT_NEAR(m.stddev, 1.0, 1e-4);
}

TEST(ZNormTest, ConstantSeriesBecomesZeros) {
  std::vector<float> v(64, 42.0f);
  ZNormalize(MutableSeriesView(v.data(), v.size()));
  for (const float x : v) EXPECT_EQ(x, 0.0f);
  EXPECT_TRUE(IsZNormalized(SeriesView(v.data(), v.size())));
}

TEST(ZNormTest, EmptySeriesIsHandled) {
  std::vector<float> v;
  ZNormalize(MutableSeriesView(v.data(), 0));  // must not crash
  const SeriesMoments m = ComputeMoments(SeriesView(v.data(), 0));
  EXPECT_EQ(m.mean, 0.0);
  EXPECT_EQ(m.stddev, 0.0);
}

// --- DTW ---------------------------------------------------------------

float SqDiff(float x, float y) {
  const float d = x - y;
  return d * d;
}

// Unconstrained DTW by the full O(n*m) dynamic program, row by row: the
// full-band reference.
float DtwNaive(SeriesView a, SeriesView b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return 0.0f;
  std::vector<float> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0f;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = kInf;
    for (size_t j = 1; j <= m; ++j) {
      const float step = std::min({prev[j], cur[j - 1], prev[j - 1]});
      cur[j] = SqDiff(a[i - 1], b[j - 1]) + step;
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

// Banded DTW row by row, abandoning once a row's cheapest cell reaches
// `bound` (it then returns that row minimum): the reference the
// anti-diagonal DtwBand must match bit for bit.
float RowOrderDtwBand(SeriesView a, SeriesView b, size_t band, float bound) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return 0.0f;
  std::vector<float> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0f;
  for (size_t i = 1; i <= n; ++i) {
    const size_t lo = i > band ? i - band : 1;
    const size_t hi = std::min(m, i + band);
    if (lo > hi) return kInf;  // the band cannot reach the columns
    std::fill(cur.begin() + (lo - 1),
              cur.begin() + (std::min(m, hi + 1) + 1), kInf);
    float row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      const float step = std::min({prev[j], cur[j - 1], prev[j - 1]});
      const float c = SqDiff(a[i - 1], b[j - 1]) + step;
      cur[j] = c;
      row_min = std::min(row_min, c);
    }
    if (row_min >= bound) return row_min;
    std::swap(prev, cur);
  }
  return prev[m];
}

// LB_Keogh's term for one point, as the one-chain LB_Keogh computed it.
float KeoghTerm(float x, float lo, float hi) {
  if (x > hi) return SqDiff(x, hi);
  if (x < lo) return SqDiff(x, lo);
  return 0.0f;
}

// LB_Keogh's terms summed in eight lanes and joined as LbKeoghSq joins
// them, without its (1 - delta) scale.
float UnscaledEightLaneLb(SeriesView lower, SeriesView upper,
                          SeriesView candidate) {
  float acc[8] = {};
  for (size_t i = 0; i < candidate.size(); ++i) {
    acc[i % 8] += KeoghTerm(candidate[i], lower[i], upper[i]);
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// LB_Keogh's terms added one after another in column order: the
// diagonal path's float sum when every cell of a column costs the same.
float SequentialLb(SeriesView lower, SeriesView upper,
                   SeriesView candidate) {
  float sum = 0.0f;
  for (size_t i = 0; i < candidate.size(); ++i) {
    sum += KeoghTerm(candidate[i], lower[i], upper[i]);
  }
  return sum;
}

TEST(DtwTest, EqualsNaiveWithFullBand) {
  Rng rng(7);
  for (const size_t n : {1u, 2u, 5u, 16u, 50u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto a = RandomSeries(rng, n);
      const auto b = RandomSeries(rng, n);
      const SeriesView av(a.data(), n), bv(b.data(), n);
      const float naive = DtwNaive(av, bv);
      const float banded = DtwBand(av, bv, n, 1e30f);
      EXPECT_NEAR(banded, naive, 1e-3f * std::max(1.0f, naive))
          << "n=" << n;
    }
  }
}

TEST(DtwTest, AntiDiagonalEqualsRowOrderBitForBit) {
  // Lengths 1-40 one by one, then a stride up to 300; for each, equal
  // lengths, lengths one and three apart (inside every band but 0) and
  // 13 apart (beyond band 12); bands 0, 1, 4, 12 and the full band.
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (size_t n = 47; n < 300; n += 23) lengths.push_back(n);
  lengths.push_back(300);
  Rng rng(18);
  DtwScratch scratch;
  size_t checked = 0, abandoned = 0;
  for (const size_t n : lengths) {
    for (const size_t m : {n, n + 1, n + 3, n + 13, n > 3 ? n - 3 : n}) {
      const auto a = RandomWalk(rng, n);
      const auto b = RandomWalk(rng, m);
      const SeriesView av(a.data(), n), bv(b.data(), m);
      for (const size_t band :
           {size_t{0}, size_t{1}, size_t{4}, size_t{12}, std::max(n, m)}) {
        const float exact = RowOrderDtwBand(av, bv, band, kInf);
        for (const float bound :
             {kInf, exact, std::nextafter(exact, kInf),
              std::nextafter(exact, -kInf), exact / 2}) {
          const float want = RowOrderDtwBand(av, bv, band, bound);
          const float got = DtwBand(av, bv, band, bound, &scratch);
          const std::string where = "n=" + std::to_string(n) +
                                    " m=" + std::to_string(m) +
                                    " band=" + std::to_string(band) +
                                    " bound=" + std::to_string(bound);
          if (want < bound) {
            EXPECT_TRUE(SameBits(got, want))
                << where << " got=" << got << " want=" << want;
          } else {
            EXPECT_GE(got, bound) << where;
            ++abandoned;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(abandoned, 0u);
  EXPECT_GT(checked, abandoned);
}

TEST(DtwTest, ZeroForIdenticalSeries) {
  Rng rng(8);
  const auto a = RandomSeries(rng, 64);
  const SeriesView av(a.data(), a.size());
  EXPECT_FLOAT_EQ(DtwBand(av, av, 5, 1e30f), 0.0f);
}

TEST(DtwTest, NeverExceedsEuclidean) {
  // The diagonal alignment is always inside any band: DTW <= ED^2.
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomSeries(rng, 80);
    const auto b = RandomSeries(rng, 80);
    const SeriesView av(a.data(), 80), bv(b.data(), 80);
    const float ed = SquaredEuclideanScalar(a.data(), b.data(), 80);
    for (const size_t band : {0u, 3u, 10u, 80u}) {
      EXPECT_LE(DtwBand(av, bv, band, 1e30f),
                ed * (1.0f + 1e-4f) + 1e-4f)
          << "band=" << band;
    }
  }
}

TEST(DtwTest, WiderBandNeverIncreasesCost) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, 60);
    const auto b = RandomSeries(rng, 60);
    const SeriesView av(a.data(), 60), bv(b.data(), 60);
    float prev = DtwBand(av, bv, 0, 1e30f);
    for (const size_t band : {1u, 2u, 4u, 8u, 16u, 60u}) {
      const float cur = DtwBand(av, bv, band, 1e30f);
      EXPECT_LE(cur, prev * (1.0f + 1e-4f) + 1e-4f) << "band=" << band;
      prev = cur;
    }
  }
}

TEST(DtwTest, BandZeroIsEuclidean) {
  Rng rng(11);
  const auto a = RandomSeries(rng, 70);
  const auto b = RandomSeries(rng, 70);
  const float ed = SquaredEuclideanScalar(a.data(), b.data(), 70);
  const float dtw0 =
      DtwBand(SeriesView(a.data(), 70), SeriesView(b.data(), 70), 0, 1e30f);
  EXPECT_NEAR(dtw0, ed, 1e-3f * std::max(1.0f, ed));
}

TEST(DtwTest, EarlyAbandonReturnsAtLeastBound) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSeries(rng, 64);
    const auto b = RandomSeries(rng, 64);
    const SeriesView av(a.data(), 64), bv(b.data(), 64);
    const float exact = DtwBand(av, bv, 8, 1e30f);
    const float bound = exact * 0.3f;
    if (bound <= 0.0f) continue;
    EXPECT_GE(DtwBand(av, bv, 8, bound), bound);
  }
}

// --- Envelopes and LB_Keogh ---------------------------------------------

void NaiveEnvelope(SeriesView s, size_t band, std::vector<float>* lo,
                   std::vector<float>* hi) {
  const size_t n = s.size();
  lo->assign(n, 0.0f);
  hi->assign(n, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = i >= band ? i - band : 0;
    const size_t e = std::min(n - 1, i + band);
    float mn = s[b], mx = s[b];
    for (size_t j = b; j <= e; ++j) {
      mn = std::min(mn, s[j]);
      mx = std::max(mx, s[j]);
    }
    (*lo)[i] = mn;
    (*hi)[i] = mx;
  }
}

TEST(EnvelopeTest, MatchesNaiveSlidingMinMax) {
  Rng rng(13);
  for (const size_t n : {1u, 5u, 32u, 100u}) {
    for (const size_t band : {0u, 1u, 3u, 10u, 99u}) {
      const auto s = RandomSeries(rng, n);
      const SeriesView sv(s.data(), n);
      std::vector<float> lo1, hi1, lo2, hi2;
      ComputeEnvelope(sv, band, &lo1, &hi1);
      NaiveEnvelope(sv, band, &lo2, &hi2);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(lo1[i], lo2[i]) << "n=" << n << " band=" << band
                                  << " i=" << i;
        EXPECT_EQ(hi1[i], hi2[i]) << "n=" << n << " band=" << band
                                  << " i=" << i;
      }
    }
  }
}

TEST(EnvelopeTest, ContainsTheSeries) {
  Rng rng(14);
  const auto s = RandomSeries(rng, 120);
  const SeriesView sv(s.data(), 120);
  std::vector<float> lo, hi;
  for (const size_t band : {0u, 5u, 20u}) {
    ComputeEnvelope(sv, band, &lo, &hi);
    for (size_t i = 0; i < 120; ++i) {
      EXPECT_LE(lo[i], s[i]);
      EXPECT_GE(hi[i], s[i]);
    }
  }
}

TEST(LbKeoghTest, LowerBoundsDtw) {
  Rng rng(15);
  const size_t n = 96, band = 9;
  for (int trial = 0; trial < 40; ++trial) {
    const auto q = RandomSeries(rng, n);
    const auto c = RandomSeries(rng, n);
    const SeriesView qv(q.data(), n), cv(c.data(), n);
    std::vector<float> lo, hi;
    ComputeEnvelope(qv, band, &lo, &hi);
    const float lb = LbKeoghSq(lo, hi, cv, 1e30f);
    const float dtw = DtwBand(qv, cv, band, 1e30f);
    EXPECT_LE(lb, dtw * (1.0f + 1e-4f) + 1e-4f) << "trial=" << trial;
  }
}

TEST(LbKeoghTest, ZeroWhenInsideEnvelope) {
  Rng rng(16);
  const auto q = RandomSeries(rng, 64);
  const SeriesView qv(q.data(), 64);
  std::vector<float> lo, hi;
  ComputeEnvelope(qv, 4, &lo, &hi);
  // The query itself lies inside its own envelope.
  EXPECT_FLOAT_EQ(LbKeoghSq(lo, hi, qv, 1e30f), 0.0f);
}

TEST(LbKeoghTest, EarlyAbandonReturnsAtLeastBound) {
  Rng rng(17);
  const auto q = RandomSeries(rng, 64);
  std::vector<float> lo, hi;
  ComputeEnvelope(SeriesView(q.data(), 64), 2, &lo, &hi);
  for (int trial = 0; trial < 20; ++trial) {
    const auto c = RandomSeries(rng, 64);
    const SeriesView cv(c.data(), 64);
    const float full = LbKeoghSq(lo, hi, cv, 1e30f);
    if (full <= 0.0f) continue;
    const float bound = full * 0.5f;
    EXPECT_GE(LbKeoghSq(lo, hi, cv, bound), bound);
  }
}

TEST(LbKeoghTest, NeverExceedsDtwOnRandomWalks) {
  // Compared as floats, with no tolerance: pruning on LB_Keogh must never
  // drop a candidate DtwBand would keep.
  Rng rng(19);
  DtwScratch scratch;
  for (const size_t n : {16u, 61u, 100u, 256u, 512u, 1000u, 2048u}) {
    for (const size_t band : {size_t{0}, size_t{1}, size_t{4}, size_t{12},
                              n / 10}) {
      const auto q = RandomWalk(rng, n);
      std::vector<float> lo, hi;
      ComputeEnvelope(SeriesView(q.data(), n), band, &lo, &hi);
      for (int trial = 0; trial < 4; ++trial) {
        const auto c = RandomWalk(rng, n);
        const SeriesView qv(q.data(), n), cv(c.data(), n);
        const float lb = LbKeoghSq(lo, hi, cv, kInf);
        const float dtw = DtwBand(qv, cv, band, kInf, &scratch);
        EXPECT_LE(lb, dtw) << "n=" << n << " band=" << band;
      }
    }
  }
}

TEST(LbKeoghTest, ScaleCoversLbKeoghEqualToDtw) {
  // A constant query and candidates entirely outside its envelope: every
  // cell of column j costs exactly LB_Keogh's term j, so the diagonal
  // path is optimal and DtwBand's float value is the sequential sum of
  // the terms. Eight lanes round differently and, unscaled, land above
  // DTW on some of these inputs; LbKeoghSq's (1 - delta) keeps it below.
  Rng rng(20);
  DtwScratch scratch;
  size_t unscaled_above = 0;
  for (const size_t n : {16u, 64u, 256u, 1000u}) {
    const std::vector<float> q(n, 0.5f);
    std::vector<float> lo, hi;
    ComputeEnvelope(SeriesView(q.data(), n), 12, &lo, &hi);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<float> c(n);
      for (float& x : c) {
        const float gap =
            0.1f + std::fabs(static_cast<float>(rng.NextGaussian()));
        x = rng.NextBelow(2) == 0 ? 0.5f + gap : 0.5f - gap;
      }
      const SeriesView qv(q.data(), n), cv(c.data(), n);
      const float dtw = DtwBand(qv, cv, 12, kInf, &scratch);
      ASSERT_TRUE(SameBits(dtw, SequentialLb(lo, hi, cv))) << "n=" << n;
      EXPECT_LE(LbKeoghSq(lo, hi, cv, kInf), dtw) << "n=" << n;
      if (UnscaledEightLaneLb(lo, hi, cv) > dtw) ++unscaled_above;
    }
  }
  EXPECT_GT(unscaled_above, 0u);
}

TEST(LbKeoghTest, SuffixHoldsTheTermsOfLaterColumns) {
  Rng rng(21);
  const size_t n = 77;
  const auto q = RandomWalk(rng, n);
  const auto c = RandomWalk(rng, n);
  std::vector<float> lo, hi, suffix;
  ComputeEnvelope(SeriesView(q.data(), n), 5, &lo, &hi);
  const SeriesView cv(c.data(), n);
  ASSERT_LT(LbKeoghSq(lo, hi, cv, kInf, &suffix), kInf);
  ASSERT_EQ(suffix.size(), n + 1);
  EXPECT_EQ(suffix[n], 0.0f);
  for (size_t j = 0; j < n; ++j) {
    const float term = KeoghTerm(c[j], lo[j], hi[j]);
    EXPECT_TRUE(SameBits(suffix[j], term + suffix[j + 1])) << "j=" << j;
  }
}

// Runs LbKeoghSq for the envelope of `a` at `band` against `b` and checks
// the cascaded DtwBand against the plain one: just above the exact value
// it must return that value bit for bit, and at any bound up to the exact
// value it must return at least the bound.
void ExpectCascadeExact(SeriesView a, SeriesView b, size_t band,
                        const std::string& where) {
  std::vector<float> lo, hi, suffix;
  ComputeEnvelope(a, band, &lo, &hi);
  DtwScratch scratch;
  const float exact = DtwBand(a, b, band, kInf, &scratch);
  ASSERT_LE(LbKeoghSq(lo, hi, b, kInf, &suffix), exact) << where;
  ASSERT_EQ(suffix.size(), b.size() + 1) << where;
  const float above = std::nextafter(exact, kInf);
  const float kept = DtwBand(a, b, band, above, &scratch, &suffix);
  EXPECT_TRUE(SameBits(kept, exact))
      << where << " kept=" << kept << " exact=" << exact;
  for (const float bound : {exact, std::nextafter(exact, -kInf),
                            exact * 0.9f, exact / 2, 0.0f}) {
    EXPECT_GE(DtwBand(a, b, band, bound, &scratch, &suffix), bound)
        << where << " bound=" << bound;
  }
}

TEST(DtwCascadeTest, NeverAbandonsBelowTheBound) {
  Rng rng(22);
  for (const size_t n : {1u, 8u, 33u, 96u, 256u}) {
    for (const size_t band : {size_t{0}, size_t{1}, size_t{4}, size_t{12},
                              n}) {
      for (int trial = 0; trial < 6; ++trial) {
        const auto a = RandomWalk(rng, n);
        const auto b = RandomWalk(rng, n);
        ExpectCascadeExact(SeriesView(a.data(), n), SeriesView(b.data(), n),
                           band,
                           "n=" + std::to_string(n) +
                               " band=" + std::to_string(band));
      }
    }
  }
}

TEST(DtwCascadeTest, NeverAbandonsWhenLbKeoghEqualsDtw) {
  // The tight case of ScaleCoversLbKeoghEqualToDtw: the suffix sums
  // leave no slack on the optimal path except the (1 - delta) scale.
  Rng rng(23);
  for (const size_t n : {16u, 64u, 256u}) {
    const std::vector<float> q(n, -0.25f);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> c(n);
      for (float& x : c) {
        x = 0.5f + std::fabs(static_cast<float>(rng.NextGaussian()));
      }
      ExpectCascadeExact(SeriesView(q.data(), n), SeriesView(c.data(), n),
                         12, "n=" + std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace parisax
