// Squared-Euclidean distance kernels: the refinement hot path of every
// engine in this repository. ParIS+/MESSI credit a large part of their
// query speedup to SIMD early-abandoning ED, reproduced here as an AVX2
// kernel behind a runtime-dispatched policy.
//
// All distances are *squared* Euclidean (see core/types.h); callers
// compare against squared bounds and take sqrt only at API boundaries.
#ifndef PARISAX_DIST_EUCLIDEAN_H_
#define PARISAX_DIST_EUCLIDEAN_H_

#include <cstddef>

#include "core/types.h"

namespace parisax {

/// Distance-kernel selection (the paper's D4 "SIMD vs no SIMD" ablation).
///  - kAuto:   AVX2 when compiled in and supported by the CPU, else scalar.
///  - kScalar: always the portable scalar kernel.
///  - kAvx2:   the AVX2 kernel when compiled in and supported by the CPU;
///             falls back to scalar otherwise (never faults).
enum class KernelPolicy { kAuto, kScalar, kAvx2 };

/// True if the AVX2 kernel is compiled in (PARISAX_HAVE_AVX2) and the
/// running CPU supports AVX2.
bool SimdAvailable();

/// Early-abandon checkpoint granularity of the ED kernels (scalar and
/// AVX2): one bound comparison per this many accumulated points.
inline constexpr size_t kEarlyAbandonBlock = 16;

/// Portable scalar kernel: sum of squared differences over n points.
float SquaredEuclideanScalar(const float* a, const float* b, size_t n);

#ifdef PARISAX_HAVE_AVX2
/// AVX2 kernel (8-lane FP32). Handles any n, including tails that are
/// not multiples of 8. Caller must ensure SimdAvailable() or know the
/// CPU supports AVX2.
float SquaredEuclideanAvx2(const float* a, const float* b, size_t n);

/// AVX2 early-abandoning kernel: keeps the vector accumulator live
/// across blocks and only reduces it horizontally at the abandon
/// checkpoints. Same contract as SquaredEuclideanEarlyAbandon.
float SquaredEuclideanEarlyAbandonAvx2(const float* a, const float* b,
                                       size_t n, float bound);
#endif

/// Full squared-ED through the selected kernel policy.
float SquaredEuclidean(const float* a, const float* b, size_t n,
                       KernelPolicy policy = KernelPolicy::kAuto);

inline float SquaredEuclidean(SeriesView a, SeriesView b,
                              KernelPolicy policy = KernelPolicy::kAuto) {
  return SquaredEuclidean(a.data(), b.data(), a.size(), policy);
}

/// Early-abandoning squared-ED: accumulates blockwise and stops as soon
/// as the partial sum reaches `bound`.
///
/// Contract: if the exact distance is < bound, returns the exact value;
/// otherwise returns some partial sum >= bound (callers only ever compare
/// the result against `bound`, so the inflated value is never observed as
/// a distance). A bound <= 0 abandons immediately.
float SquaredEuclideanEarlyAbandon(const float* a, const float* b, size_t n,
                                   float bound,
                                   KernelPolicy policy = KernelPolicy::kAuto);

inline float SquaredEuclideanEarlyAbandon(
    SeriesView a, SeriesView b, float bound,
    KernelPolicy policy = KernelPolicy::kAuto) {
  return SquaredEuclideanEarlyAbandon(a.data(), b.data(), a.size(), bound,
                                      policy);
}

}  // namespace parisax

#endif  // PARISAX_DIST_EUCLIDEAN_H_
