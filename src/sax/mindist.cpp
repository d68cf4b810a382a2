#include "sax/mindist.h"

#include "sax/breakpoints.h"

namespace parisax {

namespace {

/// Squared distance from point `p` to interval [lo, hi] (0 if inside).
inline float GapSq(float p, float lo, float hi) {
  if (p < lo) {
    const float d = lo - p;
    return d * d;
  }
  if (p > hi) {
    const float d = p - hi;
    return d * d;
  }
  return 0.0f;
}

/// Squared distance between interval [alo, ahi] and interval [blo, bhi].
inline float IntervalGapSq(float alo, float ahi, float blo, float bhi) {
  if (blo > ahi) {
    const float d = blo - ahi;
    return d * d;
  }
  if (bhi < alo) {
    const float d = alo - bhi;
    return d * d;
  }
  return 0.0f;
}

}  // namespace

float MinDistPaaToWordSq(const float* query_paa, const SaxWord& word, int w,
                         size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const int bits = word.bits[s];
    const uint32_t sym = word.symbols[s];
    sum += GapSq(query_paa[s], table.RegionLow(bits, sym),
                 table.RegionHigh(bits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float MinDistPaaToSymbolsSq(const float* query_paa, const SaxSymbols& sax,
                            int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const uint32_t sym = sax.symbols[s];
    sum += GapSq(query_paa[s], table.RegionLow(kMaxCardBits, sym),
                 table.RegionHigh(kMaxCardBits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float MinDistEnvelopePaaToWordSq(const float* env_lower_paa,
                                 const float* env_upper_paa,
                                 const SaxWord& word, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const int bits = word.bits[s];
    const uint32_t sym = word.symbols[s];
    sum += IntervalGapSq(env_lower_paa[s], env_upper_paa[s],
                         table.RegionLow(bits, sym),
                         table.RegionHigh(bits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

float MinDistEnvelopePaaToSymbolsSq(const float* env_lower_paa,
                                    const float* env_upper_paa,
                                    const SaxSymbols& sax, int w, size_t n) {
  const BreakpointTable& table = BreakpointTable::Get();
  float sum = 0.0f;
  for (int s = 0; s < w; ++s) {
    const uint32_t sym = sax.symbols[s];
    sum += IntervalGapSq(env_lower_paa[s], env_upper_paa[s],
                         table.RegionLow(kMaxCardBits, sym),
                         table.RegionHigh(kMaxCardBits, sym));
  }
  return sum * (static_cast<float>(n) / static_cast<float>(w));
}

MinDistTable::MinDistTable(const float* lo, const float* hi, int w, size_t n)
    : w_(w),
      scale_(static_cast<float>(n) / static_cast<float>(w)),
      gaps_(static_cast<size_t>(w) * kRegionsPerSegment) {
  // IntervalGapSq over the degenerate interval [p, p] takes the same
  // branches and rounds the same way as GapSq(p, ...), so one table form
  // serves both the ED and the DTW bounds.
  const BreakpointTable& table = BreakpointTable::Get();
  float* row = gaps_.data();
  for (int s = 0; s < w; ++s, row += kRegionsPerSegment) {
    for (int bits = 1; bits <= kMaxCardBits; ++bits) {
      float* level = row + LevelOffset(bits);
      for (uint32_t sym = 0; sym < (1u << bits); ++sym) {
        level[sym] = IntervalGapSq(lo[s], hi[s], table.RegionLow(bits, sym),
                                   table.RegionHigh(bits, sym));
      }
    }
  }
}

}  // namespace parisax
