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

void MinDistPaaToRootKeysSq(const float* query_paa, const uint32_t* keys,
                            size_t count, int w, size_t n, float* out) {
  // gaps[2 * s + b]: the gap MinDistPaaToWordSq adds for segment s of a
  // root word whose 1-bit symbol there is b.
  const BreakpointTable& table = BreakpointTable::Get();
  float gaps[2 * kMaxSegments];
  for (int s = 0; s < w; ++s) {
    const float p = query_paa[s];
    gaps[2 * s] = GapSq(p, table.RegionLow(1, 0), table.RegionHigh(1, 0));
    gaps[2 * s + 1] = GapSq(p, table.RegionLow(1, 1), table.RegionHigh(1, 1));
  }
  const float scale = static_cast<float>(n) / static_cast<float>(w);
  // RootWord takes segment s's bit from key bit w - 1 - s.
  const auto gap = [&](uint32_t key, int s) {
    return gaps[2 * s + ((key >> (w - 1 - s)) & 1u)];
  };
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (int s = 0; s < w; ++s) {
      s0 += gap(keys[i], s);
      s1 += gap(keys[i + 1], s);
      s2 += gap(keys[i + 2], s);
      s3 += gap(keys[i + 3], s);
    }
    out[i] = s0 * scale;
    out[i + 1] = s1 * scale;
    out[i + 2] = s2 * scale;
    out[i + 3] = s3 * scale;
  }
  for (; i < count; ++i) {
    float sum = 0.0f;
    for (int s = 0; s < w; ++s) sum += gap(keys[i], s);
    out[i] = sum * scale;
  }
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

void MinDistTable::ToSymbolsSq(const SaxSymbols* first, size_t stride,
                               size_t count, float* out) const {
  const auto* bytes = reinterpret_cast<const unsigned char*>(first);
  const auto summary = [&](size_t i) -> const SaxSymbols& {
    return *reinterpret_cast<const SaxSymbols*>(bytes + i * stride);
  };
  const float* rows = gaps_.data() + LevelOffset(kMaxCardBits);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Four independent chains, each adding its gaps in segment order
    // and scaled once, as the single lookup does.
    const uint8_t* a = summary(i).symbols;
    const uint8_t* b = summary(i + 1).symbols;
    const uint8_t* c = summary(i + 2).symbols;
    const uint8_t* d = summary(i + 3).symbols;
    float sa = 0.0f, sb = 0.0f, sc = 0.0f, sd = 0.0f;
    const float* row = rows;
    for (int s = 0; s < w_; ++s, row += kRegionsPerSegment) {
      sa += row[a[s]];
      sb += row[b[s]];
      sc += row[c[s]];
      sd += row[d[s]];
    }
    out[i] = sa * scale_;
    out[i + 1] = sb * scale_;
    out[i + 2] = sc * scale_;
    out[i + 3] = sd * scale_;
  }
  for (; i < count; ++i) out[i] = ToSymbolsSq(summary(i));
}

}  // namespace parisax
