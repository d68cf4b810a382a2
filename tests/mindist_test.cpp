// Property tests for the mindist lower bounds -- the correctness
// foundation of all pruning in ADS+/ParIS/MESSI:
//   mindist(PAA(q), iSAX(s)) <= ED(q, s)          (any cardinality)
//   envelope-mindist(q, iSAX(s)) <= DTW(q, s)     (any cardinality)
// plus tightness monotonicity in cardinality.
#include "sax/mindist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "index/node.h"
#include "io/generator.h"
#include "sax/paa.h"
#include "util/rng.h"

namespace parisax {
namespace {

struct MindistCase {
  DatasetKind kind;
  int w;
  size_t n;
};

class MindistProperty : public ::testing::TestWithParam<MindistCase> {};

SaxWord WordAtBits(const SaxSymbols& full, int w, int bits) {
  SaxWord word;
  for (int s = 0; s < w; ++s) {
    word.bits[s] = static_cast<uint8_t>(bits);
    word.symbols[s] = TruncateSymbol(full.symbols[s], bits);
  }
  return word;
}

TEST_P(MindistProperty, LowerBoundsEuclidean) {
  const auto [kind, w, n] = GetParam();
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = 120;
  gen.length = n;
  gen.seed = 31;
  const Dataset data = GenerateDataset(gen);
  const Dataset queries = GenerateQueries(kind, 6, n, 31);

  float qpaa[kMaxSegments], spaa[kMaxSegments];
  SaxSymbols ssax;
  for (size_t qi = 0; qi < queries.count(); ++qi) {
    const SeriesView q = queries.series(qi);
    ComputePaa(q, w, qpaa);
    for (SeriesId i = 0; i < data.count(); ++i) {
      const SeriesView s = data.series(i);
      const float ed_sq = SquaredEuclideanScalar(q.data(), s.data(), n);
      ComputePaa(s, w, spaa);
      SymbolsFromPaa(spaa, w, &ssax);

      // Full-cardinality bound (the hot path).
      const float lb_full = MinDistPaaToSymbolsSq(qpaa, ssax, w, n);
      EXPECT_LE(lb_full, ed_sq * (1.0f + 1e-4f) + 1e-4f)
          << "q=" << qi << " s=" << i;

      // Every cardinality lower-bounds ED, and coarser cardinalities are
      // never tighter than finer ones.
      float prev = -1.0f;
      for (int bits = 1; bits <= kMaxCardBits; ++bits) {
        const SaxWord word = WordAtBits(ssax, w, bits);
        const float lb = MinDistPaaToWordSq(qpaa, word, w, n);
        EXPECT_LE(lb, ed_sq * (1.0f + 1e-4f) + 1e-4f)
            << "bits=" << bits << " q=" << qi << " s=" << i;
        EXPECT_GE(lb, prev - 1e-5f) << "tightness must grow with bits";
        prev = lb;
      }
      // Word at 8 bits equals the symbols-based bound.
      const SaxWord full_word = WordAtBits(ssax, w, kMaxCardBits);
      EXPECT_FLOAT_EQ(MinDistPaaToWordSq(qpaa, full_word, w, n), lb_full);
    }
  }
}

TEST_P(MindistProperty, EnvelopeLowerBoundsDtw) {
  const auto [kind, w, n] = GetParam();
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = 60;
  gen.length = n;
  gen.seed = 37;
  const Dataset data = GenerateDataset(gen);
  const Dataset queries = GenerateQueries(kind, 3, n, 37);
  const size_t band = n / 10;

  float spaa[kMaxSegments];
  SaxSymbols ssax;
  std::vector<Value> lower, upper;
  float env_lo_paa[kMaxSegments], env_hi_paa[kMaxSegments];
  for (size_t qi = 0; qi < queries.count(); ++qi) {
    const SeriesView q = queries.series(qi);
    ComputeEnvelope(q, band, &lower, &upper);
    ComputeEnvelopePaaMinMax(lower, upper, w, env_lo_paa, env_hi_paa);
    for (SeriesId i = 0; i < data.count(); ++i) {
      const SeriesView s = data.series(i);
      const float dtw_sq = DtwBand(q, s, band, 1e30f);
      ComputePaa(s, w, spaa);
      SymbolsFromPaa(spaa, w, &ssax);

      const float lb_full =
          MinDistEnvelopePaaToSymbolsSq(env_lo_paa, env_hi_paa, ssax, w, n);
      EXPECT_LE(lb_full, dtw_sq * (1.0f + 1e-4f) + 1e-4f)
          << "q=" << qi << " s=" << i;

      for (int bits = 1; bits <= kMaxCardBits; bits += 3) {
        const SaxWord word = WordAtBits(ssax, w, bits);
        const float lb =
            MinDistEnvelopePaaToWordSq(env_lo_paa, env_hi_paa, word, w, n);
        EXPECT_LE(lb, dtw_sq * (1.0f + 1e-4f) + 1e-4f)
            << "bits=" << bits << " q=" << qi << " s=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndShapes, MindistProperty,
    ::testing::Values(MindistCase{DatasetKind::kRandomWalk, 8, 64},
                      MindistCase{DatasetKind::kRandomWalk, 16, 256},
                      MindistCase{DatasetKind::kSaldEeg, 16, 128},
                      MindistCase{DatasetKind::kSeismicBurst, 8, 96},
                      MindistCase{DatasetKind::kRandomWalk, 4, 61}),
    [](const auto& info) {
      return std::string(DatasetKindName(info.param.kind)) + "_w" +
             std::to_string(info.param.w) + "_n" +
             std::to_string(info.param.n);
    });

TEST(MindistTest, ZeroWhenPaaInsideRegion) {
  // A query whose PAA equals the series PAA has mindist zero against that
  // series' symbols.
  GeneratorOptions gen;
  gen.count = 10;
  gen.length = 64;
  const Dataset data = GenerateDataset(gen);
  const int w = 8;
  float paa[kMaxSegments];
  SaxSymbols sax;
  for (SeriesId i = 0; i < data.count(); ++i) {
    ComputePaa(data.series(i), w, paa);
    SymbolsFromPaa(paa, w, &sax);
    EXPECT_FLOAT_EQ(MinDistPaaToSymbolsSq(paa, sax, w, 64), 0.0f);
  }
}

TEST(MindistTest, ScalesWithSeriesLength) {
  // Same PAA gap, doubled n => doubled squared mindist (n/w scaling).
  SaxSymbols sax;
  sax.symbols[0] = 0;  // region (-inf, lowest breakpoint]
  const int w = 1;
  float paa[1] = {10.0f};  // far above region 0
  const float d64 = MinDistPaaToSymbolsSq(paa, sax, w, 64);
  const float d128 = MinDistPaaToSymbolsSq(paa, sax, w, 128);
  EXPECT_GT(d64, 0.0f);
  EXPECT_NEAR(d128, 2.0f * d64, 1e-3f);
}

// --- MinDistTable ------------------------------------------------------------

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Segment values that exercise every branch of the reference gaps:
/// values exactly on breakpoints (at coarse and fine cardinalities),
/// just beside them, inside regions, and beyond the outermost 8-bit
/// breakpoints where the edge regions are unbounded.
std::vector<float> ProbeValues() {
  const BreakpointTable& table = BreakpointTable::Get();
  std::vector<float> values = {0.0f, -0.5f, 0.25f, 3.5f, -3.5f, 40.0f, -40.0f};
  for (const int bits : {1, 2, 5, kMaxCardBits}) {
    for (const double bp : table.Breakpoints(bits)) {
      const float v = static_cast<float>(bp);
      values.push_back(v);
      values.push_back(std::nextafter(v, 1e9f));
      values.push_back(std::nextafter(v, -1e9f));
    }
  }
  return values;
}

/// Query intervals on w segments drawn from `values`: the ED form
/// (lo == hi) when `degenerate`, otherwise an envelope-like [lo, hi].
void DrawInterval(const std::vector<float>& values, int w, bool degenerate,
                  Rng* rng, float* lo, float* hi) {
  for (int s = 0; s < w; ++s) {
    const float a = values[rng->NextBelow(values.size())];
    const float b = values[rng->NextBelow(values.size())];
    lo[s] = degenerate ? a : std::min(a, b);
    hi[s] = degenerate ? a : std::max(a, b);
  }
}

TEST(MinDistTableTest, BitIdenticalToReferenceFunctions) {
  const std::vector<float> values = ProbeValues();
  Rng rng(97);
  for (const int w : {16, 8, 5}) {
    for (const size_t n : {size_t{256}, size_t{61}}) {
      for (const bool ed : {true, false}) {
        for (int trial = 0; trial < 40; ++trial) {
          float lo[kMaxSegments], hi[kMaxSegments];
          DrawInterval(values, w, ed, &rng, lo, hi);
          const MinDistTable table(lo, hi, w, n);
          for (int word_trial = 0; word_trial < 200; ++word_trial) {
            SaxSymbols sax;
            SaxWord word;
            for (int s = 0; s < w; ++s) {
              sax.symbols[s] = static_cast<uint8_t>(rng.NextBelow(256));
              word.bits[s] =
                  static_cast<uint8_t>(1 + rng.NextBelow(kMaxCardBits));
              word.symbols[s] = TruncateSymbol(sax.symbols[s], word.bits[s]);
            }
            const float want_symbols =
                ed ? MinDistPaaToSymbolsSq(lo, sax, w, n)
                   : MinDistEnvelopePaaToSymbolsSq(lo, hi, sax, w, n);
            const float want_word =
                ed ? MinDistPaaToWordSq(lo, word, w, n)
                   : MinDistEnvelopePaaToWordSq(lo, hi, word, w, n);
            ASSERT_TRUE(SameBits(table.ToSymbolsSq(sax), want_symbols))
                << "w=" << w << " n=" << n << " ed=" << ed << " got "
                << table.ToSymbolsSq(sax) << " want " << want_symbols;
            ASSERT_TRUE(SameBits(table.ToWordSq(word), want_word))
                << "w=" << w << " n=" << n << " ed=" << ed
                << " word=" << word.ToString(w) << " got "
                << table.ToWordSq(word) << " want " << want_word;
          }
        }
      }
    }
  }
}

TEST(MinDistTableTest, EveryRegionOfEveryCardinalityMatches) {
  // Exhaustive per level: each segment's query value sits on, beside or
  // beyond a breakpoint, and every region at every cardinality (and
  // every full 8-bit symbol) is looked up on every segment.
  const std::vector<float> values = ProbeValues();
  Rng rng(5);
  for (const int w : {16, 8, 5}) {
    for (const bool ed : {true, false}) {
      for (int trial = 0; trial < 20; ++trial) {
        float lo[kMaxSegments], hi[kMaxSegments];
        DrawInterval(values, w, ed, &rng, lo, hi);
        const MinDistTable table(lo, hi, w, 128);
        for (int bits = 1; bits <= kMaxCardBits; ++bits) {
          for (uint32_t sym = 0; sym < (1u << bits); ++sym) {
            SaxWord word;
            SaxSymbols sax;
            for (int s = 0; s < w; ++s) {
              // Segments rotate through the regions, so over all `sym`
              // every segment meets every region of this cardinality.
              const uint32_t seg_sym = (sym + s) & ((1u << bits) - 1);
              word.bits[s] = static_cast<uint8_t>(bits);
              word.symbols[s] = static_cast<uint8_t>(seg_sym);
              sax.symbols[s] =
                  static_cast<uint8_t>(seg_sym << (kMaxCardBits - bits));
            }
            const float want_word =
                ed ? MinDistPaaToWordSq(lo, word, w, 128)
                   : MinDistEnvelopePaaToWordSq(lo, hi, word, w, 128);
            ASSERT_TRUE(SameBits(table.ToWordSq(word), want_word))
                << "w=" << w << " bits=" << bits << " sym=" << sym;
            if (bits == kMaxCardBits) {
              const float want_symbols =
                  ed ? MinDistPaaToSymbolsSq(lo, sax, w, 128)
                     : MinDistEnvelopePaaToSymbolsSq(lo, hi, sax, w, 128);
              ASSERT_TRUE(SameBits(table.ToSymbolsSq(sax), want_symbols))
                  << "w=" << w << " sym=" << sym;
            }
          }
        }
      }
    }
  }
}

/// Fills `count` summaries at `first`, `stride` bytes apart, with random
/// symbols on the first w segments.
void FillSummaries(SaxSymbols* first, size_t stride, size_t count, int w,
                   Rng* rng) {
  auto* bytes = reinterpret_cast<unsigned char*>(first);
  for (size_t i = 0; i < count; ++i) {
    SaxSymbols* sax = reinterpret_cast<SaxSymbols*>(bytes + i * stride);
    for (int s = 0; s < w; ++s) {
      sax->symbols[s] = static_cast<uint8_t>(rng->NextBelow(256));
    }
  }
}

/// Checks the batched lookup over `count` summaries `stride` bytes apart
/// against one ToSymbolsSq per summary, by bit pattern, and that it
/// writes nothing past out[count - 1].
void ExpectBatchMatchesSingle(const MinDistTable& table,
                              const SaxSymbols* first, size_t stride,
                              size_t count, const std::string& where) {
  constexpr float kSentinel = -1.0f;
  std::vector<float> out(count + 4, kSentinel);
  table.ToSymbolsSq(first, stride, count, out.data());
  const auto* bytes = reinterpret_cast<const unsigned char*>(first);
  for (size_t i = 0; i < count; ++i) {
    const float want = table.ToSymbolsSq(
        *reinterpret_cast<const SaxSymbols*>(bytes + i * stride));
    ASSERT_TRUE(SameBits(out[i], want))
        << where << " i=" << i << " got " << out[i] << " want " << want;
  }
  for (size_t i = count; i < out.size(); ++i) {
    ASSERT_TRUE(SameBits(out[i], kSentinel)) << where << " i=" << i;
  }
}

TEST(MinDistTableTest, BatchedSymbolsBitIdenticalAtEveryCountAndStride) {
  // Every count up to 13 covers zero to three four-wide steps with each
  // remainder; 1000 covers a long run. Rows are read both as SaxSymbols
  // arrays (the flat SAX array, segment rows) and as the summaries
  // inside LeafEntry records (MESSI's leaves).
  static_assert(sizeof(SaxSymbols) == 16 && sizeof(LeafEntry) == 24,
                "the strides this test names");
  const std::vector<float> values = ProbeValues();
  Rng rng(211);
  std::vector<size_t> counts;
  for (size_t count = 0; count <= 13; ++count) counts.push_back(count);
  counts.push_back(1000);
  for (const int w : {16, 8, 5}) {
    for (const bool ed : {true, false}) {
      for (int trial = 0; trial < 4; ++trial) {
        float lo[kMaxSegments], hi[kMaxSegments];
        DrawInterval(values, w, ed, &rng, lo, hi);
        const MinDistTable table(lo, hi, w, 256);
        for (const size_t count : counts) {
          const std::string where = "w=" + std::to_string(w) +
                                    " ed=" + std::to_string(ed) +
                                    " count=" + std::to_string(count);
          std::vector<SaxSymbols> rows(count);
          FillSummaries(rows.data(), sizeof(SaxSymbols), count, w, &rng);
          ExpectBatchMatchesSingle(table, rows.data(), sizeof(SaxSymbols),
                                   count, where + " stride=16");
          std::vector<LeafEntry> entries(count);
          for (size_t i = 0; i < count; ++i) entries[i].id = i;
          SaxSymbols* entry_sax = count > 0 ? &entries[0].sax : nullptr;
          FillSummaries(entry_sax, sizeof(LeafEntry), count, w, &rng);
          ExpectBatchMatchesSingle(table, entry_sax, sizeof(LeafEntry),
                                   count, where + " stride=24");
          for (size_t i = 0; i < count; ++i) ASSERT_EQ(entries[i].id, i);
          // The single lookup is itself pinned to the reference
          // function; check the first row of each batch against it too.
          if (count > 0) {
            const float want =
                ed ? MinDistPaaToSymbolsSq(lo, rows[0], w, 256)
                   : MinDistEnvelopePaaToSymbolsSq(lo, hi, rows[0], w, 256);
            float got;
            table.ToSymbolsSq(rows.data(), sizeof(SaxSymbols), 1, &got);
            ASSERT_TRUE(SameBits(got, want)) << where;
          }
        }
      }
    }
  }
}

TEST(MinDistRootKeysTest, EqualsReferenceOnEveryRootWord) {
  // Every key of every width, in one call (a multiple of four keys) and
  // in a call that starts one key later (a remainder of three).
  const std::vector<float> values = ProbeValues();
  Rng rng(223);
  for (const int w : {16, 8, 5}) {
    std::vector<uint32_t> keys(size_t{1} << w);
    for (uint32_t key = 0; key < keys.size(); ++key) keys[key] = key;
    for (const size_t n : {size_t{256}, size_t{61}}) {
      for (int trial = 0; trial < 3; ++trial) {
        float paa[kMaxSegments], unused[kMaxSegments];
        DrawInterval(values, w, /*degenerate=*/true, &rng, paa, unused);
        std::vector<float> all(keys.size());
        MinDistPaaToRootKeysSq(paa, keys.data(), keys.size(), w, n,
                               all.data());
        std::vector<float> shifted(keys.size() - 1);
        MinDistPaaToRootKeysSq(paa, keys.data() + 1, keys.size() - 1, w, n,
                               shifted.data());
        for (const uint32_t key : keys) {
          const float want = MinDistPaaToWordSq(paa, RootWord(key, w), w, n);
          ASSERT_TRUE(SameBits(all[key], want))
              << "w=" << w << " n=" << n << " key=" << key << " got "
              << all[key] << " want " << want;
          if (key > 0) {
            ASSERT_TRUE(SameBits(shifted[key - 1], want))
                << "w=" << w << " n=" << n << " key=" << key;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace parisax
