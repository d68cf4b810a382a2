// Ablation D4 and kernel microbenchmarks (google-benchmark): the SIMD vs
// scalar distance kernels the paper credits for part of its speedup,
// plus the other per-series primitives (PAA, SAX conversion, mindist and
// its per-query table, early abandoning, DTW, LB_Keogh and the
// LB_Keogh -> DTW refinement cascade).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "dist/dtw.h"
#include "dist/euclidean.h"
#include "dist/znorm.h"
#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "sax/word.h"

namespace parisax {
namespace {

constexpr size_t kLength = 256;
constexpr int kSegments = 16;

struct KernelFixture {
  KernelFixture() {
    GeneratorOptions gen;
    gen.count = 1024;
    gen.length = kLength;
    gen.seed = 7;
    data = GenerateDataset(gen);
    query = GenerateQueries(DatasetKind::kRandomWalk, 1, kLength, 7);
    ComputePaa(query.series(0), kSegments, query_paa);
    sax_rows.resize(data.count());
    float paa[kMaxSegments];
    for (SeriesId i = 0; i < data.count(); ++i) {
      ComputePaa(data.series(i), kSegments, paa);
      SymbolsFromPaa(paa, kSegments, &sax_rows[i]);
    }
    ComputeEnvelope(query.series(0), 12, &env_lower, &env_upper);
  }

  Dataset data;
  Dataset query;
  float query_paa[kMaxSegments];
  std::vector<SaxSymbols> sax_rows;
  std::vector<Value> env_lower, env_upper;
};

KernelFixture& Fixture() {
  static KernelFixture fixture;
  return fixture;
}

void BM_EuclideanScalar(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanScalar(
        f.query.series(0).data(), f.data.series(i).data(), kLength));
    i = (i + 1) % f.data.count();
  }
  state.SetBytesProcessed(state.iterations() * kLength * sizeof(float));
}
BENCHMARK(BM_EuclideanScalar);

#ifdef PARISAX_HAVE_AVX2
void BM_EuclideanAvx2(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanAvx2(
        f.query.series(0).data(), f.data.series(i).data(), kLength));
    i = (i + 1) % f.data.count();
  }
  state.SetBytesProcessed(state.iterations() * kLength * sizeof(float));
}
BENCHMARK(BM_EuclideanAvx2);
#endif

void BM_EuclideanEarlyAbandonTightBound(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    // A tight bound (32.0f over z-normalized 256-pt series) abandons
    // almost every candidate after the first blocks.
    benchmark::DoNotOptimize(SquaredEuclideanEarlyAbandon(
        f.query.series(0).data(), f.data.series(i).data(), kLength, 32.0f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_EuclideanEarlyAbandonTightBound);

void BM_Paa(benchmark::State& state) {
  KernelFixture& f = Fixture();
  float paa[kMaxSegments];
  size_t i = 0;
  for (auto _ : state) {
    ComputePaa(f.data.series(i), kSegments, paa);
    benchmark::DoNotOptimize(paa[0]);
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_Paa);

void BM_SymbolsFromPaa(benchmark::State& state) {
  KernelFixture& f = Fixture();
  SaxSymbols sax;
  for (auto _ : state) {
    SymbolsFromPaa(f.query_paa, kSegments, &sax);
    benchmark::DoNotOptimize(sax.symbols[0]);
  }
}
BENCHMARK(BM_SymbolsFromPaa);

void BM_MinDistPaaToSymbols(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinDistPaaToSymbolsSq(
        f.query_paa, f.sax_rows[i], kSegments, kLength));
    i = (i + 1) % f.sax_rows.size();
  }
}
BENCHMARK(BM_MinDistPaaToSymbols);

// The per-query lookup table over the whole 1024-row fixture per
// iteration: one dependent chain per summary, then four chains per step.
// The per_summary counter is the time of one lower bound.
void BM_MinDistTableSymbols(benchmark::State& state) {
  KernelFixture& f = Fixture();
  const MinDistTable table(f.query_paa, f.query_paa, kSegments, kLength);
  std::vector<float> bounds(f.sax_rows.size());
  for (auto _ : state) {
    for (size_t i = 0; i < f.sax_rows.size(); ++i) {
      bounds[i] = table.ToSymbolsSq(f.sax_rows[i]);
    }
    benchmark::DoNotOptimize(bounds.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_summary"] = benchmark::Counter(
      static_cast<double>(f.sax_rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_MinDistTableSymbols);

void BM_MinDistTableSymbolsBatch(benchmark::State& state) {
  KernelFixture& f = Fixture();
  const MinDistTable table(f.query_paa, f.query_paa, kSegments, kLength);
  std::vector<float> bounds(f.sax_rows.size());
  for (auto _ : state) {
    table.ToSymbolsSq(f.sax_rows.data(), sizeof(SaxSymbols),
                      f.sax_rows.size(), bounds.data());
    benchmark::DoNotOptimize(bounds.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_summary"] = benchmark::Counter(
      static_cast<double>(f.sax_rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_MinDistTableSymbolsBatch);

void BM_ZNormalize(benchmark::State& state) {
  std::vector<float> buffer(kLength);
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    const SeriesView src = f.data.series(i);
    std::copy(src.begin(), src.end(), buffer.begin());
    ZNormalize(MutableSeriesView(buffer.data(), kLength));
    benchmark::DoNotOptimize(buffer[0]);
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_ZNormalize);

void BM_DtwBand(benchmark::State& state) {
  KernelFixture& f = Fixture();
  const size_t band = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DtwBand(f.query.series(0), f.data.series(i), band, 1e30f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_DtwBand)->Arg(4)->Arg(12)->Arg(25);

void BM_LbKeogh(benchmark::State& state) {
  KernelFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LbKeoghSq(f.env_lower, f.env_upper, f.data.series(i), 1e30f));
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_LbKeogh);

// The refinement cascade of a DTW 1-NN query per fixture candidate:
// LB_Keogh with its suffix sums, then, for a survivor, banded DTW whose
// abandon counts the suffix. The bound is 1.5x the fixture's band-12 DTW
// 1-NN distance, a bound-so-far late in a search: most candidates stop
// at LB_Keogh, and the rest mostly abandon inside the DP.
void BM_DtwRefine(benchmark::State& state) {
  KernelFixture& f = Fixture();
  static const float bound = [&f] {
    const SeriesView query = f.query.series(0);
    float best = std::numeric_limits<float>::infinity();
    for (SeriesId i = 0; i < f.data.count(); ++i) {
      best = std::min(best, DtwBand(query, f.data.series(i), 12, best));
    }
    return 1.5f * best;
  }();
  DtwScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const SeriesView candidate = f.data.series(i);
    float d = LbKeoghSq(f.env_lower, f.env_upper, candidate, bound,
                        &scratch.suffix);
    if (d < bound) {
      d = DtwBand(f.query.series(0), candidate, 12, bound, &scratch,
                  &scratch.suffix);
    }
    benchmark::DoNotOptimize(d);
    i = (i + 1) % f.data.count();
  }
}
BENCHMARK(BM_DtwRefine);

void BM_ComputeEnvelope(benchmark::State& state) {
  KernelFixture& f = Fixture();
  std::vector<Value> lower, upper;
  for (auto _ : state) {
    ComputeEnvelope(f.query.series(0), 12, &lower, &upper);
    benchmark::DoNotOptimize(lower[0]);
  }
}
BENCHMARK(BM_ComputeEnvelope);

}  // namespace
}  // namespace parisax

// BENCHMARK_MAIN plus attribution context: the JSON "context" block then
// carries git_sha/build_type, so a baseline or CI artifact names the
// build it timed.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("git_sha", parisax::bench::GitSha());
  benchmark::AddCustomContext("build_type", parisax::bench::BuildTypeName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
