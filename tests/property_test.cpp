// Broad property sweeps across index shapes: every engine stays exact
// under every (segments, leaf capacity) combination; kNN result sets are
// consistent prefixes; DTW tightens with the band; approximate answers
// degrade gracefully. These parameterized suites are the repository's
// main defense against configuration-dependent correctness bugs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "io/generator.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

constexpr size_t kCount = 2000;
constexpr size_t kLength = 96;
constexpr float kTol = 1e-3f;

Dataset TestData(uint64_t seed = 404) {
  GeneratorOptions gen;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

// --- exactness across tree shapes -------------------------------------------

struct ShapeCase {
  Algorithm algorithm;
  int segments;
  size_t leaf_capacity;
};

class TreeShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(TreeShapeSweep, ExactUnderAllShapes) {
  const ShapeCase c = GetParam();
  const Dataset data = TestData();
  EngineOptions options;
  options.algorithm = c.algorithm;
  options.num_threads = 3;
  options.tree.segments = c.segments;
  options.tree.leaf_capacity = c.leaf_capacity;
  options.batch_series = 256;
  options.chunk_series = 128;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, kLength, 404);
  for (size_t q = 0; q < queries.count(); ++q) {
    const Neighbor oracle =
        BruteForceNn(InMemorySource(&data), queries.series(q),
                     KernelPolicy::kScalar);
    auto response = (*engine)->Search(queries.series(q), {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NEAR(response->neighbors[0].distance_sq, oracle.distance_sq,
                kTol * std::max(1.0f, oracle.distance_sq))
        << "q=" << q;
  }
}

std::string ShapeName(const ::testing::TestParamInfo<ShapeCase>& info) {
  std::string algo = AlgorithmName(info.param.algorithm);
  for (char& ch : algo) {
    if (ch == '+') ch = 'P';
  }
  return algo + "_w" + std::to_string(info.param.segments) + "_cap" +
         std::to_string(info.param.leaf_capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeShapeSweep,
    ::testing::Values(
        // Extreme and ordinary shapes for every index engine.
        ShapeCase{Algorithm::kMessi, 1, 16},
        ShapeCase{Algorithm::kMessi, 4, 1},
        ShapeCase{Algorithm::kMessi, 8, 8},
        ShapeCase{Algorithm::kMessi, 16, 64},
        ShapeCase{Algorithm::kMessi, 16, 1024},
        ShapeCase{Algorithm::kParisPlus, 1, 16},
        ShapeCase{Algorithm::kParisPlus, 4, 1},
        ShapeCase{Algorithm::kParisPlus, 8, 8},
        ShapeCase{Algorithm::kParisPlus, 16, 64},
        ShapeCase{Algorithm::kParis, 4, 4},
        ShapeCase{Algorithm::kParis, 16, 256}),
    ShapeName);

// --- kNN consistency ---------------------------------------------------------

class KnnSweep : public ::testing::TestWithParam<std::tuple<Algorithm,
                                                            size_t>> {};

TEST_P(KnnSweep, MatchesOracleAndNestedPrefixes) {
  const auto [algorithm, k] = GetParam();
  const Dataset data = TestData(405);
  EngineOptions options;
  options.algorithm = algorithm;
  options.num_threads = 3;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, kLength, 405);
  for (size_t q = 0; q < queries.count(); ++q) {
    const auto oracle = BruteForceKnn(InMemorySource(&data),
                                      queries.series(q), k,
                                      KernelPolicy::kScalar);
    SearchRequest request;
    request.k = k;
    auto response = (*engine)->Search(queries.series(q), request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->neighbors.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(response->neighbors[i].distance_sq, oracle[i].distance_sq,
                  kTol * std::max(1.0f, oracle[i].distance_sq))
          << "i=" << i;
    }
    // k=1 must agree with the 1-NN search path.
    if (k == 1) {
      auto single = (*engine)->Search(queries.series(q), {});
      ASSERT_TRUE(single.ok());
      EXPECT_NEAR(single->neighbors[0].distance_sq,
                  response->neighbors[0].distance_sq, kTol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ks, KnnSweep,
    ::testing::Combine(::testing::Values(Algorithm::kMessi),
                       ::testing::Values(1u, 2u, 8u, 31u, 100u)),
    [](const auto& info) {
      std::string algo = AlgorithmName(std::get<0>(info.param));
      for (char& ch : algo) {
        if (ch == '+') ch = 'P';
      }
      return algo + "_k" + std::to_string(std::get<1>(info.param));
    });

// --- DTW band monotonicity ---------------------------------------------------

class DtwBandSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(DtwBandSweep, MatchesOracleAtEveryBand) {
  const size_t band = GetParam();
  const Dataset data = TestData(406);
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.num_threads = 3;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, kLength, 406);
  for (size_t q = 0; q < queries.count(); ++q) {
    const Neighbor oracle =
        BruteForceDtwNn(InMemorySource(&data), queries.series(q), band);
    SearchRequest request;
    request.dtw = true;
    request.dtw_band = band;
    auto response = (*engine)->Search(queries.series(q), request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->neighbors[0].id, oracle.id)
        << "band=" << band << " q=" << q;
    EXPECT_EQ(std::bit_cast<uint32_t>(response->neighbors[0].distance_sq),
              std::bit_cast<uint32_t>(oracle.distance_sq))
        << "band=" << band << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, DtwBandSweep,
                         ::testing::Values(0u, 1u, 3u, 8u, 20u, 96u));

TEST(DtwBandProperty, BestDistanceShrinksAsBandGrows) {
  const Dataset data = TestData(407);
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.num_threads = 2;
  options.tree.segments = 8;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, kLength, 407);
  for (size_t q = 0; q < queries.count(); ++q) {
    float prev = std::numeric_limits<float>::infinity();
    for (const size_t band : {0ul, 2ul, 5ul, 12ul, 30ul}) {
      SearchRequest request;
      request.dtw = true;
      request.dtw_band = band;
      auto response = (*engine)->Search(queries.series(q), request);
      ASSERT_TRUE(response.ok());
      const float d = response->neighbors[0].distance_sq;
      EXPECT_LE(d, prev * (1.0f + 1e-4f) + 1e-4f) << "band=" << band;
      prev = d;
    }
  }
}

// --- approximate quality -----------------------------------------------------

TEST(ApproximateProperty, ApproximateAnswerIsUsuallyCompetitive) {
  // Statistical sanity: over many queries, the approximate answer's
  // distance should be within 2x of the exact distance most of the time
  // on random-walk data (the iSAX approximate-search selling point).
  const Dataset data = TestData(408);
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.num_threads = 2;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 64;
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  ASSERT_TRUE(engine.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 32, kLength, 408);
  size_t competitive = 0;
  for (size_t q = 0; q < queries.count(); ++q) {
    SearchRequest approx;
    approx.approximate = true;
    auto a = (*engine)->Search(queries.series(q), approx);
    auto e = (*engine)->Search(queries.series(q), {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(e.ok());
    const float ratio = std::sqrt(a->neighbors[0].distance_sq /
                                  std::max(1e-9f,
                                           e->neighbors[0].distance_sq));
    if (ratio <= 2.0f) ++competitive;
  }
  EXPECT_GE(competitive, queries.count() / 2)
      << "approximate answers should be within 2x of exact for at least "
         "half the queries";
}

// --- cross-engine agreement on identical workloads ---------------------------

TEST(CrossEngineProperty, AllEnginesAgreeOnPlantedNeighbors) {
  // Plant near-duplicates so the true 1-NN is unambiguous, then demand
  // every engine returns exactly that id.
  Dataset data = TestData(409);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, kLength, 409);
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesId target = 100 + q * 37;
    MutableSeriesView dst = data.mutable_series(target);
    const SeriesView src = queries.series(q);
    for (size_t i = 0; i < kLength; ++i) {
      dst[i] = src[i] + (i % 7 == 0 ? 1e-3f : 0.0f);
    }
  }

  for (const Algorithm algorithm :
       {Algorithm::kParis, Algorithm::kParisPlus, Algorithm::kMessi}) {
    EngineOptions options;
    options.algorithm = algorithm;
    options.num_threads = 3;
    options.tree.segments = 8;
    options.tree.leaf_capacity = 32;
    options.batch_series = 256;
    auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
    ASSERT_TRUE(engine.ok());
    for (size_t q = 0; q < queries.count(); ++q) {
      auto response = (*engine)->Search(queries.series(q), {});
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->neighbors[0].id, 100 + q * 37)
          << AlgorithmName(algorithm) << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace parisax
