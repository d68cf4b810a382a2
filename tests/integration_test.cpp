// Cross-engine equivalence: every engine (ParIS, ParIS+, MESSI) must
// return the same exact nearest neighbor as the brute-force oracle,
// across dataset kinds, algorithms and thread counts, both in memory and
// on (simulated) disk. The baselines' own exactness is checked at the
// function level in scan_test and ads_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "core/engine.h"
#include "dist/euclidean.h"
#include "io/format.h"
#include "io/generator.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

constexpr size_t kCount = 3000;
constexpr size_t kLength = 64;
constexpr size_t kQueries = 8;

// Engines compute distances with different kernel/block associations, so
// float rounding can differ in the last ulps.
constexpr float kTol = 1e-3f;

EngineOptions SmallTreeOptions(Algorithm algorithm, int threads) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.num_threads = threads;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  options.tree.series_length = 0;
  options.batch_series = 512;
  options.batches_per_round = 2;
  options.chunk_series = 256;
  return options;
}

void ExpectSameNeighbor(const Dataset& dataset, SeriesView query,
                        const Neighbor& got, const Neighbor& oracle,
                        const std::string& label) {
  ASSERT_LT(oracle.id, dataset.count());
  EXPECT_NEAR(got.distance_sq, oracle.distance_sq,
              kTol * std::max(1.0f, oracle.distance_sq))
      << label << ": distance mismatch (got id " << got.id << ", oracle id "
      << oracle.id << ")";
  // The returned id must actually realize (nearly) the oracle distance.
  ASSERT_LT(got.id, dataset.count()) << label;
  const float recomputed = SquaredEuclideanScalar(
      query.data(), dataset.series(got.id).data(), query.size());
  EXPECT_NEAR(recomputed, oracle.distance_sq,
              kTol * std::max(1.0f, oracle.distance_sq))
      << label << ": returned id is not a true nearest neighbor";
}

std::string SanitizeAlgo(Algorithm algorithm) {
  std::string algo = AlgorithmName(algorithm);
  for (char& c : algo) {
    if (c == '+') c = 'P';
  }
  return algo;
}

std::string InMemoryName(
    const ::testing::TestParamInfo<std::tuple<DatasetKind, Algorithm, int>>&
        info) {
  return std::string(DatasetKindName(std::get<0>(info.param))) + "_" +
         SanitizeAlgo(std::get<1>(info.param)) + "_t" +
         std::to_string(std::get<2>(info.param));
}

std::string OnDiskName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, int>>& info) {
  return SanitizeAlgo(std::get<0>(info.param)) + "_t" +
         std::to_string(std::get<1>(info.param));
}

class InMemoryEquivalence
    : public ::testing::TestWithParam<std::tuple<DatasetKind, Algorithm,
                                                 int>> {};

TEST_P(InMemoryEquivalence, ExactMatchesBruteForce) {
  const auto [kind, algorithm, threads] = GetParam();
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = 7;
  const Dataset dataset = GenerateDataset(gen);
  const Dataset queries = GenerateQueries(kind, kQueries, kLength, gen.seed);

  auto engine =
      Engine::Build(SourceSpec::Borrowed(&dataset),
                    SmallTreeOptions(algorithm, threads));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor oracle = BruteForceNn(InMemorySource(&dataset), query,
                                         KernelPolicy::kScalar);
    auto response = (*engine)->Search(query, {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->neighbors.size(), 1u);
    ExpectSameNeighbor(dataset, query, response->neighbors[0], oracle,
                       std::string(AlgorithmName(algorithm)) + "/q" +
                           std::to_string(q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, InMemoryEquivalence,
    ::testing::Combine(
        ::testing::Values(DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
                          DatasetKind::kSeismicBurst),
        ::testing::Values(Algorithm::kParis, Algorithm::kParisPlus,
                          Algorithm::kMessi),
        ::testing::Values(1, 3, 4)),
    InMemoryName);

class OnDiskEquivalence
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {
 protected:
  // One file set per parameter instance: ctest runs instances of this
  // suite in parallel processes, and rewriting a shared file races with
  // a concurrent reader.
  std::string InstancePath(const char* extension) const {
    const auto [algorithm, threads] = GetParam();
    return ::testing::TempDir() + "/ondisk_equivalence_" +
           std::to_string(static_cast<int>(algorithm)) + "_" +
           std::to_string(threads) + extension;
  }

  void SetUp() override {
    GeneratorOptions gen;
    gen.kind = DatasetKind::kRandomWalk;
    gen.count = kCount;
    gen.length = kLength;
    gen.seed = 11;
    dataset_ = GenerateDataset(gen);
    path_ = InstancePath(".psax");
    ASSERT_TRUE(WriteDataset(dataset_, path_).ok());
  }

  Dataset dataset_;
  std::string path_;
};

TEST_P(OnDiskEquivalence, ExactMatchesBruteForce) {
  const auto [algorithm, threads] = GetParam();
  EngineOptions options = SmallTreeOptions(algorithm, threads);
  options.leaf_storage_path = InstancePath(".leaves");

  auto engine = Engine::Build(SourceSpec::File(path_), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, kQueries, kLength, 11);
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor oracle = BruteForceNn(InMemorySource(&dataset_), query,
                                         KernelPolicy::kScalar);
    auto response = (*engine)->Search(query, {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectSameNeighbor(dataset_, query, response->neighbors[0], oracle,
                       std::string("ondisk/") + AlgorithmName(algorithm));
  }
}

INSTANTIATE_TEST_SUITE_P(
    OnDiskEngines, OnDiskEquivalence,
    ::testing::Combine(::testing::Values(Algorithm::kParis,
                                         Algorithm::kParisPlus),
                       ::testing::Values(1, 4)),
    OnDiskName);

TEST(KnnIntegration, MessiMatchesBruteForceKnn) {
  GeneratorOptions gen;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = 13;
  const Dataset dataset = GenerateDataset(gen);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, kLength, 13);

  auto engine = Engine::Build(SourceSpec::Borrowed(&dataset),
                              SmallTreeOptions(Algorithm::kMessi, 4));
  ASSERT_TRUE(engine.ok());

  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    for (const size_t k : {1u, 5u, 17u}) {
      const auto oracle = BruteForceKnn(InMemorySource(&dataset), query, k,
                                        KernelPolicy::kScalar);
      SearchRequest request;
      request.k = k;
      auto response = (*engine)->Search(query, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->neighbors.size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(response->neighbors[i].distance_sq,
                    oracle[i].distance_sq,
                    kTol * std::max(1.0f, oracle[i].distance_sq))
            << "k=" << k << " i=" << i;
      }
      // Ascending order.
      for (size_t i = 1; i < k; ++i) {
        EXPECT_LE(response->neighbors[i - 1].distance_sq,
                  response->neighbors[i].distance_sq);
      }
    }
  }
}

TEST(DtwIntegration, MessiAndScansMatchBruteForceDtw) {
  GeneratorOptions gen;
  gen.count = 800;
  gen.length = kLength;
  gen.seed = 17;
  const Dataset dataset = GenerateDataset(gen);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, kLength, 17);
  const size_t band = 5;

  auto engine = Engine::Build(SourceSpec::Borrowed(&dataset),
                              SmallTreeOptions(Algorithm::kMessi, 3));
  ASSERT_TRUE(engine.ok());
  const InMemorySource source(&dataset);
  ThreadPool pool(3);
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor oracle = BruteForceDtwNn(source, query, band);
    SearchRequest request;
    request.dtw = true;
    request.dtw_band = band;
    auto response = (*engine)->Search(query, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // The UCR-DTW baselines run as the figure drivers call them.
    const std::pair<const char*, Neighbor> answers[] = {
        {"messi", response->neighbors[0]},
        {"ucr", DtwScanSerial(source, query, band)},
        {"ucr-p", DtwScanParallel(source, query, band, &pool)}};
    for (const auto& [name, got] : answers) {
      EXPECT_NEAR(got.distance_sq, oracle.distance_sq,
                  kTol * std::max(1.0f, oracle.distance_sq))
          << name << "/q" << q;
    }
  }
}

TEST(ApproximateIntegration, ApproximateIsUpperBoundOfExact) {
  GeneratorOptions gen;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = 19;
  const Dataset dataset = GenerateDataset(gen);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 8, kLength, 19);

  for (const Algorithm algorithm :
       {Algorithm::kParis, Algorithm::kParisPlus, Algorithm::kMessi}) {
    auto engine =
        Engine::Build(SourceSpec::Borrowed(&dataset),
                      SmallTreeOptions(algorithm, 3));
    ASSERT_TRUE(engine.ok());
    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      SearchRequest approx;
      approx.approximate = true;
      auto a = (*engine)->Search(query, approx);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      auto e = (*engine)->Search(query, {});
      ASSERT_TRUE(e.ok());
      // Approximate distance can never beat the exact minimum.
      EXPECT_GE(a->neighbors[0].distance_sq,
                e->neighbors[0].distance_sq - kTol);
    }
  }
}

}  // namespace
}  // namespace parisax
