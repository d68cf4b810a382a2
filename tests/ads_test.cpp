// Tests for the ADS+ baseline: SIMS phase behavior, build stats, leaf
// materialization, and in-memory/on-disk equivalence.
#include "index/ads_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "io/format.h"
#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset MakeData(size_t count = 3000, size_t length = 64,
                 uint64_t seed = 61) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

AdsBuildOptions SmallBuild() {
  AdsBuildOptions o;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 32;
  o.tree.series_length = 64;
  return o;
}

std::unique_ptr<InMemorySource> Mem(const Dataset& data) {
  return std::make_unique<InMemorySource>(&data);
}

std::unique_ptr<FileSource> Streamed(const std::string& path) {
  auto source = FileSource::Open(path, DiskProfile::Instant());
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return source.ok() ? std::move(*source) : nullptr;
}

TEST(AdsTest, InMemoryBuildIndexesEverything) {
  const Dataset data = MakeData();
  auto index = AdsIndex::Build(Mem(data), SmallBuild());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->build_stats().tree.total_entries, data.count());
  EXPECT_TRUE((*index)->tree().CheckInvariants().ok());
  EXPECT_EQ((*index)->cache().count(), data.count());
  EXPECT_GT((*index)->build_stats().cpu_seconds, 0.0);
}

TEST(AdsTest, OnDiskBuildEqualsInMemoryBuild) {
  const Dataset data = MakeData();
  const std::string path = TempPath("ads_equal.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  auto mem = AdsIndex::Build(Mem(data), SmallBuild());
  ASSERT_TRUE(mem.ok());
  AdsBuildOptions disk_build = SmallBuild();
  disk_build.leaf_storage_path = TempPath("ads_equal.leaves");
  auto disk = AdsIndex::Build(Streamed(path), disk_build);
  ASSERT_TRUE(disk.ok());

  // Identical trees: same serial insertion order, so the structures must
  // match exactly (root population and leaf count).
  EXPECT_EQ((*mem)->tree().PresentRoots(), (*disk)->tree().PresentRoots());
  EXPECT_EQ((*mem)->build_stats().tree.leaves,
            (*disk)->build_stats().tree.leaves);
  EXPECT_EQ((*mem)->build_stats().tree.inner_nodes,
            (*disk)->build_stats().tree.inner_nodes);

  // Same SAX cache.
  for (SeriesId i = 0; i < data.count(); i += 61) {
    for (int s = 0; s < 8; ++s) {
      EXPECT_EQ((*mem)->cache().At(i).symbols[s],
                (*disk)->cache().At(i).symbols[s]);
    }
  }

  // Same exact answers.
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 61);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto a = (*mem)->SearchExact(queries.series(q));
    auto b = (*disk)->SearchExact(queries.series(q));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->id, b->id);
    EXPECT_FLOAT_EQ(a->distance_sq, b->distance_sq);
  }
}

TEST(AdsTest, OnDiskBuildMaterializesAllLeaves) {
  const Dataset data = MakeData();
  const std::string path = TempPath("ads_mat.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  AdsBuildOptions build = SmallBuild();
  build.leaf_storage_path = TempPath("ads_mat.leaves");
  auto index = AdsIndex::Build(Streamed(path), build);
  ASSERT_TRUE(index.ok());
  size_t in_memory = 0, chunks = 0;
  (*index)->tree().VisitLeaves(nullptr, [&](Node* leaf) {
    in_memory += leaf->entries().size();
    chunks += leaf->flushed_chunks().size();
  });
  EXPECT_EQ(in_memory, 0u);
  EXPECT_GT(chunks, 0u);
  EXPECT_GT((*index)->leaf_storage()->bytes_written(),
            data.count() * sizeof(LeafEntry) - 1);
}

TEST(AdsTest, SimsPhaseAccountingIsConsistent) {
  const Dataset data = MakeData(5000);
  auto index = AdsIndex::Build(Mem(data), SmallBuild());
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, 64, 61);
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats stats;
    auto nn = (*index)->SearchExact(queries.series(q), {}, &stats);
    ASSERT_TRUE(nn.ok());
    // One lower-bound check per series.
    EXPECT_EQ(stats.lb_checks, data.count());
    // Candidates = what survived. SIMS skips a candidate whose bound has
    // reached the BSF, and the BSF never falls below the answer, so every
    // candidate bounded below the answer got a real distance; at most
    // every candidate did, plus the approximate phase's leaf members.
    float paa[kMaxSegments];
    ComputePaa(queries.series(q), SmallBuild().tree.segments, paa);
    uint64_t below_answer = 0;
    for (SeriesId i = 0; i < data.count(); ++i) {
      if (MinDistPaaToSymbolsSq(paa, (*index)->cache().At(i),
                                SmallBuild().tree.segments,
                                data.length()) < nn->distance_sq) {
        ++below_answer;
      }
    }
    EXPECT_LE(below_answer, stats.candidates);
    EXPECT_GE(stats.real_dist_calcs, below_answer);
    EXPECT_LE(stats.real_dist_calcs,
              stats.candidates + SmallBuild().tree.leaf_capacity + 1);
    // Phases are timed.
    EXPECT_GE(stats.total_seconds,
              stats.filter_phase_seconds + stats.refine_phase_seconds);
  }
}

TEST(AdsTest, ApproximateNeverBeatsExact) {
  const Dataset data = MakeData(4000);
  auto index = AdsIndex::Build(Mem(data), SmallBuild());
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 8, 64, 61);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto approx = (*index)->SearchApproximate(queries.series(q));
    auto exact = (*index)->SearchExact(queries.series(q));
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(approx->distance_sq, exact->distance_sq - 1e-3f);
    // Both must point at real series.
    EXPECT_LT(approx->id, data.count());
    EXPECT_LT(exact->id, data.count());
  }
}

TEST(AdsTest, ExactMatchesOracleOnEveryDatasetKind) {
  // The default shape, plus an extreme one of each kind: a 2-segment
  // tree of 2-entry leaves, and a 16-segment tree whose leaves never
  // split.
  const struct {
    int segments;
    size_t leaf_capacity;
  } shapes[] = {{8, 32}, {2, 2}, {16, 512}};
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
        DatasetKind::kSeismicBurst}) {
    GeneratorOptions gen;
    gen.kind = kind;
    gen.count = 2000;
    gen.length = 64;
    gen.seed = 62;
    const Dataset data = GenerateDataset(gen);
    const Dataset queries = GenerateQueries(kind, 4, 64, 62);
    for (const auto& shape : shapes) {
      AdsBuildOptions build = SmallBuild();
      build.tree.segments = shape.segments;
      build.tree.leaf_capacity = shape.leaf_capacity;
      auto index = AdsIndex::Build(Mem(data), build);
      ASSERT_TRUE(index.ok());
      const std::string where = std::string(DatasetKindName(kind)) + " w" +
                                std::to_string(shape.segments) + " cap" +
                                std::to_string(shape.leaf_capacity);
      for (size_t q = 0; q < queries.count(); ++q) {
        const Neighbor oracle =
            BruteForceNn(InMemorySource(&data), queries.series(q),
                         KernelPolicy::kScalar);
        auto nn = (*index)->SearchExact(queries.series(q));
        ASSERT_TRUE(nn.ok()) << where;
        EXPECT_NEAR(nn->distance_sq, oracle.distance_sq,
                    1e-3f * std::max(1.0f, oracle.distance_sq))
            << where;
      }
    }
  }
}

TEST(AdsTest, RejectsMismatchedSeriesLength) {
  const Dataset data = MakeData();
  AdsBuildOptions bad = SmallBuild();
  bad.tree.series_length = 32;
  EXPECT_EQ(AdsIndex::Build(Mem(data), bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdsTest, StreamedBuildRequiresLeafStorage) {
  const Dataset data = MakeData(100);
  const std::string path = TempPath("ads_noleaves.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  AdsBuildOptions build = SmallBuild();
  build.leaf_storage_path.clear();
  EXPECT_EQ(AdsIndex::Build(Streamed(path), build).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdsTest, EmptyCollection) {
  const Dataset data(0, 64);
  auto index = AdsIndex::Build(Mem(data), SmallBuild());
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 61);
  auto nn = (*index)->SearchExact(queries.series(0));
  ASSERT_TRUE(nn.ok());
  EXPECT_TRUE(std::isinf(nn->distance_sq));
}

}  // namespace
}  // namespace parisax
