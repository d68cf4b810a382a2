// Tests for the public Engine facade: option validation, the
// capability model (every Algorithm x request-feature cell must agree
// with Engine::capabilities()), SourceSpec residencies (borrowed,
// adopted, mmap, streamed file), build reports, and algorithm name
// parsing.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "io/format.h"
#include "io/generator.h"

namespace parisax {
namespace {

Dataset MakeData(size_t count = 500, size_t length = 64) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = 71;
  return GenerateDataset(gen);
}

EngineOptions BaseOptions(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.num_threads = 2;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 16;
  return o;
}

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kParis,
                                        Algorithm::kParisPlus,
                                        Algorithm::kMessi};

TEST(EngineTest, AlgorithmNamesRoundTrip) {
  for (const Algorithm a : kAllAlgorithms) {
    auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
  // The baselines are figure-driver and oracle code, not engines.
  for (const char* name : {"quantum", "brute", "ucr", "ucr-p", "ads+"}) {
    EXPECT_EQ(ParseAlgorithm(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(EngineTest, BuildReportHasTreeForIndexEngines) {
  const Dataset data = MakeData();
  for (const Algorithm a : kAllAlgorithms) {
    auto engine = Engine::Build(SourceSpec::Borrowed(&data), BaseOptions(a));
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->build_report().tree.total_entries, data.count())
        << AlgorithmName(a);
    EXPECT_GT((*engine)->build_report().wall_seconds, 0.0);
    EXPECT_FALSE((*engine)->build_report().details.empty());
  }
}

TEST(EngineTest, RejectsBadOptions) {
  const Dataset data = MakeData();
  EngineOptions bad = BaseOptions(Algorithm::kMessi);
  bad.num_threads = 0;
  EXPECT_EQ(Engine::Build(SourceSpec::Borrowed(&data), bad).status().code(),
            StatusCode::kInvalidArgument);

  // A value-initialized Algorithm is none of the engine's values.
  const EngineOptions unknown = BaseOptions(Algorithm{});
  EXPECT_EQ(
      Engine::Build(SourceSpec::Borrowed(&data), unknown).status().code(),
      StatusCode::kInvalidArgument);

  EngineOptions wrong_len = BaseOptions(Algorithm::kMessi);
  wrong_len.tree.series_length = 32;
  EXPECT_EQ(
      Engine::Build(SourceSpec::Borrowed(&data), wrong_len).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, RejectsWrongQueryShapes) {
  const Dataset data = MakeData();
  auto engine =
      Engine::Build(SourceSpec::Borrowed(&data),
                    BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok());
  std::vector<float> short_query(32, 0.0f);
  EXPECT_EQ((*engine)
                ->Search(SeriesView(short_query.data(), 32), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<float> query(64, 0.0f);
  SearchRequest zero_k;
  zero_k.k = 0;
  EXPECT_EQ((*engine)
                ->Search(SeriesView(query.data(), 64), zero_k)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, CapabilityGating) {
  const Dataset data = MakeData();
  std::vector<float> query(64, 0.0f);
  const SeriesView q(query.data(), 64);

  // kNN > 1 unsupported on ParIS+.
  auto paris = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kParisPlus));
  ASSERT_TRUE(paris.ok());
  SearchRequest knn;
  knn.k = 5;
  EXPECT_EQ((*paris)->Search(q, knn).status().code(),
            StatusCode::kNotSupported);

  // DTW unsupported on ParIS+.
  SearchRequest dtw;
  dtw.dtw = true;
  EXPECT_EQ((*paris)->Search(q, dtw).status().code(),
            StatusCode::kNotSupported);
}

TEST(EngineTest, OnDiskRejectsInMemoryOnlyEngines) {
  const Dataset data = MakeData(100);
  const std::string path = ::testing::TempDir() + "/engine_ondisk.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  EXPECT_EQ(Engine::Build(SourceSpec::File(path),
                          BaseOptions(Algorithm::kMessi))
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST(EngineTest, OnDiskDefaultsLeafStoragePath) {
  const Dataset data = MakeData(200);
  const std::string path = ::testing::TempDir() + "/engine_leafdflt.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  auto engine =
      Engine::Build(SourceSpec::File(path), BaseOptions(Algorithm::kParisPlus));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->options().leaf_storage_path, path + ".leaves");
}

/// Success or typed kNotSupported, as the capability bit predicts --
/// anything else (crash, wrong code, silent success) fails the matrix.
void ExpectGated(const Status& status, bool supported,
                 const std::string& label) {
  if (supported) {
    EXPECT_TRUE(status.ok()) << label << ": " << status.ToString();
  } else {
    EXPECT_EQ(status.code(), StatusCode::kNotSupported) << label;
  }
}

TEST(EngineTest, CapabilityMatrixAgreesWithBehavior) {
  // The doc-only contracts are gone: sweep every Algorithm x
  // {k>1, dtw, k>1 under dtw, append} cell and require the observed
  // result to agree with Engine::capabilities(); approximate search and
  // Save must succeed everywhere.
  const Dataset data = MakeData(600);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 71);
  const SeriesView q = queries.series(0);

  for (const Algorithm a : kAllAlgorithms) {
    auto engine = Engine::Build(SourceSpec::Borrowed(&data),
                                BaseOptions(a));
    ASSERT_TRUE(engine.ok()) << AlgorithmName(a);
    const EngineCapabilities caps = (*engine)->capabilities();
    const std::string name = AlgorithmName(a);

    SearchRequest knn;
    knn.k = 4;
    ExpectGated((*engine)->Search(q, knn).status(), caps.max_k >= 4,
                name + "/knn");

    SearchRequest dtw;
    dtw.dtw = true;
    dtw.dtw_band = 4;
    ExpectGated((*engine)->Search(q, dtw).status(), caps.dtw,
                name + "/dtw");

    SearchRequest knn_dtw;
    knn_dtw.k = 4;
    knn_dtw.dtw = true;
    ExpectGated((*engine)->Search(q, knn_dtw).status(), false,
                name + "/knn_dtw");

    SearchRequest approx;
    approx.approximate = true;
    ExpectGated((*engine)->Search(q, approx).status(), true,
                name + "/approximate");

    const std::string snap =
        ::testing::TempDir() + "/engine_caps_" +
        std::to_string(static_cast<int>(a)) + ".snap";
    ExpectGated((*engine)->Save(snap), true, name + "/save");
    std::remove(snap.c_str());

    // Borrowed collections cannot grow: the append cell must be a
    // typed rejection here for every algorithm.
    EXPECT_FALSE(caps.append) << name;
    GeneratorOptions tail_gen;
    tail_gen.count = 8;
    tail_gen.length = 64;
    tail_gen.seed = 99;
    const Dataset tail = GenerateDataset(tail_gen);
    ExpectGated((*engine)->Append(tail).status(), caps.append,
                name + "/append-borrowed");

    // Over an adopted source the table's append row applies as-is.
    auto adopted = Engine::Build(
        SourceSpec::InMemory(GenerateDataset(
            GeneratorOptions{.count = 600, .length = 64, .seed = 71})),
        BaseOptions(a));
    ASSERT_TRUE(adopted.ok()) << name;
    const EngineCapabilities adopted_caps = (*adopted)->capabilities();
    EXPECT_EQ(adopted_caps.append, AlgorithmCapabilities(a).append)
        << name;
    ExpectGated((*adopted)->Append(tail).status(), adopted_caps.append,
                name + "/append-adopted");
  }
}

TEST(EngineTest, NarrowCapabilitiesMatchesLiveEngines) {
  // The residency-enum narrowing (what docs/capabilities.md is
  // generated from) must agree with what a real engine of that
  // residency reports.
  const Dataset data = MakeData(400);
  auto borrowed = Engine::Build(SourceSpec::Borrowed(&data),
                                BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(borrowed.ok());
  const EngineCapabilities want_borrowed = NarrowCapabilities(
      Algorithm::kMessi, SourceResidency::kBorrowedMemory);
  EXPECT_EQ((*borrowed)->capabilities().append, want_borrowed.append);
  EXPECT_FALSE(want_borrowed.append);

  auto owned = Engine::Build(SourceSpec::InMemory(MakeData(400)),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(owned.ok());
  const EngineCapabilities want_owned =
      NarrowCapabilities(Algorithm::kMessi, SourceResidency::kOwnedMemory);
  EXPECT_EQ((*owned)->capabilities().append, want_owned.append);
  EXPECT_TRUE(want_owned.append);

  // A streamed ParIS+ engine appends, but folds only synchronously.
  const std::string path = ::testing::TempDir() + "/engine_narrow.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  auto streamed = Engine::Build(SourceSpec::File(path),
                                BaseOptions(Algorithm::kParisPlus));
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  const EngineCapabilities want_streamed = NarrowCapabilities(
      Algorithm::kParisPlus, SourceResidency::kStreamedFile);
  EXPECT_EQ((*streamed)->capabilities().append, want_streamed.append);
  EXPECT_EQ((*streamed)->capabilities().background_compaction,
            want_streamed.background_compaction);
  EXPECT_TRUE(want_streamed.append);
  EXPECT_FALSE(want_streamed.background_compaction);
  std::remove(path.c_str());
  std::remove((path + ".leaves").c_str());
}

TEST(EngineTest, LeafStorageNarrowsBackgroundCompaction) {
  // An explicit leaf_storage_path gives a ParIS+ engine over an
  // in-memory source on-disk leaves, which fold only synchronously: the
  // capability must not promise a compactor the engine never starts.
  const std::string leaves = ::testing::TempDir() + "/engine_caps.leaves";
  const std::string snap = ::testing::TempDir() + "/engine_caps.snap";
  EngineOptions options = BaseOptions(Algorithm::kParisPlus);
  options.leaf_storage_path = leaves;
  options.compaction_trigger_segments = 2;
  auto engine = Engine::Build(SourceSpec::InMemory(MakeData(400)), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->capabilities().append);
  EXPECT_FALSE((*engine)->capabilities().background_compaction);

  for (uint64_t i = 0; i < 8; ++i) {
    const Dataset batch =
        GenerateQueries(DatasetKind::kRandomWalk, 20, 64, 80 + i);
    ASSERT_TRUE((*engine)->Append(batch).ok());
  }
  EXPECT_EQ((*engine)->compaction_count(), 0u);
  // The synchronous path still folds everything.
  ASSERT_TRUE((*engine)->Compact(snap).ok());
  EXPECT_GT((*engine)->compaction_count(), 0u);
  EXPECT_EQ((*engine)->series_count(), 560u);
  std::remove(leaves.c_str());
  std::remove(snap.c_str());
}

TEST(EngineTest, MmapBuildMatchesInMemoryBuildExactly) {
  // The ROADMAP item this PR delivers: Engine::Build over an mmap source
  // runs the full MESSI / ParIS+ construction with no in-RAM copy of the
  // collection, and answers byte-identically to the in-memory build.
  const Dataset data = MakeData(1200);
  const std::string path = ::testing::TempDir() + "/engine_mmap.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 72);

  for (const Algorithm a :
       {Algorithm::kMessi, Algorithm::kParisPlus, Algorithm::kParis}) {
    auto ram = Engine::Build(SourceSpec::Borrowed(&data), BaseOptions(a));
    ASSERT_TRUE(ram.ok()) << AlgorithmName(a);
    auto mmap = Engine::Build(SourceSpec::Mmap(path), BaseOptions(a));
    ASSERT_TRUE(mmap.ok()) << AlgorithmName(a) << ": "
                           << mmap.status().ToString();
    // Queries run straight off the mapping: the engine's source is the
    // mmap block, not a copy.
    EXPECT_NE((*mmap)->source().ContiguousData(), nullptr);

    for (SeriesId q = 0; q < queries.count(); ++q) {
      SearchRequest request;
      auto want = (*ram)->Search(queries.series(q), request);
      auto got = (*mmap)->Search(queries.series(q), request);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(want->neighbors.size(), got->neighbors.size());
      EXPECT_EQ(want->neighbors[0].id, got->neighbors[0].id);
      // Byte-identical: same kernels over the same float values.
      EXPECT_EQ(want->neighbors[0].distance_sq,
                got->neighbors[0].distance_sq);
    }
  }

  // MESSI kNN and DTW also agree exactly across residencies.
  auto ram = Engine::Build(SourceSpec::Borrowed(&data),
                           BaseOptions(Algorithm::kMessi));
  auto mmap = Engine::Build(SourceSpec::Mmap(path),
                            BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(ram.ok());
  ASSERT_TRUE(mmap.ok());
  for (SeriesId q = 0; q < queries.count(); ++q) {
    SearchRequest knn;
    knn.k = 7;
    auto want = (*ram)->Search(queries.series(q), knn);
    auto got = (*mmap)->Search(queries.series(q), knn);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->neighbors.size(), got->neighbors.size());
    for (size_t i = 0; i < want->neighbors.size(); ++i) {
      EXPECT_EQ(want->neighbors[i].id, got->neighbors[i].id);
      EXPECT_EQ(want->neighbors[i].distance_sq,
                got->neighbors[i].distance_sq);
    }
    SearchRequest dtw;
    dtw.dtw = true;
    dtw.dtw_band = 5;
    auto want_dtw = (*ram)->Search(queries.series(q), dtw);
    auto got_dtw = (*mmap)->Search(queries.series(q), dtw);
    ASSERT_TRUE(want_dtw.ok());
    ASSERT_TRUE(got_dtw.ok());
    EXPECT_EQ(want_dtw->neighbors[0].id, got_dtw->neighbors[0].id);
    EXPECT_EQ(want_dtw->neighbors[0].distance_sq,
              got_dtw->neighbors[0].distance_sq);
  }
  std::remove(path.c_str());
}

TEST(EngineTest, AdoptedSourceOutlivesCallerScope) {
  // SourceSpec::InMemory kills the dataset-lifetime footgun: the engine
  // owns the collection, so the caller's Dataset can go away.
  std::unique_ptr<Engine> engine;
  {
    Dataset data = MakeData(400);
    auto built = Engine::Build(SourceSpec::InMemory(std::move(data)),
                               BaseOptions(Algorithm::kMessi));
    ASSERT_TRUE(built.ok());
    engine = std::move(*built);
  }
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 73);
  for (SeriesId q = 0; q < queries.count(); ++q) {
    auto response = engine->Search(queries.series(q), {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_LT(response->neighbors[0].id, 400u);
  }
}

TEST(EngineTest, SearchReportsStats) {
  const Dataset data = MakeData(1000);
  auto engine =
      Engine::Build(SourceSpec::Borrowed(&data),
                    BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 71);
  auto response = (*engine)->Search(queries.series(0), {});
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response->stats.total_seconds, 0.0);
  EXPECT_GT(response->stats.real_dist_calcs, 0u);
  EXPECT_EQ(response->neighbors.size(), 1u);
}

}  // namespace
}  // namespace parisax
