// Tests for the ParIS/ParIS+ build pipeline and query answering:
// equivalence with the serial builder, stats accounting, leaf
// materialization, RecBuf semantics, and failure paths.
#include "paris/paris_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "index/ads_index.h"
#include "io/format.h"
#include "io/generator.h"
#include "paris/recbuf.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset MakeData(size_t count = 4000, size_t length = 64,
                 uint64_t seed = 3) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

ParisBuildOptions SmallBuild(int workers, bool plus) {
  ParisBuildOptions o;
  o.num_workers = workers;
  o.plus_mode = plus;
  o.batch_series = 512;
  o.batches_per_round = 2;
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

// Sorted multiset of (leaf-resident) series ids: build-strategy
// independent content check.
std::vector<SeriesId> AllIndexedIds(const SaxTree& tree,
                                    LeafStorage* storage) {
  std::vector<SeriesId> ids;
  tree.VisitLeaves(nullptr, [&](Node* leaf) {
    std::vector<LeafEntry> all;
    ASSERT_TRUE(CollectLeafEntries(*leaf, storage, &all).ok());
    for (const LeafEntry& e : all) ids.push_back(e.id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ParisBuildModes
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(ParisBuildModes, InMemoryBuildIndexesEverySeries) {
  const auto [plus, workers] = GetParam();
  const Dataset data = MakeData();
  auto index = ParisIndex::Build(Mem(data), SmallBuild(workers, plus));
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  const auto& stats = (*index)->build_stats();
  EXPECT_EQ(stats.tree.total_entries, data.count());
  EXPECT_EQ(stats.tree.root_children,
            (*index)->tree().PresentRoots().size());
  EXPECT_TRUE((*index)->tree().CheckInvariants().ok());

  const auto ids = AllIndexedIds((*index)->tree(), nullptr);
  ASSERT_EQ(ids.size(), data.count());
  for (SeriesId i = 0; i < data.count(); ++i) EXPECT_EQ(ids[i], i);
}

TEST_P(ParisBuildModes, OnDiskBuildMaterializesLeaves) {
  const auto [plus, workers] = GetParam();
  const Dataset data = MakeData(2500);
  // Unique per parameter instance: parallel ctest processes must not
  // rewrite a dataset file another instance is reading.
  const std::string base = TempPath(
      std::string("paris_ondisk_") + (plus ? "plus" : "base") +
      std::to_string(workers));
  const std::string path = base + ".psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());

  ParisBuildOptions options = SmallBuild(workers, plus);
  options.leaf_storage_path = base + ".leaves";
  auto index = ParisIndex::Build(Streamed(path), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  EXPECT_GT((*index)->build_stats().leaf_chunks_flushed, 0u);
  EXPECT_TRUE(
      (*index)->tree().CheckInvariants((*index)->leaf_storage()).ok());
  const auto ids =
      AllIndexedIds((*index)->tree(), (*index)->leaf_storage());
  ASSERT_EQ(ids.size(), data.count());
  for (SeriesId i = 0; i < data.count(); ++i) EXPECT_EQ(ids[i], i);

  // On-disk leaves must be mostly flushed: in-memory remainder small.
  size_t in_memory = 0;
  (*index)->tree().VisitLeaves(nullptr, [&](Node* leaf) {
    in_memory += leaf->entries().size();
  });
  EXPECT_EQ(in_memory, 0u) << "final flush must empty all leaves";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ParisBuildModes,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "plus" : "base") + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParisTest, BuildsMatchSerialBuilderContents) {
  // ParIS, ParIS+ and the serial ADS+ builder must index the same
  // multiset of series into structurally valid trees.
  const Dataset data = MakeData(3000);
  AdsBuildOptions ads_options;
  ads_options.tree = SmallBuild(1, false).tree;
  auto ads = AdsIndex::Build(Mem(data), ads_options);
  ASSERT_TRUE(ads.ok());

  for (const bool plus : {false, true}) {
    auto paris = ParisIndex::Build(Mem(data), SmallBuild(3, plus));
    ASSERT_TRUE(paris.ok());
    // Same root key population.
    EXPECT_EQ((*paris)->tree().PresentRoots(),
              (*ads)->tree().PresentRoots())
        << (plus ? "paris+" : "paris");
    // Same flat SAX contents.
    for (SeriesId i = 0; i < data.count(); i += 97) {
      for (int s = 0; s < 8; ++s) {
        EXPECT_EQ((*paris)->cache().At(i).symbols[s],
                  (*ads)->cache().At(i).symbols[s]);
      }
    }
  }
}

TEST(ParisTest, PlusModeOverlapsConstruction) {
  // ParIS+ must not accumulate stage-3 wall time (its tree growth rides
  // inside the bulk-loading workers); ParIS must.
  const Dataset data = MakeData(6000);
  auto paris = ParisIndex::Build(Mem(data), SmallBuild(2, false));
  auto plus = ParisIndex::Build(Mem(data), SmallBuild(2, true));
  ASSERT_TRUE(paris.ok());
  ASSERT_TRUE(plus.ok());
  EXPECT_GT((*paris)->build_stats().stage3_wall_seconds, 0.0);
  EXPECT_GT((*paris)->build_stats().tree_cpu_seconds, 0.0);
  EXPECT_GT((*plus)->build_stats().tree_cpu_seconds, 0.0);
}

TEST(ParisTest, QueryMatchesBruteForceUnderManyWorkerCounts) {
  const Dataset data = MakeData(3000);
  auto index = ParisIndex::Build(Mem(data), SmallBuild(2, true));
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 3);

  for (const int workers : {1, 2, 5}) {
    ThreadPool pool(workers);
    ParisQueryOptions qopts;
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q),
                       KernelPolicy::kScalar);
      QueryStats stats;
      auto got =
          (*index)->SearchExact(queries.series(q), qopts, &pool, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << "workers=" << workers << " q=" << q;
      EXPECT_EQ(stats.lb_checks, data.count());
      EXPECT_GT(stats.candidates, 0u);
      EXPECT_LE(stats.candidates, data.count());
    }
  }
}

TEST(ParisTest, QueryStatsShowPruning) {
  const Dataset data = MakeData(5000);
  auto index = ParisIndex::Build(Mem(data), SmallBuild(2, true));
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 3);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats stats;
    ASSERT_TRUE((*index)
                    ->SearchExact(queries.series(q), {}, &pool, &stats)
                    .ok());
    // Random-walk data prunes the vast majority of candidates.
    EXPECT_LT(stats.candidates, data.count() / 2)
        << "pruning should remove most series";
  }
}

TEST(ParisTest, FilterAcrossBaseAndSegmentsMatchesReferenceBounds) {
  // A ParIS+ engine serving a base and three appended segments (no
  // background compaction, so each stays its own run of SAX rows). No
  // size is a multiple of 4 or of the 4096-id claim block, so claimed
  // blocks straddle the base/segment and segment/segment boundaries and
  // every run ends mid-step.
  constexpr size_t kLen = 64;
  const size_t base = 9001;
  const std::vector<size_t> appends = {1003, 4101, 2222};
  size_t total = base;
  for (const size_t a : appends) total += a;
  ASSERT_NE(total % 4, 0u);
  ASSERT_NE(total % 4096, 0u);
  const Dataset data = MakeData(total, kLen, 17);
  const auto rows = [&](size_t first, size_t count) {
    Dataset out(count, kLen);
    for (size_t i = 0; i < count; ++i) {
      const SeriesView src = data.series(first + i);
      std::copy(src.begin(), src.end(), out.mutable_series(i).begin());
    }
    return out;
  };

  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 4;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  options.background_compaction = false;
  auto built = Engine::Build(SourceSpec::InMemory(rows(0, base)), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine& engine = **built;
  size_t first = base;
  for (const size_t count : appends) {
    ASSERT_TRUE(engine.Append(rows(first, count)).ok());
    first += count;
  }
  ASSERT_EQ(engine.series_count(), total);
  ASSERT_EQ(engine.segmented_index()->serving()->segments.size(),
            appends.size());

  // Reference summaries, straight from the raw rows.
  const int w = options.tree.segments;
  std::vector<SaxSymbols> sax(total);
  float paa[kMaxSegments];
  for (SeriesId i = 0; i < total; ++i) {
    ComputePaa(data.series(i), w, paa);
    SymbolsFromPaa(paa, w, &sax[i]);
  }

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 50, kLen, 29);
  const InMemorySource source(&data);
  InlineExecutor inline_exec;
  ThreadPool pool(4);
  Executor* const executors[] = {&inline_exec, &pool};
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    // The exact search's seed bound is the approximate answer.
    auto seed = engine.segmented_index()->SearchApproximate(query);
    ASSERT_TRUE(seed.ok());
    ComputePaa(query, w, paa);
    size_t want_candidates = 0;
    for (SeriesId i = 0; i < total; ++i) {
      if (MinDistPaaToSymbolsSq(paa, sax[i], w, kLen) < seed->distance_sq) {
        ++want_candidates;
      }
    }
    const Neighbor oracle = BruteForceNn(source, query, KernelPolicy::kScalar);
    for (Executor* exec : executors) {
      auto got = engine.Search(query, {}, exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->neighbors.size(), 1u);
      EXPECT_EQ(got->stats.lb_checks, total);
      EXPECT_EQ(got->stats.candidates, want_candidates)
          << "q=" << q << " threads=" << exec->num_threads();
      EXPECT_EQ(got->neighbors[0].id, oracle.id) << "q=" << q;
      EXPECT_NEAR(got->neighbors[0].distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << "q=" << q;
    }
  }
}

TEST(ParisTest, ApproximateSearchReturnsRealSeries) {
  const Dataset data = MakeData(2000);
  auto index = ParisIndex::Build(Mem(data), SmallBuild(2, true));
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 3);
  ThreadPool pool(2);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto approx = (*index)->SearchApproximate(queries.series(q));
    ASSERT_TRUE(approx.ok());
    ASSERT_LT(approx->id, data.count());
    auto exact = (*index)->SearchExact(queries.series(q), {}, &pool);
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(approx->distance_sq, exact->distance_sq - 1e-3f);
  }
}

TEST(ParisTest, RejectsWrongQueryLength) {
  const Dataset data = MakeData(100);
  auto index = ParisIndex::Build(Mem(data), SmallBuild(1, false));
  ASSERT_TRUE(index.ok());
  std::vector<float> short_query(32, 0.0f);
  ThreadPool pool(1);
  EXPECT_EQ((*index)
                ->SearchExact(SeriesView(short_query.data(), 32), {}, &pool)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ParisTest, StreamedBuildRequiresLeafStorage) {
  const Dataset data = MakeData(200);
  const std::string path = TempPath("paris_noleaves.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  ParisBuildOptions options = SmallBuild(1, false);
  options.leaf_storage_path.clear();
  EXPECT_EQ(ParisIndex::Build(Streamed(path), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParisTest, MissingDatasetFileFails) {
  EXPECT_FALSE(
      FileSource::Open(TempPath("missing.psax"), DiskProfile::Instant())
          .ok());
}

// --- RecBufSet --------------------------------------------------------------

TEST(RecBufTest, AppendDrainRoundTrip) {
  RecBufSet bufs(4);
  LeafEntry e;
  e.id = 7;
  bufs.Append(3, e);
  e.id = 9;
  bufs.Append(3, e);
  e.id = 11;
  bufs.Append(12, e);

  auto touched = bufs.TakeTouched();
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<uint32_t>{3, 12}));
  EXPECT_FALSE(bufs.HasTouched());

  std::vector<LeafEntry> out;
  bufs.Drain(3, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 7u);
  EXPECT_EQ(out[1].id, 9u);
  bufs.Drain(3, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RecBufTest, RelistingAfterDrain) {
  RecBufSet bufs(4);
  LeafEntry e;
  e.id = 1;
  bufs.Append(5, e);
  (void)bufs.TakeTouched();
  std::vector<LeafEntry> out;
  bufs.Drain(5, &out);
  // A new append after drain must re-register the key.
  e.id = 2;
  bufs.Append(5, e);
  const auto touched = bufs.TakeTouched();
  EXPECT_EQ(touched, std::vector<uint32_t>{5});
}

TEST(RecBufTest, ConcurrentAppendsKeepAllEntries) {
  RecBufSet bufs(8);
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LeafEntry e;
        e.id = static_cast<uint64_t>(t) * kPerThread + i;
        bufs.Append(static_cast<uint32_t>(i % 256), e);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto touched = bufs.TakeTouched();
  EXPECT_EQ(touched.size(), 256u);
  size_t total = 0;
  std::vector<LeafEntry> out;
  for (const uint32_t key : touched) {
    bufs.Drain(key, &out);
    total += out.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace parisax
