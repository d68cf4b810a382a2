// Tests for MESSI: build equivalence across worker counts and buffer
// strategies (footnote-2 ablation), query correctness under varied queue
// counts, Stage-3 counts under parallel workers, pruning statistics, and
// the iSAX buffer set.
#include "messi/messi_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "index/ads_index.h"
#include "io/generator.h"
#include "messi/isax_buffers.h"
#include "scan/ucr_scan.h"

namespace parisax {
namespace {

Dataset MakeData(size_t count = 4000, size_t length = 64,
                 uint64_t seed = 21) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

std::unique_ptr<InMemorySource> Mem(const Dataset& data) {
  return std::make_unique<InMemorySource>(&data);
}

MessiBuildOptions SmallBuild(int workers, bool locked = false) {
  MessiBuildOptions o;
  o.num_workers = workers;
  o.chunk_series = 256;
  o.locked_buffers = locked;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 32;
  o.tree.series_length = 64;
  return o;
}

std::vector<SeriesId> AllIndexedIds(const SaxTree& tree) {
  std::vector<SeriesId> ids;
  tree.VisitLeaves(nullptr, [&](Node* leaf) {
    for (const LeafEntry& e : leaf->entries()) ids.push_back(e.id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

class MessiBuildConfigs
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MessiBuildConfigs, IndexesEverySeriesExactlyOnce) {
  const auto [workers, locked] = GetParam();
  const Dataset data = MakeData();
  ThreadPool pool(workers);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(workers, locked), &pool);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  EXPECT_TRUE((*index)->tree().CheckInvariants().ok());
  EXPECT_EQ((*index)->build_stats().tree.total_entries, data.count());
  const auto ids = AllIndexedIds((*index)->tree());
  ASSERT_EQ(ids.size(), data.count());
  for (SeriesId i = 0; i < data.count(); ++i) ASSERT_EQ(ids[i], i);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndBuffers, MessiBuildConfigs,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Bool()),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_locked" : "_partitioned");
    });

TEST(MessiTest, LockedAndPartitionedBuffersBuildSameRootPopulation) {
  // Footnote 2: both buffer strategies must index identically (the
  // difference is only performance).
  const Dataset data = MakeData(3000);
  ThreadPool pool(4);
  auto partitioned = MessiIndex::Build(Mem(data), SmallBuild(4, false), &pool);
  auto locked = MessiIndex::Build(Mem(data), SmallBuild(4, true), &pool);
  ASSERT_TRUE(partitioned.ok());
  ASSERT_TRUE(locked.ok());
  EXPECT_EQ((*partitioned)->tree().PresentRoots(),
            (*locked)->tree().PresentRoots());
  EXPECT_EQ(AllIndexedIds((*partitioned)->tree()),
            AllIndexedIds((*locked)->tree()));
}

TEST(MessiTest, BuildStatsCoverBothStages) {
  const Dataset data = MakeData(3000);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const MessiBuildStats& stats = (*index)->build_stats();
  EXPECT_GT(stats.summarize_wall_seconds, 0.0);
  EXPECT_GT(stats.tree_wall_seconds, 0.0);
  EXPECT_GE(stats.wall_seconds,
            stats.summarize_wall_seconds + stats.tree_wall_seconds - 1e-3);
}

TEST(MessiTest, ExactSearchMatchesBruteForceAcrossQueueCounts) {
  const Dataset data = MakeData(3000);
  ThreadPool pool(4);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(4), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 21);

  for (const int queues : {1, 2, 4, 9}) {
    MessiQueryOptions qopts;
    qopts.num_workers = 4;
    qopts.num_queues = queues;
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q),
                       KernelPolicy::kScalar);
      auto got = (*index)->SearchExact(queries.series(q), qopts, &pool);
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << "queues=" << queues << " q=" << q;
    }
  }
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << where << " rank " << i;
    EXPECT_EQ(want[i].distance_sq, got[i].distance_sq)
        << where << " rank " << i;
  }
}

TEST(MessiTest, ParallelStage3LosesNoCounts) {
  // Stage 3a prunes against the seed bound, which does not change until
  // 3b starts, so the nodes it visits do not depend on how many workers
  // share the traversal. A 4-worker pool must therefore report exactly
  // the inline search's nodes_visited: the per-worker counts merge
  // without loss, also on the 24-series collection, whose few roots fit
  // one claim batch and leave three workers with nothing to traverse.
  // Every exact search also times both stages: 3a as the filter phase,
  // 3b as the refine phase.
  ThreadPool pool(4);
  InlineExecutor inline_exec;
  const auto expect_phases_timed = [](const QueryStats& stats,
                                      const std::string& where) {
    EXPECT_GT(stats.filter_phase_seconds, 0.0) << where;
    EXPECT_GT(stats.refine_phase_seconds, 0.0) << where;
  };
  for (const size_t count : {size_t{3000}, size_t{24}}) {
    const Dataset data = MakeData(count);
    auto index = MessiIndex::Build(Mem(data), SmallBuild(4), &pool);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const InMemorySource source(&data);
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 21);
    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      for (const int queues : {1, 3, 4, 7}) {
        MessiQueryOptions qopts;
        qopts.num_workers = 4;
        qopts.num_queues = queues;
        const std::string where = "count=" + std::to_string(count) +
                                  " q=" + std::to_string(q) +
                                  " queues=" + std::to_string(queues);

        QueryStats nn_inline, nn_pool;
        auto nn_a = (*index)->SearchExact(query, qopts, &inline_exec,
                                          &nn_inline);
        auto nn_b = (*index)->SearchExact(query, qopts, &pool, &nn_pool);
        ASSERT_TRUE(nn_a.ok() && nn_b.ok()) << where;
        const Neighbor nn = BruteForceNn(source, query);
        ExpectSameNeighbors({nn}, {*nn_a}, where + " ed-nn inline");
        ExpectSameNeighbors({nn}, {*nn_b}, where + " ed-nn pool");
        EXPECT_GT(nn_inline.nodes_visited, 0u) << where;
        EXPECT_EQ(nn_inline.nodes_visited, nn_pool.nodes_visited) << where;
        expect_phases_timed(nn_inline, where + " ed-nn inline");
        expect_phases_timed(nn_pool, where + " ed-nn pool");

        QueryStats knn_inline, knn_pool;
        auto knn_a = (*index)->SearchKnn(query, 10, qopts, &inline_exec,
                                         &knn_inline);
        auto knn_b = (*index)->SearchKnn(query, 10, qopts, &pool, &knn_pool);
        ASSERT_TRUE(knn_a.ok() && knn_b.ok()) << where;
        const std::vector<Neighbor> knn = BruteForceKnn(source, query, 10);
        ExpectSameNeighbors(knn, *knn_a, where + " ed-knn inline");
        ExpectSameNeighbors(knn, *knn_b, where + " ed-knn pool");
        EXPECT_EQ(knn_inline.nodes_visited, knn_pool.nodes_visited) << where;
        expect_phases_timed(knn_inline, where + " ed-knn inline");
        expect_phases_timed(knn_pool, where + " ed-knn pool");

        QueryStats dtw_inline, dtw_pool;
        auto dtw_a = (*index)->SearchExactDtw(query, qopts, &inline_exec,
                                              &dtw_inline);
        auto dtw_b = (*index)->SearchExactDtw(query, qopts, &pool, &dtw_pool);
        ASSERT_TRUE(dtw_a.ok() && dtw_b.ok()) << where;
        const Neighbor dtw = BruteForceDtwNn(source, query, qopts.dtw_band);
        ExpectSameNeighbors({dtw}, {*dtw_a}, where + " dtw inline");
        ExpectSameNeighbors({dtw}, {*dtw_b}, where + " dtw pool");
        EXPECT_EQ(dtw_inline.nodes_visited, dtw_pool.nodes_visited) << where;
        expect_phases_timed(dtw_inline, where + " dtw inline");
        expect_phases_timed(dtw_pool, where + " dtw pool");
      }
    }
  }
}

// Seismic bursts with perturbed-member queries, as in bench/suite's
// snap_hard: the envelope iSAX bound prunes nothing here, so LB_Keogh and
// the cascaded DTW do all the pruning. Every path must still return the
// brute-force neighbor at the same float.
class SeismicDtwSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SeismicDtwSweep, MessiAndScansMatchBruteForce) {
  const size_t band = GetParam();
  constexpr size_t kCount = 2000, kLength = 128;
  GeneratorOptions gen;
  gen.kind = DatasetKind::kSeismicBurst;
  gen.count = kCount;
  gen.length = kLength;
  gen.seed = 61;
  const Dataset data = GenerateDataset(gen);
  const Dataset queries = GeneratePerturbedQueries(
      DatasetKind::kSeismicBurst, 4, kLength, gen.seed, kCount);
  ThreadPool pool(4);
  InlineExecutor inline_exec;
  MessiBuildOptions build = SmallBuild(4);
  build.tree.series_length = kLength;
  auto index = MessiIndex::Build(Mem(data), build, &pool);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const InMemorySource source(&data);
  MessiQueryOptions qopts;
  qopts.num_workers = 4;
  qopts.dtw_band = band;
  uint64_t refined = 0;
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const std::string where =
        "band=" + std::to_string(band) + " q=" + std::to_string(q);
    const Neighbor oracle = BruteForceDtwNn(source, query, band);
    QueryStats stats;
    auto inline_nn =
        (*index)->SearchExactDtw(query, qopts, &inline_exec, &stats);
    auto pool_nn = (*index)->SearchExactDtw(query, qopts, &pool);
    ASSERT_TRUE(inline_nn.ok() && pool_nn.ok()) << where;
    ExpectSameNeighbors({oracle}, {*inline_nn}, where + " messi inline");
    ExpectSameNeighbors({oracle}, {*pool_nn}, where + " messi pool");
    const Neighbor serial = DtwScanSerial(source, query, band);
    const Neighbor parallel = DtwScanParallel(source, query, band, &pool);
    ExpectSameNeighbors({oracle}, {serial}, where + " scan serial");
    ExpectSameNeighbors({oracle}, {parallel}, where + " scan parallel");
    // Every entry reaches LB_Keogh; the DTW kernel sees only part of them.
    EXPECT_EQ(stats.lb_checks, kCount) << where;
    refined += stats.real_dist_calcs;
  }
  EXPECT_LT(refined, queries.count() * kCount);
}

INSTANTIATE_TEST_SUITE_P(Bands, SeismicDtwSweep,
                         ::testing::Values(0u, 4u, 12u, 25u));

TEST(MessiTest, QueryStatsShowTreePruning) {
  const Dataset data = MakeData(6000);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 4, 64, 21);

  const TreeStats tree_stats = (*index)->tree().Collect();
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats stats;
    ASSERT_TRUE(
        (*index)->SearchExact(queries.series(q), {}, &pool, &stats).ok());
    // The tree-based search must not touch every entry: lower-bound
    // checks well below the collection size indicate subtree pruning.
    EXPECT_LT(stats.lb_checks, data.count()) << "q=" << q;
    EXPECT_LT(stats.real_dist_calcs, data.count() / 2) << "q=" << q;
    EXPECT_GT(stats.nodes_visited, 0u);
    EXPECT_LE(stats.leaves_inspected, tree_stats.leaves);
  }
}

TEST(MessiTest, MessiPrunesMoreRealDistancesThanParisFilter) {
  // The paper: "MESSI applies pruning when performing the lower bound
  // distance calculations ... As a side effect, MESSI also performs less
  // real distance calculations than ParIS." This compares MESSI with
  // serial ADS+ SIMS, which bounds every summary against the seed and
  // computes a real distance for each survivor whose bound is still
  // below the BSF when its turn comes; MESSI also prunes whole subtrees,
  // and entries, against that BSF during its lower-bound pass. Both
  // sides run on one thread (MESSI built by one worker and searched
  // inline), so each count is the same in every run: a pool would let
  // MESSI's count vary with its workers' timing.
  const Dataset data = MakeData(6000);
  ThreadPool build_pool(1);
  auto messi = MessiIndex::Build(Mem(data), SmallBuild(1), &build_pool);
  ASSERT_TRUE(messi.ok());
  InlineExecutor inline_exec;
  MessiQueryOptions qopts;
  qopts.num_workers = 1;

  AdsBuildOptions ads_options;
  ads_options.tree = SmallBuild(1).tree;
  auto ads = AdsIndex::Build(Mem(data), ads_options);
  ASSERT_TRUE(ads.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, 64, 21);
  uint64_t messi_real = 0, sims_real = 0;
  for (size_t q = 0; q < queries.count(); ++q) {
    QueryStats ms, as;
    ASSERT_TRUE(
        (*messi)->SearchExact(queries.series(q), qopts, &inline_exec, &ms)
            .ok());
    ASSERT_TRUE((*ads)->SearchExact(queries.series(q), {}, &as).ok());
    messi_real += ms.real_dist_calcs;
    sims_real += as.real_dist_calcs;
  }
  EXPECT_LE(messi_real, sims_real);
}

TEST(MessiTest, WorksWithTinyCollections) {
  for (const size_t count : {1u, 2u, 5u}) {
    const Dataset data = MakeData(count);
    ThreadPool pool(3);
    auto index = MessiIndex::Build(Mem(data), SmallBuild(3), &pool);
    ASSERT_TRUE(index.ok());
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 2, 64, 21);
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), queries.series(q),
                       KernelPolicy::kScalar);
      auto got = (*index)->SearchExact(queries.series(q), {}, &pool);
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq));
    }
  }
}

TEST(MessiTest, RejectsMismatchedOptions) {
  const Dataset data = MakeData(100);
  ThreadPool pool(2);
  MessiBuildOptions bad = SmallBuild(2);
  bad.tree.series_length = 32;  // dataset has 64
  EXPECT_EQ(MessiIndex::Build(Mem(data), bad, &pool).status().code(),
            StatusCode::kInvalidArgument);

  MessiBuildOptions too_many_workers = SmallBuild(8);
  EXPECT_EQ(
      MessiIndex::Build(Mem(data), too_many_workers, &pool).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(MessiTest, KnnDegeneratesGracefully) {
  const Dataset data = MakeData(50);
  ThreadPool pool(2);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(2), &pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 21);
  // k larger than the collection returns everything, sorted.
  auto result = (*index)->SearchKnn(queries.series(0), 100, {}, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i - 1].distance_sq, (*result)[i].distance_sq);
  }
  // No duplicate ids.
  std::vector<SeriesId> ids;
  for (const Neighbor& n : *result) ids.push_back(n.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// --- IsaxBufferSet -----------------------------------------------------------

class BufferModes : public ::testing::TestWithParam<bool> {};

TEST_P(BufferModes, GatherReturnsAllAppendedEntries) {
  const bool locked = GetParam();
  IsaxBufferSet buffers(6, 3, locked);
  for (int worker = 0; worker < 3; ++worker) {
    for (int i = 0; i < 100; ++i) {
      LeafEntry e;
      e.id = static_cast<uint64_t>(worker) * 1000 + i;
      buffers.Append(worker, static_cast<uint32_t>(i % 8), e);
    }
  }
  const auto keys = buffers.CollectKeys();
  EXPECT_EQ(keys.size(), 8u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  size_t total = 0;
  for (const uint32_t key : keys) {
    std::vector<LeafEntry> out;
    buffers.Gather(key, &out);
    total += out.size();
    for (const LeafEntry& e : out) {
      EXPECT_EQ(e.id % 1000 % 8, key);
    }
  }
  EXPECT_EQ(total, 300u);
}

TEST_P(BufferModes, ConcurrentAppendsSurvive) {
  const bool locked = GetParam();
  constexpr int kThreads = 4, kPerThread = 3000;
  IsaxBufferSet buffers(8, kThreads, locked);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LeafEntry e;
        e.id = static_cast<uint64_t>(t) * kPerThread + i;
        buffers.Append(t, static_cast<uint32_t>((t * 31 + i) % 200), e);
      }
    });
  }
  for (auto& t : threads) t.join();
  size_t total = 0;
  for (const uint32_t key : buffers.CollectKeys()) {
    std::vector<LeafEntry> out;
    buffers.Gather(key, &out);
    total += out.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kThreads) * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(LockedAndPartitioned, BufferModes,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? std::string("locked")
                                             : std::string("partitioned");
                         });

}  // namespace
}  // namespace parisax
