// Tests for MESSI: build equivalence across worker counts and buffer
// strategies (footnote-2 ablation), a tree independent of the build
// schedule, query correctness inline and on pools
// of several sizes (DTW also where the neighbor is far in ED), Stage-3
// counts under parallel workers, the leaves and real distances the leaf
// runs refine, pruning statistics, and the iSAX buffer set.
#include "messi/messi_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/dtw.h"
#include "dist/znorm.h"
#include "index/ads_index.h"
#include "io/generator.h"
#include "messi/isax_buffers.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "scan/ucr_scan.h"
#include "util/rng.h"

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

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

/// The executors Stage 3 is checked on: inline (one leaf run) and pools
/// whose thread counts divide the roots and survivors unevenly.
std::vector<std::unique_ptr<Executor>> Executors() {
  std::vector<std::unique_ptr<Executor>> execs;
  execs.push_back(std::make_unique<InlineExecutor>());
  for (const int threads : {2, 3, 4, 7}) {
    execs.push_back(std::make_unique<ThreadPool>(threads));
  }
  return execs;
}

std::string ExecName(const Executor& exec) {
  return exec.num_threads() == 1 ? std::string("inline")
                                 : "pool" + std::to_string(exec.num_threads());
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

// A build's tree does not depend on the schedule: a root's entries go
// in by id whichever worker summarized them, so one worker, four, and
// four over the locked buffers give the same leaves in the same order,
// each holding the same ids in the same order. Small chunks make every
// worker claim several.
TEST(MessiTest, BuildTreeDoesNotDependOnTheSchedule) {
  const Dataset data = MakeData(20000);
  const auto leaves = [&](int workers, bool locked) {
    MessiBuildOptions options = SmallBuild(workers, locked);
    options.chunk_series = 64;
    ThreadPool pool(workers);
    auto index = MessiIndex::Build(Mem(data), options, &pool);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    std::vector<std::vector<SeriesId>> ids;
    if (!index.ok()) return ids;
    (*index)->tree().VisitLeaves(nullptr, [&](Node* leaf) {
      std::vector<SeriesId>& leaf_ids = ids.emplace_back();
      for (const LeafEntry& e : leaf->entries()) leaf_ids.push_back(e.id);
    });
    return ids;
  };
  const auto serial = leaves(1, false);
  ASSERT_GT(serial.size(), 100u);
  for (const bool locked : {false, true}) {
    const auto parallel = leaves(4, locked);
    ASSERT_EQ(parallel.size(), serial.size()) << "locked=" << locked;
    size_t differing = 0;
    for (size_t i = 0; i < serial.size(); ++i) {
      if (parallel[i] != serial[i]) ++differing;
    }
    EXPECT_EQ(differing, 0u) << "locked=" << locked << ": of "
                             << serial.size() << " leaves";
  }
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

TEST(MessiTest, ExactSearchMatchesBruteForceAcrossExecutors) {
  const Dataset data = MakeData(3000);
  ThreadPool build_pool(4);
  auto index = MessiIndex::Build(Mem(data), SmallBuild(4), &build_pool);
  ASSERT_TRUE(index.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, 64, 21);
  const MessiQueryOptions qopts;

  for (const auto& exec : Executors()) {
    for (size_t q = 0; q < queries.count(); ++q) {
      const Neighbor oracle = BruteForceNn(
          InMemorySource(&data), queries.series(q), qopts.kernel);
      auto got = (*index)->SearchExact(queries.series(q), qopts, exec.get());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->id, oracle.id) << ExecName(*exec) << " q=" << q;
      EXPECT_TRUE(SameBits(got->distance_sq, oracle.distance_sq))
          << ExecName(*exec) << " q=" << q;
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
  // share the traversal. Every pool must therefore report exactly the
  // inline search's nodes_visited: the per-worker counts merge without
  // loss, also on the 24-series collection, whose few roots fit one
  // claim batch, so one worker's run holds every survivor and the others
  // only claim from it. Every exact search also times both stages: 3a as
  // the filter phase, 3b as the refine phase.
  ThreadPool build_pool(4);
  const auto execs = Executors();
  const auto expect_phases_timed = [](const QueryStats& stats,
                                      const std::string& where) {
    EXPECT_GT(stats.filter_phase_seconds, 0.0) << where;
    EXPECT_GT(stats.refine_phase_seconds, 0.0) << where;
  };
  for (const size_t count : {size_t{3000}, size_t{24}}) {
    const Dataset data = MakeData(count);
    auto index = MessiIndex::Build(Mem(data), SmallBuild(4), &build_pool);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const InMemorySource source(&data);
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 21);
    const MessiQueryOptions qopts;
    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      const Neighbor nn = BruteForceNn(source, query);
      const std::vector<Neighbor> knn = BruteForceKnn(source, query, 10);
      const Neighbor dtw = BruteForceDtwNn(source, query, qopts.dtw_band);
      QueryStats nn_inline, knn_inline, dtw_inline;
      for (const auto& exec : execs) {
        const std::string where = "count=" + std::to_string(count) +
                                  " q=" + std::to_string(q) + " " +
                                  ExecName(*exec);
        // The inline executor comes first and fills the reference counts.
        const bool is_inline = exec->num_threads() == 1;

        QueryStats nn_stats;
        auto nn_got =
            (*index)->SearchExact(query, qopts, exec.get(), &nn_stats);
        ASSERT_TRUE(nn_got.ok()) << where;
        ExpectSameNeighbors({nn}, {*nn_got}, where + " ed-nn");
        if (is_inline) nn_inline = nn_stats;
        EXPECT_GT(nn_stats.nodes_visited, 0u) << where;
        EXPECT_EQ(nn_stats.nodes_visited, nn_inline.nodes_visited) << where;
        expect_phases_timed(nn_stats, where + " ed-nn");

        QueryStats knn_stats;
        auto knn_got =
            (*index)->SearchKnn(query, 10, qopts, exec.get(), &knn_stats);
        ASSERT_TRUE(knn_got.ok()) << where;
        ExpectSameNeighbors(knn, *knn_got, where + " ed-knn");
        if (is_inline) knn_inline = knn_stats;
        EXPECT_EQ(knn_stats.nodes_visited, knn_inline.nodes_visited)
            << where;
        expect_phases_timed(knn_stats, where + " ed-knn");

        QueryStats dtw_stats;
        auto dtw_got =
            (*index)->SearchExactDtw(query, qopts, exec.get(), &dtw_stats);
        ASSERT_TRUE(dtw_got.ok()) << where;
        ExpectSameNeighbors({dtw}, {*dtw_got}, where + " dtw");
        if (is_inline) dtw_inline = dtw_stats;
        EXPECT_EQ(dtw_stats.nodes_visited, dtw_inline.nodes_visited)
            << where;
        expect_phases_timed(dtw_stats, where + " dtw");
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

// Bounds on what Stage 3b refines for one query, counted over every leaf
// of the tree with the search's own bound table. A leaf or entry bounded
// below the final answer is refined in any claim order, as the BSF never
// falls below the answer; a leaf bounded at or above the seed never
// leaves Stage 3a.
struct RefineBracket {
  uint64_t leaves_below_answer = 0;
  uint64_t survivors = 0;
  uint64_t entries_below_answer = 0;
};

RefineBracket CountBracket(const SaxTree& tree, const MinDistTable& lbs,
                           float answer, float seed) {
  RefineBracket b;
  tree.VisitLeaves(nullptr, [&](Node* leaf) {
    if (leaf->entries().empty()) return;
    const float lb = lbs.ToWordSq(leaf->word());
    b.survivors += lb < seed;
    b.leaves_below_answer += lb < answer;
    for (const LeafEntry& e : leaf->entries()) {
      b.entries_below_answer += lbs.ToSymbolsSq(e.sax) < answer;
    }
  });
  return b;
}

TEST(MessiTest, LeafRunsRefineBetweenAnswerAndSeedBounds) {
  // Inline, one leaf run holds every Stage-3a survivor, its smallest
  // bounds ordered at the head. At w = 16 the leaves hold a series or
  // two, so the order decides how fast the BSF falls: refinement must
  // cover every leaf bounded below the answer, stay within the
  // survivors, stop short of them on some query, and on seismic data
  // compute real distances within a small factor of the entries bounded
  // below the answer (an unordered head computed about 7 times more on
  // bench/suite's seismic collection). For DTW the entries that must
  // reach the real distance are those whose full LB_Keogh lies below
  // the answer. The envelope bound is 0 for nearly every seismic leaf,
  // so the DTW head is ordered by its tie key, the leaf's ED bound;
  // ordered by position among the ties, it computed up to 8.5 DTW
  // distances per such entry here.
  constexpr size_t kCount = 20000, kLength = 128, kQueries = 8, kK = 10;
  // Calibrated on this fixture: the seismic ED queries refine at most
  // 1.29 real distances per entry bounded below the answer (9 for 7),
  // and the seismic DTW queries at most 1.08 per entry whose LB_Keogh
  // lies below the answer.
  constexpr double kRealPerEntryBelow = 1.5;
  constexpr double kDtwPerKeoghBelow = 1.25;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  InlineExecutor inline_exec;
  ThreadPool build_pool(4);
  const MessiQueryOptions qopts;
  const char* const kSearches[] = {"ed-nn", "ed-knn", "dtw"};
  // Queries per search whose refinement stopped short of the survivors.
  int stopped_short[3] = {};
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSeismicBurst}) {
    const bool seismic = kind == DatasetKind::kSeismicBurst;
    GeneratorOptions gen;
    gen.kind = kind;
    gen.count = kCount;
    gen.length = kLength;
    gen.seed = 71;
    const Dataset data = GenerateDataset(gen);
    // Seismic queries are perturbed members, as in bench/suite's
    // snap_hard; random-walk queries are fresh draws.
    const Dataset queries =
        seismic ? GeneratePerturbedQueries(kind, kQueries, kLength,
                                           gen.seed, kCount)
                : GenerateQueries(kind, kQueries, kLength, gen.seed);
    MessiBuildOptions build;
    build.tree.series_length = kLength;
    auto index = MessiIndex::Build(Mem(data), build, &build_pool);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const SaxTree& tree = (*index)->tree();
    const int w = build.tree.segments;

    // `keogh_below` (DTW only): the entries whose full LB_Keogh lies
    // below the answer. LB_Keogh, not the entry bound, decides which DTW
    // candidates reach the real distance.
    const auto check = [&](int search, const QueryStats& stats,
                           const MinDistTable& lbs, float answer,
                           float seed, uint64_t probe_leaves,
                           uint64_t seed_dists, size_t q,
                           uint64_t keogh_below = 0) {
      const std::string where = std::string(DatasetKindName(kind)) + " " +
                                kSearches[search] +
                                " q=" + std::to_string(q);
      const RefineBracket b = CountBracket(tree, lbs, answer, seed);
      const uint64_t refined = stats.leaves_inspected - probe_leaves;
      EXPECT_GE(refined, b.leaves_below_answer) << where;
      EXPECT_LE(refined, b.survivors) << where;
      if (refined < b.survivors) stopped_short[search]++;
      const bool dtw = search == 2;
      const uint64_t below = dtw ? keogh_below : b.entries_below_answer;
      const uint64_t refined_dists = stats.real_dist_calcs - seed_dists;
      EXPECT_GE(refined_dists, below) << where;
      if (seismic) {
        EXPECT_LE(static_cast<double>(refined_dists),
                  (dtw ? kDtwPerKeoghBelow : kRealPerEntryBelow) * below)
            << where << " entries below the answer " << below;
      }
    };

    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      float paa[kMaxSegments];
      ComputePaa(query, w, paa);
      SaxSymbols sax;
      SymbolsFromPaa(paa, w, &sax);
      const MinDistTable ed_lbs(paa, paa, w, kLength);
      const Node* approx_leaf = tree.ApproximateLeaf(sax, paa);
      ASSERT_NE(approx_leaf, nullptr);

      QueryStats nn_stats;
      auto nn = (*index)->SearchExact(query, qopts, &inline_exec, &nn_stats);
      auto approx = (*index)->SearchApproximate(query);
      ASSERT_TRUE(nn.ok() && approx.ok());
      // The seeds computed a real distance for every entry of the
      // approximate leaf; the ED 1-NN probe also counts the leaf.
      const uint64_t seed_dists = approx_leaf->entries().size();
      check(0, nn_stats, ed_lbs, nn->distance_sq, approx->distance_sq,
            /*probe_leaves=*/1, seed_dists, q);

      // The k-NN seed is the k-th distance in the approximate leaf, or
      // +inf when the leaf holds fewer than k series.
      std::vector<float> leaf_dists;
      for (const LeafEntry& e : approx_leaf->entries()) {
        leaf_dists.push_back(
            SquaredEuclidean(query, data.series(e.id), qopts.kernel));
      }
      std::sort(leaf_dists.begin(), leaf_dists.end());
      const float knn_seed =
          leaf_dists.size() >= kK ? leaf_dists[kK - 1] : kInf;
      QueryStats knn_stats;
      auto knn =
          (*index)->SearchKnn(query, kK, qopts, &inline_exec, &knn_stats);
      ASSERT_TRUE(knn.ok());
      check(1, knn_stats, ed_lbs, knn->back().distance_sq, knn_seed, 0,
            seed_dists, q);

      std::vector<Value> env_lower, env_upper;
      ComputeEnvelope(query, qopts.dtw_band, &env_lower, &env_upper);
      float lower_paa[kMaxSegments], upper_paa[kMaxSegments];
      ComputeEnvelopePaaMinMax(env_lower, env_upper, w, lower_paa,
                               upper_paa);
      const MinDistTable dtw_lbs(lower_paa, upper_paa, w, kLength);
      float dtw_seed = kInf;
      for (const LeafEntry& e : approx_leaf->entries()) {
        dtw_seed = std::min(dtw_seed, DtwBand(query, data.series(e.id),
                                              qopts.dtw_band, kInf));
      }
      QueryStats dtw_stats;
      auto dtw =
          (*index)->SearchExactDtw(query, qopts, &inline_exec, &dtw_stats);
      ASSERT_TRUE(dtw.ok());
      uint64_t keogh_below = 0;
      for (SeriesId id = 0; id < kCount; ++id) {
        keogh_below += LbKeoghSq(env_lower, env_upper, data.series(id),
                                 kInf) < dtw->distance_sq;
      }
      check(2, dtw_stats, dtw_lbs, dtw->distance_sq, dtw_seed, 0,
            seed_dists, q, keogh_below);
    }
  }
  // On seismic data the 10-NN and DTW answers lie above nearly every
  // leaf bound, so only random walks can show those searches stopping.
  for (int search = 0; search < 3; ++search) {
    EXPECT_GT(stopped_short[search], 0) << kSearches[search];
  }
}

// Random walks plus copies of each query shifted by 3, 6 and 10 points
// with a little noise: the DTW neighbor is usually a shifted copy, and
// the larger shifts are far from the query in ED. A DTW search that let
// the leaves' ED bounds order its head ahead of their DTW bounds can
// stop before reaching it (inline, it does on one query here). Every
// executor must return the brute-force neighbor at the same float.
TEST(MessiTest, DtwFindsShiftedCopiesFarInEd) {
  constexpr size_t kCount = 4000, kLength = 128, kQueries = 40;
  constexpr size_t kShifts[] = {3, 6, 10};
  constexpr double kNoise = 0.1;
  Dataset data = MakeData(kCount, kLength, 83);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, kQueries, kLength, 83);
  Rng rng(83);
  Dataset copy(1, kLength);
  for (size_t q = 0; q < kQueries; ++q) {
    const SeriesView query = queries.series(q);
    for (const size_t shift : kShifts) {
      MutableSeriesView out = copy.mutable_series(0);
      for (size_t i = 0; i < kLength; ++i) {
        out[i] = query[i >= shift ? i - shift : 0] +
                 static_cast<Value>(kNoise * rng.NextGaussian());
      }
      ZNormalize(out);
      data.Append(copy.raw(), 1);
    }
  }
  ThreadPool build_pool(4);
  MessiBuildOptions build;
  build.tree.series_length = kLength;
  auto index = MessiIndex::Build(Mem(data), build, &build_pool);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const InMemorySource source(&data);
  const MessiQueryOptions qopts;
  const auto execs = Executors();
  for (size_t q = 0; q < kQueries; ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor oracle = BruteForceDtwNn(source, query, qopts.dtw_band);
    for (const auto& exec : execs) {
      auto got = (*index)->SearchExactDtw(query, qopts, exec.get());
      ASSERT_TRUE(got.ok());
      ExpectSameNeighbors({oracle}, {*got},
                          "q=" + std::to_string(q) + " " + ExecName(*exec));
    }
  }
}

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
  const MessiQueryOptions qopts;

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
