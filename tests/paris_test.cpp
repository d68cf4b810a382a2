// Tests for the ParIS/ParIS+ build pipeline and query answering:
// equivalence with the serial builder, stats accounting, leaf
// materialization, RecBuf semantics, and failure paths.
#include "paris/paris_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>
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

/// Rows [first, first + count) of `data` as their own collection.
Dataset Rows(const Dataset& data, size_t first, size_t count) {
  Dataset out(count, data.length());
  for (size_t i = 0; i < count; ++i) {
    const SeriesView src = data.series(first + i);
    std::copy(src.begin(), src.end(), out.mutable_series(i).begin());
  }
  return out;
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
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
      const Neighbor oracle = BruteForceNn(
          InMemorySource(&data), queries.series(q), qopts.kernel);
      QueryStats stats;
      auto got =
          (*index)->SearchExact(queries.series(q), qopts, &pool, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->id, oracle.id) << "workers=" << workers << " q=" << q;
      EXPECT_TRUE(SameBits(got->distance_sq, oracle.distance_sq))
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

  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 4;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 32;
  options.background_compaction = false;
  auto built =
      Engine::Build(SourceSpec::InMemory(Rows(data, 0, base)), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine& engine = **built;
  size_t first = base;
  for (const size_t count : appends) {
    ASSERT_TRUE(engine.Append(Rows(data, first, count)).ok());
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
    const Neighbor oracle = BruteForceNn(source, query, options.kernel);
    for (Executor* exec : executors) {
      auto got = engine.Search(query, {}, exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->neighbors.size(), 1u);
      EXPECT_EQ(got->stats.lb_checks, total);
      EXPECT_EQ(got->stats.candidates, want_candidates)
          << "q=" << q << " threads=" << exec->num_threads();
      EXPECT_EQ(got->neighbors[0].id, oracle.id) << "q=" << q;
      EXPECT_TRUE(SameBits(got->neighbors[0].distance_sq, oracle.distance_sq))
          << "q=" << q;
    }
  }
}

// --- Refinement ---------------------------------------------------------

// Where the served raw series live picks the refine order: ascending
// bound over a pinned raw view (in memory, mmap) or one fetch per
// candidate (a streamed file on an unmetered device); position order with
// parallel fetches (a metered device with several channels), or through
// one skip-sequential read stream (a metered one-channel device, which
// prefers sequential access).
enum class Residency { kMemory, kMmap, kStreamed, kMultiChannel, kSeekBound };

std::string ResidencyName(Residency residency) {
  switch (residency) {
    case Residency::kMemory:
      return "memory";
    case Residency::kMmap:
      return "mmap";
    case Residency::kStreamed:
      return "streamed";
    case Residency::kMultiChannel:
      return "multi_channel";
    case Residency::kSeekBound:
      return "seek_bound";
  }
  return "unknown";
}

/// Metered, but fast: 1 us seeks keep every query cheap.
DiskProfile FastMetered(int channels) {
  DiskProfile profile;
  profile.name = channels > 1 ? "multi_channel" : "seek_bound";
  profile.seq_read_mbps = 1e5;
  profile.seek_latency_us = 1.0;
  profile.channels = channels;
  return profile;
}

/// A ParIS+ engine serving a base and three appended segments (no
/// background compaction, so each stays its own run), over the rows of
/// `data` in the given residency; the queries, and the SAX summaries of
/// every row computed straight from the raw values.
class RefineBranches : public ::testing::TestWithParam<Residency> {
 protected:
  static constexpr size_t kLen = 64;
  static constexpr size_t kBase = 3001;

  void SetUp() override {
    const std::vector<size_t> appends = {411, 1203, 222};
    size_t total = kBase;
    for (const size_t a : appends) total += a;
    data_ = MakeData(total, kLen, 23);
    queries_ = GenerateQueries(DatasetKind::kRandomWalk, 24, kLen, 31);

    options_.algorithm = Algorithm::kParisPlus;
    options_.num_threads = 4;
    options_.tree.segments = 8;
    options_.tree.leaf_capacity = 32;
    options_.background_compaction = false;
    options_.query_profile = GetParam() == Residency::kSeekBound
                                 ? FastMetered(1)
                             : GetParam() == Residency::kMultiChannel
                                 ? FastMetered(4)
                                 : DiskProfile::Instant();
    // Unique per test and parameter instance: parallel ctest processes
    // must not rewrite a file another instance is reading.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    const std::string path = TempPath("paris_refine_" + name + ".psax");
    const auto spec = [&] {
      if (GetParam() == Residency::kMemory) {
        return SourceSpec::InMemory(Rows(data_, 0, kBase));
      }
      EXPECT_TRUE(WriteDataset(Rows(data_, 0, kBase), path).ok());
      return GetParam() == Residency::kMmap ? SourceSpec::Mmap(path)
                                            : SourceSpec::File(path);
    };
    auto built = Engine::Build(spec(), options_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_ = std::move(*built);
    size_t first = kBase;
    for (const size_t count : appends) {
      ASSERT_TRUE(engine_->Append(Rows(data_, first, count)).ok());
      first += count;
    }
    const SegmentedIndex& index = *engine_->segmented_index();
    ASSERT_EQ(index.series_count(), total);
    ASSERT_EQ(index.serving()->segments.size(), appends.size());
    const bool addressable = GetParam() == Residency::kMemory ||
                             GetParam() == Residency::kMmap;
    ASSERT_EQ(index.serving()->raw.base != nullptr, addressable);
    ASSERT_EQ(index.source().PrefersSequentialAccess(),
              GetParam() == Residency::kSeekBound);
    ASSERT_EQ(index.source().MetersRandomReads(),
              GetParam() == Residency::kSeekBound ||
                  GetParam() == Residency::kMultiChannel);

    sax_.resize(total);
    float paa[kMaxSegments];
    for (SeriesId i = 0; i < total; ++i) {
      ComputePaa(data_.series(i), options_.tree.segments, paa);
      SymbolsFromPaa(paa, options_.tree.segments, &sax_[i]);
    }
  }

  /// Reference lower bounds of every row against `query`.
  std::vector<float> Bounds(SeriesView query) const {
    float paa[kMaxSegments];
    ComputePaa(query, options_.tree.segments, paa);
    std::vector<float> bounds(sax_.size());
    for (SeriesId i = 0; i < sax_.size(); ++i) {
      bounds[i] =
          MinDistPaaToSymbolsSq(paa, sax_[i], options_.tree.segments, kLen);
    }
    return bounds;
  }

  Dataset data_;
  Dataset queries_;
  EngineOptions options_;
  std::unique_ptr<Engine> engine_;
  std::vector<SaxSymbols> sax_;
};

TEST_P(RefineBranches, ExactAgainstBruteForce) {
  const InMemorySource source(&data_);
  InlineExecutor inline_exec;
  ThreadPool pool(4);
  Executor* const executors[] = {&inline_exec, &pool};
  for (size_t q = 0; q < queries_.count(); ++q) {
    const SeriesView query = queries_.series(q);
    const Neighbor oracle = BruteForceNn(source, query, options_.kernel);
    for (Executor* exec : executors) {
      auto got = engine_->Search(query, {}, exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->neighbors.size(), 1u);
      EXPECT_EQ(got->neighbors[0].id, oracle.id)
          << "q=" << q << " threads=" << exec->num_threads();
      EXPECT_TRUE(SameBits(got->neighbors[0].distance_sq, oracle.distance_sq))
          << "q=" << q << " threads=" << exec->num_threads();
    }
  }
}

// Run inline, refinement refines exactly what a walk by hand refines.
// Where random reads are free the walk takes the seed's survivors in
// ascending (bound, id) order and stops at the first bound that has
// reached the BSF; on a metered device with several channels it takes
// them in id order and skips each whose bound has reached the BSF. The
// one-channel read stream reads a chunk before it computes the chunk's
// distances, so its skips see an older BSF: it refines at most every
// survivor and at least every one bounded below the answer.
TEST_P(RefineBranches, RefinesWhatTheStopRuleAllows) {
  InlineExecutor inline_exec;
  size_t skipped_some = 0;
  for (size_t q = 0; q < queries_.count(); ++q) {
    const SeriesView query = queries_.series(q);
    QueryStats probe;
    auto seed = engine_->segmented_index()->SearchApproximate(query, &probe);
    ASSERT_TRUE(seed.ok());
    auto got = engine_->Search(query, {}, &inline_exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GE(got->stats.real_dist_calcs, probe.real_dist_calcs);
    const uint64_t refined =
        got->stats.real_dist_calcs - probe.real_dist_calcs;

    const std::vector<float> bounds = Bounds(query);
    std::vector<std::pair<float, SeriesId>> survivors;
    uint64_t below_answer = 0;
    for (SeriesId i = 0; i < bounds.size(); ++i) {
      if (bounds[i] < seed->distance_sq) survivors.emplace_back(bounds[i], i);
      if (bounds[i] < got->neighbors[0].distance_sq) ++below_answer;
    }
    EXPECT_EQ(got->stats.candidates, survivors.size()) << "q=" << q;

    if (GetParam() == Residency::kSeekBound) {
      EXPECT_LE(refined, survivors.size()) << "q=" << q;
      EXPECT_GE(refined, below_answer) << "q=" << q;
      if (refined < survivors.size()) ++skipped_some;
      continue;
    }
    // Pushed in id order; the free-read order is (bound, id).
    const bool by_bound = GetParam() != Residency::kMultiChannel;
    if (by_bound) std::sort(survivors.begin(), survivors.end());
    float bsf = seed->distance_sq;
    uint64_t walked = 0;
    for (const auto& [bound, id] : survivors) {
      if (bound >= bsf) {
        if (by_bound) break;
        continue;
      }
      ++walked;
      bsf = std::min(bsf, SquaredEuclideanEarlyAbandon(
                              query, data_.series(id), bsf, options_.kernel));
    }
    EXPECT_EQ(refined, walked) << "q=" << q;
    if (refined < survivors.size()) ++skipped_some;
  }
  if (GetParam() == Residency::kSeekBound ||
      GetParam() == Residency::kMultiChannel) {
    EXPECT_GT(skipped_some, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Residencies, RefineBranches,
    ::testing::Values(Residency::kMemory, Residency::kMmap,
                      Residency::kStreamed, Residency::kMultiChannel,
                      Residency::kSeekBound),
    [](const auto& info) { return ResidencyName(info.param); });

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
