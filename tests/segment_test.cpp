// Segment-machinery tests: Engine::Append publishes immutable delta
// segments onto the serving snapshot (no exclusive index lock), the
// background compactor folds them into the base off the serving path,
// Compact/Save fold synchronously, and a workload storm — queries,
// appends, delta saves and compaction interleaved under QueryService
// load — leaves MESSI and ParIS+ answering byte-identically to a
// brute-force oracle over the combined collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "index/segment.h"
#include "io/format.h"
#include "io/generator.h"
#include "persist/snapshot.h"
#include "scan/ucr_scan.h"
#include "support/append_latched_source.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_segment");
  return dir.Path(name);
}

Dataset MakeData(size_t count, uint64_t seed = 211) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

/// Rows [first, first + count) of `data` as their own collection.
Dataset Slice(const Dataset& data, size_t first, size_t count) {
  Dataset out(count, data.length());
  for (size_t i = 0; i < count; ++i) {
    const SeriesView src = data.series(first + i);
    std::copy(src.begin(), src.end(), out.mutable_series(i).begin());
  }
  return out;
}

EngineOptions BaseOptions(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.num_threads = 2;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 16;
  return o;
}

std::shared_ptr<const ServingState> Serving(Engine* engine) {
  return engine->segmented_index()->serving();
}

void ExpectSameResponse(const SearchResponse& want,
                        const SearchResponse& got,
                        const std::string& label) {
  ASSERT_EQ(want.neighbors.size(), got.neighbors.size()) << label;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(want.neighbors[i].id, got.neighbors[i].id) << label;
    EXPECT_EQ(want.neighbors[i].distance_sq, got.neighbors[i].distance_sq)
        << label;
  }
}

/// ED 1-NN plus kNN (where supported) equivalence over a workload.
void ExpectQueryEquivalence(Engine* want, Engine* got,
                            const Dataset& queries,
                            const std::string& label) {
  const EngineCapabilities caps = got->capabilities();
  for (SeriesId q = 0; q < queries.count(); ++q) {
    const SeriesView view = queries.series(q);
    auto w = want->Search(view, {});
    auto g = got->Search(view, {});
    ASSERT_TRUE(w.ok()) << label << ": " << w.status().ToString();
    ASSERT_TRUE(g.ok()) << label << ": " << g.status().ToString();
    ExpectSameResponse(*w, *g, label + "/ed");
    if (caps.max_k >= 5) {
      SearchRequest knn;
      knn.k = 5;
      auto wk = want->Search(view, knn);
      auto gk = got->Search(view, knn);
      ASSERT_TRUE(wk.ok() && gk.ok()) << label;
      ExpectSameResponse(*wk, *gk, label + "/knn");
    }
  }
}

/// As ExpectQueryEquivalence, against the brute-force answers over
/// `data` (with `got`'s kernel).
void ExpectMatchesBruteForce(const Dataset& data, Engine* got,
                             const Dataset& queries,
                             const std::string& label) {
  const InMemorySource oracle(&data);
  const KernelPolicy kernel = got->options().kernel;
  const bool knn = got->capabilities().max_k >= 5;
  for (SeriesId q = 0; q < queries.count(); ++q) {
    const SeriesView view = queries.series(q);
    auto g = got->Search(view, {});
    ASSERT_TRUE(g.ok()) << label << ": " << g.status().ToString();
    ExpectSameResponse(
        SearchResponse{.neighbors = {BruteForceNn(oracle, view, kernel)}},
        *g, label + "/ed");
    if (knn) {
      SearchRequest request;
      request.k = 5;
      auto gk = got->Search(view, request);
      ASSERT_TRUE(gk.ok()) << label;
      ExpectSameResponse(
          SearchResponse{.neighbors = BruteForceKnn(oracle, view, 5, kernel)},
          *gk, label + "/knn");
    }
  }
}

// --- segment publication ----------------------------------------------

TEST(SegmentTest, AppendsPublishSegmentsWithoutFolding) {
  const Dataset full = MakeData(600);
  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    EngineOptions options = BaseOptions(a);
    options.background_compaction = false;  // keep the segments visible
    auto engine = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 300)),
                                options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    const auto before = Serving(engine->get());
    EXPECT_EQ(before->base_count, 300u);
    EXPECT_TRUE(before->segments.empty());

    ASSERT_TRUE((*engine)->Append(Slice(full, 300, 120)).ok());
    ASSERT_TRUE((*engine)->Append(Slice(full, 420, 100)).ok());
    ASSERT_TRUE((*engine)->Append(Slice(full, 520, 80)).ok());

    // Three appends -> three immutable segments over an untouched base;
    // each segment knows exactly which id range it covers.
    const auto after = Serving(engine->get());
    EXPECT_EQ(after->base_count, 300u);
    EXPECT_EQ(after->count, 600u);
    ASSERT_EQ(after->segments.size(), 3u);
    EXPECT_EQ(after->segments[0]->first, 300u);
    EXPECT_EQ(after->segments[0]->count, 120u);
    EXPECT_EQ(after->segments[2]->first, 520u);
    EXPECT_EQ(after->segments[2]->count, 80u);
    EXPECT_EQ(after->segment_series(), 300u);
    // The snapshot captured before the appends is untouched: queries
    // that entered earlier keep serving it.
    EXPECT_TRUE(before->segments.empty());
    EXPECT_EQ(before->count, 300u);

    auto scratch = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(a));
    ASSERT_TRUE(scratch.ok());
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 5, kLength, 212);
    ExpectQueryEquivalence(scratch->get(), engine->get(), queries,
                           std::string(AlgorithmName(a)) + "/segments");
  }
}

// On every source, MESSI and ParIS+ publish an append as a segment
// without a lock any query takes, so a query never waits for an append
// in flight: over memory, and over a streamed file with the leaves on
// disk, whose FileSource grows in place. The append parks inside
// AppendSeries, holding the engine's append lock; exact 1-NN through
// Engine::Search and through the query service must still answer
// promptly, from the base rows alone. The queries are the appended
// rows, so once the append lands each must find itself.
TEST(SegmentTest, AppendInFlightNeverBlocksQueries) {
  constexpr auto kQueryWait = std::chrono::seconds(10);
  const Dataset full = MakeData(600, 271);
  const size_t base_rows = 400;
  const Dataset tail = Slice(full, base_rows, full.count() - base_rows);
  const SeriesId first_query = 460;
  const Dataset queries = Slice(full, first_query, 6);
  const std::string path = TempPath("in_flight_stream.psax");
  ASSERT_TRUE(WriteDataset(Slice(full, 0, base_rows), path).ok());
  const struct {
    Algorithm algorithm;
    bool streamed;
  } arms[] = {{Algorithm::kMessi, false},
              {Algorithm::kParisPlus, false},
              {Algorithm::kParisPlus, true}};
  for (const auto& arm : arms) {
    const Algorithm a = arm.algorithm;
    const std::string label = std::string(AlgorithmName(a)) +
                              (arm.streamed ? "/streamed" : "/in-memory");
    EngineOptions options = BaseOptions(a);
    std::unique_ptr<RawSeriesSource> source;
    if (arm.streamed) {
      auto file = FileSource::Open(path, DiskProfile::Instant());
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      source = std::move(*file);
      options.leaf_storage_path = path + ".leaves";
    } else {
      source = std::make_unique<InMemorySource>(Slice(full, 0, base_rows));
    }
    auto latched =
        std::make_unique<testsupport::AppendLatchedSource>(std::move(source));
    testsupport::AppendLatchedSource* latch = latched.get();
    auto engine =
        Engine::Build(SourceSpec::Custom(std::move(latched)), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->source().addressable(), !arm.streamed) << label;
    EXPECT_EQ((*engine)->segmented_index()->leaf_storage() != nullptr,
              arm.streamed)
        << label;
    auto base = Engine::Build(SourceSpec::InMemory(Slice(full, 0, base_rows)),
                              BaseOptions(a));
    auto grown = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(a));
    ASSERT_TRUE(base.ok() && grown.ok()) << label;

    auto appended = std::async(std::launch::async,
                               [&] { return (*engine)->Append(tail); });
    latch->WaitParked();
    // On timeout the latch opens before the test fails, so a build
    // whose append blocks queries fails here instead of hanging.
    const auto answered = [&](auto& future) {
      if (future.wait_for(kQueryWait) == std::future_status::ready) {
        return true;
      }
      latch->Release();
      return false;
    };
    for (SeriesId q = 0; q < queries.count(); ++q) {
      const SeriesView view = queries.series(q);
      auto direct = std::async(std::launch::async,
                               [&] { return (*engine)->Search(view); });
      auto served = (*engine)->Submit(view);
      ASSERT_TRUE(answered(direct) && answered(served))
          << label << " query " << q << " waited for the append";
      const auto want = (*base)->Search(view);
      const auto got_direct = direct.get();
      const auto got_served = served.get();
      ASSERT_TRUE(want.ok() && got_direct.ok() && got_served.ok()) << label;
      ExpectSameResponse(*want, *got_direct, label + "/direct");
      ExpectSameResponse(*want, *got_served, label + "/served");
    }

    latch->Release();
    const auto report = appended.get();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ((*engine)->series_count(), full.count()) << label;
    for (SeriesId q = 0; q < queries.count(); ++q) {
      const SeriesView view = queries.series(q);
      const auto want = (*grown)->Search(view);
      const auto got = (*engine)->Search(view);
      ASSERT_TRUE(want.ok() && got.ok()) << label;
      ExpectSameResponse(*want, *got, label + "/grown");
      EXPECT_EQ(got->neighbors[0].id, first_query + q) << label;
    }
  }
}

TEST(SegmentTest, CompactFoldsAllSegmentsSynchronously) {
  const Dataset full = MakeData(500, 221);
  EngineOptions options = BaseOptions(Algorithm::kMessi);
  options.background_compaction = false;
  auto engine = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 350)),
                              options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Append(Slice(full, 350, 100)).ok());
  ASSERT_TRUE((*engine)->Append(Slice(full, 450, 50)).ok());
  ASSERT_EQ(Serving(engine->get())->segments.size(), 2u);

  const std::string path = TempPath("compact_folds.snap");
  ASSERT_TRUE((*engine)->Compact(path).ok());
  const auto folded = Serving(engine->get());
  EXPECT_TRUE(folded->segments.empty());
  EXPECT_EQ(folded->base_count, 500u);
  EXPECT_EQ(folded->count, 500u);

  auto scratch = Engine::Build(
      SourceSpec::InMemory(Slice(full, 0, full.count())),
      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(scratch.ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, kLength, 222);
  ExpectQueryEquivalence(scratch->get(), engine->get(), queries,
                         "messi/folded");
  std::remove(path.c_str());
}

TEST(SegmentTest, BackgroundCompactorFoldsPastTheTrigger) {
  const Dataset full = MakeData(800, 231);
  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    EngineOptions options = BaseOptions(a);
    options.compaction_trigger_segments = 4;
    auto engine = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 400)),
                                options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->capabilities().background_compaction);

    for (size_t first = 400; first < 800; first += 50) {
      ASSERT_TRUE((*engine)->Append(Slice(full, first, 50)).ok());
    }
    // The compactor runs on its own thread; give it (ample) time to
    // bring the segment count back under the trigger.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Serving(engine->get())->segments.size() >= 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto settled = Serving(engine->get());
    EXPECT_LT(settled->segments.size(), 4u) << AlgorithmName(a);
    EXPECT_EQ(settled->count, 800u);

    auto scratch = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(a));
    ASSERT_TRUE(scratch.ok());
    const Dataset queries =
        GenerateQueries(DatasetKind::kRandomWalk, 5, kLength, 232);
    ExpectQueryEquivalence(scratch->get(), engine->get(), queries,
                           std::string(AlgorithmName(a)) + "/compacted");
  }
}

TEST(SegmentTest, OpenRestoresLiveSegments) {
  // A delta save serializes the unfolded tail as one segment; Open
  // rehydrates it as a live serving segment rather than replaying it
  // into the base.
  const Dataset full = MakeData(900, 241);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, kLength, 242);
  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    const std::string tag = std::string(AlgorithmName(a));
    const std::string data_path = TempPath(tag + "_open.psax");
    const std::string base_snap = TempPath(tag + "_open_base.snap");
    const std::string delta_snap = TempPath(tag + "_open_delta.snap");
    ASSERT_TRUE(WriteDataset(Slice(full, 0, 700), data_path).ok());

    EngineOptions options = BaseOptions(a);
    options.background_compaction = false;
    auto engine = Engine::Build(SourceSpec::Mmap(data_path), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Save(base_snap).ok());
    ASSERT_TRUE((*engine)->Append(Slice(full, 700, 200)).ok());
    ASSERT_TRUE((*engine)->Save(delta_snap).ok());

    auto restored = Engine::Open(delta_snap, data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const auto serving = Serving(restored->get());
    EXPECT_EQ(serving->base_count, 700u);
    EXPECT_EQ(serving->count, 900u);
    ASSERT_EQ(serving->segments.size(), 1u);
    EXPECT_EQ(serving->segments[0]->first, 700u);
    EXPECT_EQ(serving->segments[0]->count, 200u);

    ExpectQueryEquivalence(engine->get(), restored->get(), queries,
                           tag + "/reopened");
    for (const std::string& p : {data_path, base_snap, delta_snap}) {
      std::remove(p.c_str());
    }
  }
}

TEST(SegmentTest, DeltaSaveReSectionsAMergeStraddlingTheHead) {
  // A minor merge that spans the last saved head leaves no live segment
  // starting at the head, so the next delta save must cut [head, count)
  // out of the merged segment — and the chain must still reopen
  // answering exactly like a from-scratch build.
  const Dataset full = MakeData(750, 261);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, kLength, 262);
  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    const std::string tag = std::string(AlgorithmName(a));
    const std::string data_path = TempPath(tag + "_straddle.psax");
    const std::string base_snap = TempPath(tag + "_straddle_base.snap");
    const std::string head_snap = TempPath(tag + "_straddle_head.snap");
    const std::string tail_snap = TempPath(tag + "_straddle_tail.snap");
    ASSERT_TRUE(WriteDataset(Slice(full, 0, 600), data_path).ok());

    EngineOptions options = BaseOptions(a);
    options.compaction_trigger_segments = 3;
    // A 150-series tail against a 600-series base: 150 * 1.0 < 600, so
    // the compactor merges the run into one segment instead of folding.
    options.size_tier_ratio = 1.0;
    auto engine = Engine::Build(SourceSpec::Mmap(data_path), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->capabilities().background_compaction);

    ASSERT_TRUE((*engine)->Save(base_snap).ok());
    ASSERT_TRUE((*engine)->Append(Slice(full, 600, 50)).ok());
    ASSERT_TRUE((*engine)->Save(head_snap).ok());  // head at 650, mid-tail

    const uint64_t compactions = (*engine)->compaction_count();
    ASSERT_TRUE((*engine)->Append(Slice(full, 650, 50)).ok());
    ASSERT_TRUE((*engine)->Append(Slice(full, 700, 50)).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((*engine)->compaction_count() == compactions &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GT((*engine)->compaction_count(), compactions) << tag;
    const auto merged = Serving(engine->get());
    EXPECT_EQ(merged->base_count, 600u);
    ASSERT_EQ(merged->segments.size(), 1u) << tag;
    EXPECT_EQ(merged->segments[0]->first, 600u);
    EXPECT_EQ(merged->segments[0]->count, 150u);

    ASSERT_TRUE((*engine)->Save(tail_snap).ok());
    auto info = ReadSnapshotInfo(tail_snap);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->is_delta);
    EXPECT_EQ(info->prev_series_count, 650u);
    EXPECT_EQ(info->series_count, 750u);

    auto restored = Engine::Open(tail_snap, data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const auto serving = Serving(restored->get());
    EXPECT_EQ(serving->base_count, 600u);
    ASSERT_EQ(serving->segments.size(), 2u);
    EXPECT_EQ(serving->segments[1]->first, 650u);
    EXPECT_EQ(serving->segments[1]->count, 100u);

    auto scratch = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(a));
    ASSERT_TRUE(scratch.ok());
    ExpectQueryEquivalence(scratch->get(), restored->get(), queries,
                           tag + "/resectioned");
    for (const std::string& p :
         {data_path, base_snap, head_snap, tail_snap}) {
      std::remove(p.c_str());
    }
  }
}

// --- the workload storm -----------------------------------------------

TEST(SegmentTest, WorkloadStormMatchesBruteForceOracle) {
  // Queries (QueryService load), appends, delta saves and synchronous
  // compaction interleaved, with the background compactor live the
  // whole time. Every mid-storm response must be well-formed for the
  // epoch it observed; the settled engine and the reopened last save
  // must answer byte-identically to a brute-force oracle.
  const Dataset full = MakeData(1400, 251);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, kLength, 252);

  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    const std::string tag = std::string(AlgorithmName(a));
    const std::string data_path = TempPath(tag + "_storm.psax");
    const std::string save_a = TempPath(tag + "_storm_a.snap");
    const std::string save_b = TempPath(tag + "_storm_b.snap");
    const std::string save_c = TempPath(tag + "_storm_c.snap");
    ASSERT_TRUE(WriteDataset(Slice(full, 0, 800), data_path).ok());

    EngineOptions options = BaseOptions(a);
    options.compaction_trigger_segments = 3;
    auto built = Engine::Build(SourceSpec::Mmap(data_path), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Engine* engine = built->get();

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    const size_t knn_k = engine->capabilities().max_k >= 3 ? 3 : 1;
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const SeriesView q =
              queries.series((c + i++) % queries.count());
          SearchRequest request;
          if (i % 3 == 0) request.k = knn_k;
          auto response = engine->Submit(q, request).get();
          EXPECT_TRUE(response.ok()) << response.status().ToString();
          if (response.ok()) {
            for (const Neighbor& n : response->neighbors) {
              EXPECT_LT(n.id, engine->series_count());
              EXPECT_GE(n.distance_sq, 0.0f);
            }
          }
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // The storm: append / save / append / compact / append / save.
    ASSERT_TRUE(engine->Save(save_a).ok());
    for (size_t first = 800; first < 1000; first += 50) {
      ASSERT_TRUE(engine->Append(Slice(full, first, 50)).ok());
    }
    ASSERT_TRUE(engine->Save(save_b).ok());
    for (size_t first = 1000; first < 1200; first += 50) {
      ASSERT_TRUE(engine->Append(Slice(full, first, 50)).ok());
    }
    ASSERT_TRUE(engine->Compact(save_c).ok());
    for (size_t first = 1200; first < 1400; first += 50) {
      ASSERT_TRUE(engine->Append(Slice(full, first, 50)).ok());
    }
    ASSERT_TRUE(engine->Save(save_b).ok());

    while (answered.load(std::memory_order_relaxed) < 30) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();

    ASSERT_EQ(engine->series_count(), full.count());
    ExpectMatchesBruteForce(full, engine, queries, tag + "/storm");

    // The last save (a delta over the compacted file, or a full
    // fallback — either is legal) restores the full collection.
    auto restored = Engine::Open(save_b, data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->series_count(), full.count());
    ExpectMatchesBruteForce(full, restored->get(), queries,
                            tag + "/storm-reopened");

    for (const std::string& p : {data_path, save_a, save_b, save_c}) {
      std::remove(p.c_str());
    }
  }
}

}  // namespace
}  // namespace parisax
