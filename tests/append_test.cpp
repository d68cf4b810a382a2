// Incremental-ingest tests: Engine::Append must leave the engine
// answering exactly like a from-scratch build over the combined
// collection (ED/kNN/DTW, MESSI + ParIS/ParIS+, in-memory and mmap and
// streamed-file residencies), stay correct under concurrent
// QueryService load, and the append-only delta snapshots must
// round-trip (save -> open -> query equivalence), fail typed on
// corruption, and compact back into a full snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "io/format.h"
#include "io/generator.h"
#include "persist/snapshot.h"
#include "scan/ucr_scan.h"
#include "serve/query_service.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_append");
  return dir.Path(name);
}

Dataset MakeData(size_t count, uint64_t seed = 37) {
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
    std::copy(src.begin(), src.end(),
              out.mutable_series(i).begin());
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

void ExpectSameResponse(const SearchResponse& want,
                        const SearchResponse& got,
                        const std::string& label) {
  ASSERT_EQ(want.neighbors.size(), got.neighbors.size()) << label;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(want.neighbors[i].id, got.neighbors[i].id) << label;
    // Byte-identical: same kernels over the same float values.
    EXPECT_EQ(want.neighbors[i].distance_sq, got.neighbors[i].distance_sq)
        << label;
  }
}

/// Exact-search equivalence between two engines over a query workload:
/// ED 1-NN everywhere, plus kNN and DTW where the engine supports them.
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
    if (caps.dtw) {
      SearchRequest dtw;
      dtw.dtw = true;
      dtw.dtw_band = 5;
      auto wd = want->Search(view, dtw);
      auto gd = got->Search(view, dtw);
      ASSERT_TRUE(wd.ok() && gd.ok()) << label;
      ExpectSameResponse(*wd, *gd, label + "/dtw");
    }
  }
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- append == from-scratch build -------------------------------------

TEST(AppendTest, AppendMatchesFromScratchBuild) {
  const Dataset full = MakeData(1200);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 6,
                                          kLength, 91);
  for (const Algorithm a :
       {Algorithm::kMessi, Algorithm::kParisPlus, Algorithm::kParis}) {
    auto scratch = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(a));
    ASSERT_TRUE(scratch.ok()) << AlgorithmName(a);

    // Base 800, then two append batches of 300 and 100.
    auto grown = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 800)),
                               BaseOptions(a));
    ASSERT_TRUE(grown.ok()) << AlgorithmName(a);
    ASSERT_TRUE((*grown)->capabilities().append);
    auto r1 = (*grown)->Append(Slice(full, 800, 300));
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(r1->appended, 300u);
    EXPECT_EQ(r1->total_series, 1100u);
    EXPECT_GT(r1->touched_subtrees, 0u);
    auto r2 = (*grown)->Append(Slice(full, 1100, 100));
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ((*grown)->series_count(), full.count());
    EXPECT_EQ((*grown)->append_epoch(), 2u);
    // build_report() stays the *initial* build's; post-append tree
    // stats live on the index core.
    EXPECT_EQ((*grown)->segmented_index()->tree_stats().total_entries,
              full.count());

    ExpectQueryEquivalence(scratch->get(), grown->get(), queries,
                           AlgorithmName(a));
  }
}

TEST(AppendTest, ManySmallAppendsMatchFromScratchBuild) {
  // The streaming-ingest shape: lots of tiny batches. Exercises the
  // geometric-capacity path (later batches land in spare capacity
  // without reallocating) and id continuity across appends.
  const Dataset full = MakeData(900, 47);
  auto scratch = Engine::Build(
      SourceSpec::InMemory(Slice(full, 0, full.count())),
      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(scratch.ok());
  auto grown = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 500)),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(grown.ok());
  for (size_t first = 500; first < 900; first += 20) {
    auto report = (*grown)->Append(Slice(full, first, 20));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  EXPECT_EQ((*grown)->series_count(), full.count());
  EXPECT_EQ((*grown)->append_epoch(), 20u);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 5,
                                          kLength, 48);
  ExpectQueryEquivalence(scratch->get(), grown->get(), queries,
                         "messi/small-appends");
}

TEST(AppendTest, AppendGrowsMmapBackedFileInPlace) {
  const Dataset full = MakeData(900, 53);
  const std::string path = TempPath("mmap_grow.psax");
  ASSERT_TRUE(WriteDataset(Slice(full, 0, 600), path).ok());

  auto engine = Engine::Build(SourceSpec::Mmap(path),
                              BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto report = (*engine)->Append(Slice(full, 600, 300));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The dataset file itself grew: a valid WriteDataset file holding the
  // whole collection (what Engine::Open later mmaps).
  auto info = ReadDatasetInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->count, full.count());

  auto scratch = Engine::Build(
      SourceSpec::InMemory(Slice(full, 0, full.count())),
      BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(scratch.ok());
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 5,
                                          kLength, 92);
  ExpectQueryEquivalence(scratch->get(), engine->get(), queries,
                         "messi/mmap-append");
  std::remove(path.c_str());
}

TEST(AppendTest, AppendOverStreamedFileSource) {
  const Dataset full = MakeData(700, 61);
  const std::string path = TempPath("stream_grow.psax");
  ASSERT_TRUE(WriteDataset(Slice(full, 0, 500), path).ok());

  auto engine = Engine::Build(SourceSpec::File(path),
                              BaseOptions(Algorithm::kParisPlus));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto report = (*engine)->Append(Slice(full, 500, 200));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ((*engine)->series_count(), full.count());

  // The streamed engine fetches raw values through its device, which
  // sees the file grown in place; results must match the in-memory
  // oracle exactly.
  const InMemorySource oracle(&full);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 4,
                                          kLength, 93);
  for (SeriesId q = 0; q < queries.count(); ++q) {
    auto got = (*engine)->Search(queries.series(q), {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->neighbors.size(), 1u);
    EXPECT_EQ(got->neighbors[0],
              BruteForceNn(oracle, queries.series(q),
                           (*engine)->options().kernel))
        << "paris+/streamed-append q" << q;
  }
  std::remove(path.c_str());
  std::remove((path + ".leaves").c_str());
}

// --- gating -----------------------------------------------------------

TEST(AppendTest, AppendRejectionsAreTyped) {
  const Dataset data = MakeData(400, 83);
  const Dataset tail = MakeData(10, 84);

  // A borrowed collection cannot grow.
  auto borrowed = Engine::Build(SourceSpec::Borrowed(&data),
                                BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(borrowed.ok());
  EXPECT_FALSE((*borrowed)->capabilities().append);
  EXPECT_EQ((*borrowed)->Append(tail).status().code(),
            StatusCode::kNotSupported);

  // Wrong series length is invalid, not silently reshaped.
  auto messi = Engine::Build(SourceSpec::InMemory(Slice(data, 0, 400)),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(messi.ok());
  Dataset wrong(4, kLength / 2);
  EXPECT_EQ((*messi)->Append(wrong).status().code(),
            StatusCode::kInvalidArgument);

  // Empty append is a no-op, not an error.
  auto empty = (*messi)->Append(Dataset());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->appended, 0u);
  EXPECT_EQ((*messi)->append_epoch(), 0u);
}

// --- concurrency ------------------------------------------------------

TEST(AppendTest, AppendUnderConcurrentQueryServiceLoad) {
  const Dataset full = MakeData(1600, 101);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 8,
                                          kLength, 102);
  // One engine per source: in memory, MESSI and ParIS+; over a streamed
  // file, ParIS+ with its leaves on disk. Each publishes segments into
  // the serving snapshot while queries run. The streamed engine also
  // compacts between batches: the fold reads the base's leaf chunks
  // back while queries read the same chunks.
  const std::string path = TempPath("concurrent_stream.psax");
  const std::string snapshot = TempPath("concurrent_stream.snap");
  ASSERT_TRUE(WriteDataset(Slice(full, 0, 1000), path).ok());
  const struct {
    Algorithm algorithm;
    bool streamed;
  } arms[] = {{Algorithm::kMessi, false},
              {Algorithm::kParisPlus, false},
              {Algorithm::kParisPlus, true}};
  for (const auto& arm : arms) {
    const Algorithm algorithm = arm.algorithm;
    const std::string label = std::string(AlgorithmName(algorithm)) +
                              (arm.streamed ? "/streamed" : "/in-memory");
    SCOPED_TRACE(label);
    EngineOptions options = BaseOptions(algorithm);
    if (arm.streamed) options.leaf_storage_path = path + ".leaves";
    auto built = Engine::Build(
        arm.streamed ? SourceSpec::File(path)
                     : SourceSpec::InMemory(Slice(full, 0, 1000)),
        options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Engine* engine = built->get();
    const bool knn = engine->capabilities().max_k >= 3;

    // Clients hammer the query service while the main thread appends
    // the remaining series in batches. Every response must be
    // well-formed against whatever epoch it observed: every neighbor id
    // below the series_count() read after the answer, and a finite
    // distance.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const SeriesView q = queries.series((c + i++) % queries.count());
          SearchRequest request;
          if (knn && i % 3 == 0) request.k = 3;
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
    for (size_t first = 1000; first < 1600; first += 200) {
      auto report = engine->Append(Slice(full, first, 200));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      if (arm.streamed) {
        const Status compacted = engine->Compact(snapshot);
        ASSERT_TRUE(compacted.ok()) << compacted.ToString();
        EXPECT_TRUE(engine->segmented_index()->serving()->segments.empty());
      }
    }
    // Let the clients observe the final epoch before stopping.
    while (answered.load(std::memory_order_relaxed) < 24) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(engine->series_count(), full.count());
    EXPECT_EQ(engine->append_epoch(), 3u);

    // And the final state answers exactly like a from-scratch build.
    auto scratch = Engine::Build(
        SourceSpec::InMemory(Slice(full, 0, full.count())),
        BaseOptions(algorithm));
    ASSERT_TRUE(scratch.ok());
    ExpectQueryEquivalence(scratch->get(), engine, queries,
                           label + "/concurrent");
  }
}

// --- delta snapshots --------------------------------------------------

struct Chain {
  std::string data_path;
  std::string base;
  std::string delta1;
  std::string delta2;
  std::unique_ptr<Engine> engine;  // live engine, post-appends
};

/// Builds over an mmap-backed copy of the first 600 series, saves a
/// full base, then appends twice with a delta save after each. Uses
/// the paper's 16 SAX segments: with the full root fan-out an append
/// batch touches a small fraction of the subtrees, which is what makes
/// deltas smaller than full snapshots.
Chain BuildChain(Algorithm algorithm, const Dataset& full,
                 const std::string& tag) {
  Chain c;
  c.data_path = TempPath(tag + "_data.psax");
  c.base = TempPath(tag + "_base.snap");
  c.delta1 = TempPath(tag + "_delta1.snap");
  c.delta2 = TempPath(tag + "_delta2.snap");
  EXPECT_TRUE(WriteDataset(Slice(full, 0, 600), c.data_path).ok());

  EngineOptions options = BaseOptions(algorithm);
  options.tree.segments = 16;
  auto engine = Engine::Build(SourceSpec::Mmap(c.data_path), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  c.engine = std::move(*engine);
  EXPECT_TRUE(c.engine->Save(c.base).ok());
  EXPECT_TRUE(c.engine->Append(Slice(full, 600, 250)).ok());
  EXPECT_TRUE(c.engine->Save(c.delta1).ok());
  EXPECT_TRUE(c.engine->Append(Slice(full, 850, 150)).ok());
  EXPECT_TRUE(c.engine->Save(c.delta2).ok());
  return c;
}

void RemoveChain(const Chain& c) {
  for (const std::string& p :
       {c.data_path, c.base, c.delta1, c.delta2}) {
    std::remove(p.c_str());
  }
}

TEST(AppendTest, DeltaSnapshotChainRoundtrip) {
  const Dataset full = MakeData(1000, 111);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 5,
                                          kLength, 112);
  for (const Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    Chain c = BuildChain(a, full, std::string("chain_") +
                                      std::to_string(static_cast<int>(a)));

    // The files record what they are: v1 base, then chained deltas.
    auto base_info = ReadSnapshotInfo(c.base);
    ASSERT_TRUE(base_info.ok());
    EXPECT_EQ(base_info->version, kSnapshotVersion);
    EXPECT_FALSE(base_info->is_delta);
    auto d1 = ReadSnapshotInfo(c.delta1);
    ASSERT_TRUE(d1.ok());
    EXPECT_TRUE(d1->is_delta);
    EXPECT_EQ(d1->version, kSnapshotVersionDelta);
    EXPECT_EQ(d1->base_path, c.base);
    EXPECT_EQ(d1->chain_depth, 1u);
    EXPECT_EQ(d1->prev_series_count, 600u);
    EXPECT_EQ(d1->series_count, 850u);
    auto d2 = ReadSnapshotInfo(c.delta2);
    ASSERT_TRUE(d2.ok());
    EXPECT_EQ(d2->base_path, c.delta1);
    EXPECT_EQ(d2->chain_depth, 2u);

    // Deltas are smaller than the base: only touched subtrees travel.
    EXPECT_LT(ReadAll(c.delta2).size(), ReadAll(c.base).size());

    // Open replays base + both deltas and answers like the live engine.
    auto restored = Engine::Open(c.delta2, c.data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->series_count(), 1000u);
    ExpectQueryEquivalence(c.engine.get(), restored->get(), queries,
                           std::string(AlgorithmName(a)) + "/chain");
    RemoveChain(c);
  }
}

TEST(AppendTest, DeltaCorruptionAndBrokenChainsAreTyped) {
  const Dataset full = MakeData(1000, 121);
  Chain c = BuildChain(Algorithm::kMessi, full, "corrupt");
  const std::vector<uint8_t> base_bytes = ReadAll(c.base);
  const std::vector<uint8_t> delta_bytes = ReadAll(c.delta2);

  // Body byte flip in the delta.
  {
    std::vector<uint8_t> bad = delta_bytes;
    bad[bad.size() / 2] ^= 0x40;
    WriteAll(c.delta2, bad);
    auto opened = Engine::Open(c.delta2, c.data_path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  // Truncated delta.
  {
    std::vector<uint8_t> bad = delta_bytes;
    bad.resize(bad.size() - 9);
    WriteAll(c.delta2, bad);
    auto opened = Engine::Open(c.delta2, c.data_path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  WriteAll(c.delta2, delta_bytes);

  // Corrupting a file earlier in the chain is caught too.
  {
    std::vector<uint8_t> bad = base_bytes;
    bad[bad.size() / 2] ^= 0x40;
    WriteAll(c.base, bad);
    auto opened = Engine::Open(c.delta2, c.data_path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  // A *swapped* base (valid snapshot, wrong identity) breaks the CRC
  // back-reference.
  {
    auto other = Engine::Build(SourceSpec::InMemory(Slice(full, 0, 300)),
                               BaseOptions(Algorithm::kMessi));
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE((*other)->Save(c.base).ok());
    auto opened = Engine::Open(c.delta2, c.data_path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  // A missing base is NotFound.
  {
    std::remove(c.base.c_str());
    auto opened = Engine::Open(c.delta2, c.data_path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  }
  RemoveChain(c);
}

TEST(AppendTest, CompactRewritesTheChain) {
  const Dataset full = MakeData(1000, 131);
  const Dataset queries = GenerateQueries(DatasetKind::kRandomWalk, 4,
                                          kLength, 132);
  Chain c = BuildChain(Algorithm::kParisPlus, full, "compact");
  const std::string compacted = TempPath("compacted.snap");

  ASSERT_TRUE(c.engine->Compact(compacted).ok());
  auto info = ReadSnapshotInfo(compacted);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, kSnapshotVersion);  // full again
  EXPECT_EQ(info->series_count, 1000u);

  // The compacted file alone restores the whole collection — the chain
  // files are no longer needed.
  std::remove(c.base.c_str());
  std::remove(c.delta1.c_str());
  std::remove(c.delta2.c_str());
  auto restored = Engine::Open(compacted, c.data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectQueryEquivalence(c.engine.get(), restored->get(), queries,
                         "paris+/compacted");

  // Post-compaction appends chain onto the compacted file.
  ASSERT_TRUE(c.engine->Append(Slice(full, 0, 40)).ok());
  const std::string next = TempPath("post_compact.snap");
  ASSERT_TRUE(c.engine->Save(next).ok());
  auto next_info = ReadSnapshotInfo(next);
  ASSERT_TRUE(next_info.ok());
  EXPECT_TRUE(next_info->is_delta);
  EXPECT_EQ(next_info->base_path, compacted);
  EXPECT_EQ(next_info->chain_depth, 1u);

  std::remove(compacted.c_str());
  std::remove(next.c_str());
  std::remove(c.data_path.c_str());
}

TEST(AppendTest, SaveOverChainMemberFallsBackToFull) {
  // Asking Save to overwrite a file the chain back-references (here:
  // the base, via ping-pong save paths) must not write a delta — that
  // would make the chain a cycle. It falls back to a full snapshot,
  // which supersedes the chain.
  const Dataset full = MakeData(1100, 151);
  Chain c = BuildChain(Algorithm::kMessi, full, "pingpong");
  ASSERT_TRUE(c.engine->Append(Slice(full, 1000, 100)).ok());
  ASSERT_TRUE(c.engine->Save(c.base).ok());

  auto info = ReadSnapshotInfo(c.base);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->is_delta);
  EXPECT_EQ(info->series_count, 1100u);

  // The overwritten base alone restores the full collection.
  auto restored = Engine::Open(c.base, c.data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->series_count(), 1100u);
  RemoveChain(c);
}

TEST(AppendTest, SaveWithoutAppendsStaysFull) {
  const Dataset full = MakeData(700, 141);
  const std::string data_path = TempPath("full_data.psax");
  ASSERT_TRUE(WriteDataset(Slice(full, 0, 700), data_path).ok());
  auto engine = Engine::Build(SourceSpec::Mmap(data_path),
                              BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(engine.ok());

  const std::string first = TempPath("full_first.snap");
  const std::string second = TempPath("full_second.snap");
  ASSERT_TRUE((*engine)->Save(first).ok());
  // No appends since: a save to a new path is still a full snapshot.
  ASSERT_TRUE((*engine)->Save(second).ok());
  auto info = ReadSnapshotInfo(second);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->is_delta);

  for (const std::string& p : {data_path, first, second}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace parisax
