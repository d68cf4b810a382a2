// A collection split into pieces must answer exactly like the whole.
// One engine receives the collection in pieces -- built over the
// first, the rest appended with background compaction off, so every
// piece stays its own index segment -- and is checked against one
// engine built over the whole collection: byte-identical ED, kNN and
// DTW answers on the engine pool and on a caller's executor, after
// further growth, and after a per-piece snapshot chain is saved,
// reopened and compacted; typed errors for degenerate shapes and broken
// chains; and a QueryService storm of queries, appends and a
// compaction. The suite keeps the name it had when the pieces were
// separate engines behind a router.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "io/format.h"
#include "io/generator.h"
#include "persist/snapshot.h"
#include "serve/query_service.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

constexpr size_t kLength = 64;

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_split");
  return dir.Path(name);
}

Dataset MakeData(size_t count, uint64_t seed = 71) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = kLength;
  gen.seed = seed;
  return GenerateDataset(gen);
}

Dataset MakeQueries(size_t count, uint64_t seed = 9071) {
  return MakeData(count, seed);
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

EngineOptions BaseOptions(Algorithm algorithm) {
  EngineOptions o;
  o.algorithm = algorithm;
  o.num_threads = 2;
  o.tree.segments = 8;
  o.tree.leaf_capacity = 16;
  o.background_compaction = false;  // every piece stays a segment
  return o;
}

/// How a split engine receives its collection. With `data_path` empty
/// the engine adopts the first piece in memory; otherwise the piece is
/// written to `data_path` and mapped, so appends grow that file and the
/// engine's snapshots reopen over it.
struct SplitSpec {
  size_t pieces = 1;
  std::string data_path;           // empty: in memory
  std::vector<std::string> snaps;  // non-empty: Save after each piece
};

/// Builds over the first piece of `data` and appends the other
/// `spec.pieces - 1` in order (the first piece takes the remainder).
/// With `spec.snaps` set, saves a full snapshot after the build and a
/// delta after each append: one chained file per piece.
std::unique_ptr<Engine> BuildSplit(const Dataset& data, const SplitSpec& spec,
                                   const EngineOptions& options) {
  const size_t part = data.count() / spec.pieces;
  size_t first = data.count() - part * (spec.pieces - 1);
  if (!spec.data_path.empty()) {
    EXPECT_TRUE(WriteDataset(Rows(data, 0, first), spec.data_path).ok());
  }
  auto built = Engine::Build(
      spec.data_path.empty() ? SourceSpec::InMemory(Rows(data, 0, first))
                             : SourceSpec::Mmap(spec.data_path),
      options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return nullptr;
  std::unique_ptr<Engine> engine = std::move(*built);
  for (size_t piece = 0; piece < spec.pieces; ++piece) {
    if (piece > 0) {
      auto report = engine->Append(Rows(data, first, part));
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (!report.ok()) return nullptr;
      first += part;
    }
    if (!spec.snaps.empty()) {
      EXPECT_TRUE(engine->Save(spec.snaps[piece]).ok()) << piece;
    }
  }
  EXPECT_EQ(engine->series_count(), data.count());
  EXPECT_EQ(engine->segmented_index()->serving()->segments.size(),
            spec.pieces - 1);
  return engine;
}

/// One engine built over the whole collection and one that received it
/// in `pieces` parts: the equivalence pair every oracle test uses.
struct EnginePair {
  std::unique_ptr<Engine> whole;
  std::unique_ptr<Engine> split;
};

EnginePair MakePair(Algorithm algorithm, size_t count, size_t pieces,
                    uint64_t seed = 71) {
  EnginePair pair;
  const EngineOptions options = BaseOptions(algorithm);
  auto whole =
      Engine::Build(SourceSpec::InMemory(MakeData(count, seed)), options);
  EXPECT_TRUE(whole.ok()) << whole.status().ToString();
  if (whole.ok()) pair.whole = std::move(*whole);
  pair.split = BuildSplit(MakeData(count, seed), {.pieces = pieces}, options);
  return pair;
}

void ExpectSameResponse(const SearchResponse& want, const SearchResponse& got,
                        const std::string& label) {
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << label;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].id, want.neighbors[i].id)
        << label << " rank " << i;
    EXPECT_EQ(got.neighbors[i].distance_sq, want.neighbors[i].distance_sq)
        << label << " rank " << i;
  }
}

/// Byte-identical equivalence: same ids, bit-equal distances, same
/// order.
void ExpectSameAnswers(Engine& whole, Engine& split, const Dataset& queries,
                       const SearchRequest& request) {
  for (size_t q = 0; q < queries.count(); ++q) {
    auto expect = whole.Search(queries.series(q), request);
    auto got = split.Search(queries.series(q), request);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResponse(*expect, *got, "query " + std::to_string(q));
  }
}

TEST(ShardedEngineTest, EdMatchesSingleEngineExactly) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    for (size_t pieces : {size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string("algorithm ") + AlgorithmName(a) +
                   " pieces " + std::to_string(pieces));
      EnginePair pair = MakePair(a, 1200, pieces);
      ASSERT_NE(pair.whole, nullptr);
      ASSERT_NE(pair.split, nullptr);
      ExpectSameAnswers(*pair.whole, *pair.split, MakeQueries(10), {});
    }
  }
}

TEST(ShardedEngineTest, KnnMatchesSingleEngineExactly) {
  EnginePair pair = MakePair(Algorithm::kMessi, 1500, 4);
  ASSERT_NE(pair.whole, nullptr);
  ASSERT_NE(pair.split, nullptr);
  SearchRequest request;
  request.k = 7;
  ExpectSameAnswers(*pair.whole, *pair.split, MakeQueries(8), request);
  // k larger than the collection answers every series, exactly once.
  request.k = 100000;
  auto all = pair.split->Search(MakeQueries(1).series(0), request);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->neighbors.size(), pair.split->series_count());
  std::set<SeriesId> ids;
  for (const Neighbor& n : all->neighbors) ids.insert(n.id);
  EXPECT_EQ(ids.size(), pair.split->series_count());
  EXPECT_EQ(*ids.rbegin(), pair.split->series_count() - 1);
}

TEST(ShardedEngineTest, DtwMatchesSingleEngineExactly) {
  EnginePair pair = MakePair(Algorithm::kMessi, 900, 3);
  ASSERT_NE(pair.whole, nullptr);
  ASSERT_NE(pair.split, nullptr);
  SearchRequest request;
  request.dtw = true;
  request.dtw_band = 6;
  ExpectSameAnswers(*pair.whole, *pair.split, MakeQueries(6), request);
}

TEST(ShardedEngineTest, ExecutorPathMatchesParallelPath) {
  EnginePair pair = MakePair(Algorithm::kMessi, 1000, 4);
  ASSERT_NE(pair.split, nullptr);
  const Dataset queries = MakeQueries(6);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto parallel = pair.split->Search(queries.series(q), {});
    InlineExecutor inline_exec;
    auto inline_r = pair.split->Search(queries.series(q), {}, &inline_exec);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(inline_r.ok());
    ExpectSameResponse(*parallel, *inline_r, "query " + std::to_string(q));
  }
}

TEST(ShardedEngineTest, BuildRejectsDegenerateShapes) {
  const Dataset data = MakeData(64);
  auto build_code = [&data](EngineOptions options) {
    return Engine::Build(SourceSpec::InMemory(Rows(data, 0, data.count())),
                         options)
        .status()
        .code();
  };
  EngineOptions options = BaseOptions(Algorithm::kMessi);
  options.tree.segments = 0;
  EXPECT_EQ(build_code(options), StatusCode::kInvalidArgument);
  options.tree.segments = 17;
  EXPECT_EQ(build_code(options), StatusCode::kInvalidArgument);
  options = BaseOptions(Algorithm::kMessi);
  options.tree.leaf_capacity = 0;
  EXPECT_EQ(build_code(options), StatusCode::kInvalidArgument);
  options = BaseOptions(Algorithm::kMessi);
  options.tree.series_length = kLength / 2;
  EXPECT_EQ(build_code(options), StatusCode::kInvalidArgument);
  options = BaseOptions(Algorithm::kMessi);
  options.num_threads = 0;
  EXPECT_EQ(build_code(options), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, AppendMatchesSingleEngineAfterGrowth) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    SCOPED_TRACE(AlgorithmName(a));
    EnginePair pair = MakePair(a, 800, 4);
    ASSERT_NE(pair.whole, nullptr);
    ASSERT_NE(pair.split, nullptr);
    const Dataset extra = MakeData(130, 4444);
    auto whole_report = pair.whole->Append(extra);
    auto split_report = pair.split->Append(extra);
    ASSERT_TRUE(whole_report.ok()) << whole_report.status().ToString();
    ASSERT_TRUE(split_report.ok()) << split_report.status().ToString();
    EXPECT_EQ(split_report->appended, extra.count());
    EXPECT_EQ(split_report->total_series, 800 + extra.count());
    EXPECT_EQ(pair.split->series_count(), pair.whole->series_count());
    EXPECT_EQ(pair.split->append_epoch(), 4u);  // three pieces + this one
    ExpectSameAnswers(*pair.whole, *pair.split, MakeQueries(8), {});
    // An appended series is findable under its new id.
    auto hit = pair.split->Search(extra.series(7), {});
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->neighbors[0].id, 800 + 7);
    EXPECT_EQ(hit->neighbors[0].distance_sq, 0.0f);
  }
}

TEST(ShardedEngineTest, AppendRejectsLengthMismatchTyped) {
  auto split = BuildSplit(MakeData(200), {.pieces = 2},
                          BaseOptions(Algorithm::kMessi));
  ASSERT_NE(split, nullptr);
  GeneratorOptions gen;
  gen.count = 4;
  gen.length = kLength / 2;
  EXPECT_EQ(split->Append(GenerateDataset(gen)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(split->series_count(), 200u);
  EXPECT_EQ(split->append_epoch(), 1u);
}

/// Paths for a split engine over a dataset file with one snapshot per
/// piece.
SplitSpec ChainSpec(const std::string& tag, size_t pieces) {
  SplitSpec spec;
  spec.pieces = pieces;
  spec.data_path = TempPath(tag + ".psax");
  for (size_t p = 0; p < pieces; ++p) {
    spec.snaps.push_back(TempPath(tag + "_" + std::to_string(p) + ".snap"));
  }
  return spec;
}

TEST(ShardedEngineTest, SaveOpenRoundtripServesIdentically) {
  for (Algorithm a : {Algorithm::kMessi, Algorithm::kParisPlus}) {
    SCOPED_TRACE(AlgorithmName(a));
    const SplitSpec spec =
        ChainSpec(std::string("roundtrip_") + AlgorithmName(a), 3);
    EnginePair pair = MakePair(a, 900, 1);
    ASSERT_NE(pair.whole, nullptr);
    auto split = BuildSplit(MakeData(900), spec, BaseOptions(a));
    ASSERT_NE(split, nullptr);

    // The head of the chain restores every piece as a live segment.
    auto restored = Engine::Open(spec.snaps.back(), spec.data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->segmented_index()->serving()->segments.size(),
              2u);
    EXPECT_EQ((*restored)->series_count(), 900u);
    EXPECT_EQ((*restored)->series_length(), kLength);
    EXPECT_STREQ((*restored)->algorithm_name(), AlgorithmName(a));
    ExpectSameAnswers(*pair.whole, **restored, MakeQueries(6), {});

    // The explicit-options overload is binding on the algorithm.
    const Algorithm other = a == Algorithm::kMessi ? Algorithm::kParisPlus
                                                   : Algorithm::kMessi;
    EXPECT_FALSE(
        Engine::Open(spec.snaps.back(), spec.data_path, BaseOptions(other))
            .ok());
    EXPECT_TRUE(
        Engine::Open(spec.snaps.back(), spec.data_path, BaseOptions(a)).ok());
  }
}

TEST(ShardedEngineTest, AppendSaveCompactChainRoundtrip) {
  const SplitSpec spec = ChainSpec("chain", 3);
  const std::string grown = TempPath("chain_grown.snap");
  const std::string compacted = TempPath("chain_compacted.snap");
  EnginePair pair = MakePair(Algorithm::kMessi, 600, 1);
  ASSERT_NE(pair.whole, nullptr);
  auto split =
      BuildSplit(MakeData(600), spec, BaseOptions(Algorithm::kMessi));
  ASSERT_NE(split, nullptr);

  const Dataset extra = MakeData(90, 5555);
  ASSERT_TRUE(split->Append(extra).ok());
  ASSERT_TRUE(pair.whole->Append(extra).ok());
  ASSERT_TRUE(split->Save(grown).ok());

  auto restored = Engine::Open(grown, spec.data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->series_count(), 690u);
  ExpectSameAnswers(*pair.whole, **restored, MakeQueries(6), {});

  // Compacting the restored engine folds every piece and re-checkpoints.
  ASSERT_TRUE((*restored)->Compact(compacted).ok());
  EXPECT_TRUE((*restored)->segmented_index()->serving()->segments.empty());
  auto recompacted = Engine::Open(compacted, spec.data_path);
  ASSERT_TRUE(recompacted.ok()) << recompacted.status().ToString();
  EXPECT_EQ((*recompacted)->series_count(), 690u);
  ExpectSameAnswers(*pair.whole, **recompacted, MakeQueries(6), {});
}

TEST(ShardedEngineTest, MissingShardSnapshotIsTypedNotFound) {
  const SplitSpec spec = ChainSpec("missing_piece", 3);
  auto split =
      BuildSplit(MakeData(500), spec, BaseOptions(Algorithm::kMessi));
  ASSERT_NE(split, nullptr);
  ASSERT_EQ(std::remove(spec.snaps[1].c_str()), 0);

  auto restored = Engine::Open(spec.snaps.back(), spec.data_path);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
  EXPECT_NE(restored.status().message().find(spec.snaps[1]),
            std::string::npos)
      << restored.status().ToString();
}

TEST(ShardedEngineTest, CorruptManifestIsTypedCorruption) {
  // Flip one byte of the chain head's header: the header CRC must catch
  // it before the chain is walked.
  const SplitSpec spec = ChainSpec("corrupt", 2);
  auto split =
      BuildSplit(MakeData(300), spec, BaseOptions(Algorithm::kMessi));
  ASSERT_NE(split, nullptr);
  const std::string head = spec.snaps.back();
  {
    std::fstream f(head, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char b = 0;
    f.seekg(10);
    f.read(&b, 1);
    b ^= 0x40;
    f.seekp(10);
    f.write(&b, 1);
  }
  EXPECT_EQ(Engine::Open(head, spec.data_path).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReadSnapshotInfo(head).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(Engine::Open(TempPath("never_written.snap"), spec.data_path)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ShardedEngineTest, QueryServiceStormOverShardedBackend) {
  const std::string data_path = TempPath("storm.psax");
  auto split = BuildSplit(MakeData(1200), {.pieces = 4, .data_path = data_path},
                          BaseOptions(Algorithm::kMessi));
  ASSERT_NE(split, nullptr);
  Engine& engine = *split;
  QueryService* service = engine.query_service();
  ASSERT_NE(service, nullptr);

  const Dataset queries = MakeQueries(16);
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};

  // Query threads hammer the service while appends and a synchronous
  // compaction checkpoint run concurrently; every answer must name a
  // series inside the collection the engine reports afterwards.
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto future = engine.Submit(queries.series(q % queries.count()));
        auto response = future.get();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_FALSE(response->neighbors.empty());
        EXPECT_LT(response->neighbors[0].id, engine.series_count());
        answered.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (int round = 0; round < 5; ++round) {
    const Dataset extra = MakeData(40, 7000 + round);
    auto report = engine.Append(extra);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  const std::string snapshot = TempPath("storm.snap");
  ASSERT_TRUE(engine.Compact(snapshot).ok());
  while (answered.load(std::memory_order_relaxed) < 60) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();

  EXPECT_EQ(engine.series_count(), 1200u + 5 * 40);
  EXPECT_EQ(engine.append_epoch(), 3u + 5);
  const ServeStats stats = service->stats();
  EXPECT_EQ(stats.completed, stats.submitted);

  // The storm's checkpoint is a valid restore point.
  auto restored = Engine::Open(snapshot, data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->series_count(), engine.series_count());
}

}  // namespace
}  // namespace parisax
