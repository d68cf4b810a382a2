// Failure injection: corrupted files, impossible options, and error
// propagation out of the parallel build pipelines. A failed build or
// query must surface a Status -- never crash, hang, or silently return
// wrong answers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/engine.h"
#include "index/leaf_storage.h"
#include "io/format.h"
#include "io/generator.h"
#include "paris/paris_index.h"
#include "util/threading.h"
#include "support/failing_source.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

using testsupport::FailingSource;
using testsupport::FailingSourceOptions;

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_failure");
  return dir.Path(name);
}

Dataset MakeData(size_t count = 1000, size_t length = 64) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = 313;
  return GenerateDataset(gen);
}

TEST(FailureTest, EngineRejectsMissingFile) {
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.tree.segments = 8;
  auto engine = Engine::Build(
      SourceSpec::File(TempPath("missing_engine.psax")), options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(FailureTest, EngineRejectsCorruptHeader) {
  const std::string path = TempPath("corrupt_header.psax");
  std::ofstream f(path, std::ios::binary);
  f << "GARBAGEGARBAGEGARBAGEGARBAGE";
  f.close();
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.tree.segments = 8;
  auto engine = Engine::Build(SourceSpec::File(path), options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kCorruption);
}

TEST(FailureTest, ParisBuildSurvivesTruncatedDataset) {
  // A dataset that shrinks under the build (truncated after the source
  // was opened) must fail cleanly mid-pipeline -- the interesting part
  // is that the coordinator's read error must unwind the worker pool
  // without deadlock. (A file already truncated at open time is caught
  // earlier, by FileSource::Open's header validation.)
  const Dataset data = MakeData(2000);
  const std::string path = TempPath("truncated_build.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  ParisBuildOptions build;
  build.num_workers = 4;
  build.plus_mode = true;
  build.batch_series = 128;
  build.tree.segments = 8;
  build.tree.leaf_capacity = 16;
  build.tree.series_length = 64;
  build.leaf_storage_path = TempPath("truncated_build.leaves");
  auto source = FileSource::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(source.ok());
  const DatasetFileInfo info{2000, 64, 0};
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(info.FileBytes() / 2)), 0);
  auto index = ParisIndex::Build(std::move(*source), build);
  EXPECT_FALSE(index.ok());

  // A file short at open time fails fast with a typed error instead.
  EXPECT_EQ(FileSource::Open(path, DiskProfile::Instant()).status().code(),
            StatusCode::kCorruption);
}

TEST(FailureTest, ParisPipelineUnwindsOnMidStreamReadError) {
  // The coordinator hits the injected read error several batches in;
  // the bulk-loading workers (and, for ParIS, the construction pool)
  // must unwind without deadlock and surface the Status.
  for (const bool plus : {false, true}) {
    ParisBuildOptions build;
    build.num_workers = 4;
    build.plus_mode = plus;
    build.batch_series = 64;
    build.tree.segments = 8;
    build.tree.leaf_capacity = 16;
    build.tree.series_length = 64;
    build.leaf_storage_path = TempPath("midstream_fail.leaves");
    FailingSourceOptions fail;
    fail.fail_after_id = 300;
    auto index = ParisIndex::Build(
        std::make_unique<FailingSource>(1000, 64, fail), build);
    ASSERT_FALSE(index.ok()) << (plus ? "paris+" : "paris");
    EXPECT_EQ(index.status().code(), StatusCode::kIoError);
  }
}

TEST(FailureTest, ParisPipelineUnwindsWhenTheFirstReadFails) {
  // The coordinator fails its first read while the workers are still
  // reaching their first wait for a published batch. A failure flag
  // raised between a worker's check and its wait must still wake it,
  // so every build has to return; a lost wakeup hangs one build in a
  // few thousand, so this repeats the build and stops on a stall.
  constexpr int kBuilds = 2000;
  std::atomic<int> finished{0};
  std::atomic<int> wrong{0};
  std::thread builds([&] {
    for (int i = 0; i < kBuilds; ++i) {
      ParisBuildOptions build;
      build.num_workers = 4;
      build.plus_mode = i % 2 == 1;
      build.batch_series = 64;
      build.tree.segments = 8;
      build.tree.leaf_capacity = 16;
      build.tree.series_length = 64;
      build.leaf_storage_path = TempPath("first_read_fail.leaves");
      FailingSourceOptions fail;
      fail.fail_after_id = 16;
      auto index = ParisIndex::Build(
          std::make_unique<FailingSource>(200, 64, fail), build);
      if (index.ok() || index.status().code() != StatusCode::kIoError) {
        wrong.fetch_add(1);
      }
      finished.fetch_add(1);
    }
  });
  int last = 0;
  auto progress = std::chrono::steady_clock::now();
  while (last < kBuilds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = finished.load();
    if (now != last) {
      last = now;
      progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - progress >
               std::chrono::seconds(10)) {
      // The stuck build's threads cannot be joined; end the process.
      std::fprintf(stderr, "build %d of %d never returned\n", now + 1, kBuilds);
      std::_Exit(1);
    }
  }
  builds.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(FailureTest, ParisPipelineUnwindsOnByteBudgetExhaustion) {
  // Unlike the id trip, the byte-offset trip is cumulative across all
  // readers: the "device" dies mid-run wherever the pipeline happens to
  // be, not at a fixed series. The unwinding contract is the same.
  ParisBuildOptions build;
  build.num_workers = 4;
  build.plus_mode = true;
  build.batch_series = 64;
  build.tree.segments = 8;
  build.tree.leaf_capacity = 16;
  build.tree.series_length = 64;
  build.leaf_storage_path = TempPath("byte_trip.leaves");
  FailingSourceOptions fail;
  fail.fail_at_byte_offset = 250 * 64 * sizeof(Value);
  auto index = ParisIndex::Build(
      std::make_unique<FailingSource>(1000, 64, fail), build);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIoError);
}

TEST(FailureTest, ParisRefineReturnsTheFirstReadError) {
  // The device dies halfway through a query's refinement: the search
  // returns the read error, inline and with racing workers, not an
  // answer from the survivors it did read.
  const size_t count = 1000;
  const Dataset data = MakeData(count);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 314);
  const SeriesView query = queries.series(0);
  ParisBuildOptions build;
  build.num_workers = 1;  // one tree shape, so the dry run's counts hold
  build.plus_mode = true;
  build.batch_series = 64;
  build.tree.segments = 8;
  build.tree.leaf_capacity = 16;
  build.tree.series_length = 64;
  const auto build_over = [&](uint64_t fail_at_byte_offset) {
    FailingSourceOptions fail;
    fail.fail_at_byte_offset = fail_at_byte_offset;
    build.leaf_storage_path =
        TempPath("refine_trip_" + std::to_string(fail_at_byte_offset) +
                 ".leaves");
    return ParisIndex::Build(
        std::make_unique<FailingSource>(
            std::make_unique<InMemorySource>(&data), fail),
        build);
  };

  // Dry run: the reads the approximate probe and the refinement make.
  auto healthy = build_over(std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  InlineExecutor inline_exec;
  QueryStats probe, whole;
  ASSERT_TRUE((*healthy)->SearchApproximate(query, &probe).ok());
  ASSERT_TRUE((*healthy)->SearchExact(query, {}, &inline_exec, &whole).ok());
  const uint64_t refined = whole.real_dist_calcs - probe.real_dist_calcs;
  ASSERT_GE(refined, 4u);

  // The build reads every series once, then the budget lets the probe
  // and half the refinement through.
  const uint64_t budget =
      (count + probe.real_dist_calcs + refined / 2) * 64 * sizeof(Value);
  ThreadPool pool(4);
  for (Executor* exec : {static_cast<Executor*>(&inline_exec),
                         static_cast<Executor*>(&pool)}) {
    auto index = build_over(budget);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto got = (*index)->SearchExact(query, {}, exec);
    ASSERT_FALSE(got.ok()) << "threads=" << exec->num_threads();
    EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  }
}

TEST(FailureTest, FailedAppendLeavesServingSnapshotUnchanged) {
  // A streamed ParIS+ engine grows its source before it indexes the new
  // series; an injected source failure must surface the Status without
  // growing the serving count, and later queries must still succeed.
  FailingSourceOptions fail;
  fail.appendable = true;
  fail.fail_after_appends = 1;
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 2;
  options.tree.segments = 8;
  // The source is streamed (non-addressable), so the leaves go on disk.
  options.leaf_storage_path = TempPath("failed_append.leaves");
  auto engine = Engine::Build(
      SourceSpec::Custom(std::make_unique<FailingSource>(100, 64, fail)),
      options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->capabilities().append);

  const Dataset extra = MakeData(3);
  auto first = (*engine)->Append(extra);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_series, 103u);

  auto second = (*engine)->Append(extra);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
  EXPECT_EQ((*engine)->series_count(), 103u);

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 2, 64, 617);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto response = (*engine)->Search(queries.series(q), {});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    for (const auto& n : response->neighbors) {
      EXPECT_LT(n.id, 103u);
    }
  }
}

TEST(FailureTest, LeafStorageReadBeyondEndFails) {
  auto storage = LeafStorage::Create(TempPath("short_leaf.bin"));
  ASSERT_TRUE(storage.ok());
  std::vector<LeafEntry> entries(4);
  auto ref = (*storage)->AppendChunk(entries);
  ASSERT_TRUE(ref.ok());
  LeafChunkRef bogus = *ref;
  bogus.count = 400;  // far beyond what was written
  std::vector<LeafEntry> out;
  EXPECT_EQ((*storage)->ReadChunk(bogus, &out).code(),
            StatusCode::kCorruption);
}

TEST(FailureTest, ParisRejectsImpossibleLeafStoragePath) {
  const Dataset data = MakeData(500);
  const std::string path = TempPath("ok_data.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  ParisBuildOptions build;
  build.num_workers = 2;
  build.tree.segments = 8;
  build.tree.series_length = 64;
  build.leaf_storage_path = "/no-such-dir-xyz/leaves.bin";
  auto source = FileSource::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE(ParisIndex::Build(std::move(*source), build).ok());
}

TEST(FailureTest, EngineSearchAfterFailedOptionsNeverCrashes) {
  const Dataset data = MakeData(200);
  // segments beyond kMaxSegments would corrupt SaxWord storage; the
  // options path must refuse before any engine code runs.
  EngineOptions options;
  options.algorithm = Algorithm::kMessi;
  options.tree.segments = 8;
  options.tree.leaf_capacity = 0;  // nonsense
  auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  options.tree.leaf_capacity = 128;
  options.tree.segments = 0;  // also nonsense
  EXPECT_EQ(Engine::Build(SourceSpec::Borrowed(&data), options).status().code(),
            StatusCode::kInvalidArgument);
  options.tree.segments = 17;  // beyond kMaxSegments
  EXPECT_EQ(Engine::Build(SourceSpec::Borrowed(&data), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FailureTest, DeletedFileAfterOpenIsHandledAtQueryTime) {
  // Building ParIS+ keeps a FileSource fd open; deleting the file under
  // it is fine on POSIX (the fd stays valid). The engine must keep
  // answering queries correctly.
  const Dataset data = MakeData(1500);
  const std::string path = TempPath("deleted_under_fd.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  EngineOptions options;
  options.algorithm = Algorithm::kParisPlus;
  options.num_threads = 2;
  options.tree.segments = 8;
  options.leaf_storage_path = TempPath("deleted_under_fd.leaves");
  auto engine = Engine::Build(SourceSpec::File(path), options);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(std::remove(path.c_str()), 0);

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 2, 64, 313);
  for (size_t q = 0; q < queries.count(); ++q) {
    auto response = (*engine)->Search(queries.series(q), {});
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  }
}

TEST(FailureTest, ZeroLengthQuerySpanRejectedEverywhere) {
  const Dataset data = MakeData(100);
  for (const Algorithm algorithm :
       {Algorithm::kMessi, Algorithm::kParis, Algorithm::kParisPlus}) {
    EngineOptions options;
    options.algorithm = algorithm;
    options.num_threads = 2;
    options.tree.segments = 8;
    auto engine = Engine::Build(SourceSpec::Borrowed(&data), options);
    ASSERT_TRUE(engine.ok()) << AlgorithmName(algorithm);
    auto response = (*engine)->Search(SeriesView(), {});
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace parisax
