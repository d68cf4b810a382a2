// Snapshot persistence tests: save -> load -> query equivalence against
// both the original index and the brute-force oracle, mmap-backed raw
// sources, and corruption handling (truncation, bad magic, version
// mismatch, checksum flips) -- every malformed input must fail with a
// typed error, never crash.
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "io/format.h"
#include "io/generator.h"
#include "io/mmap_source.h"
#include "persist/checksum.h"
#include "scan/ucr_scan.h"
#include "serve/query_service.h"
#include "support/temp_dir.h"

namespace parisax {
namespace {

std::string TempPath(const std::string& name) {
  static testsupport::ScopedTempDir dir("parisax_persist");
  return dir.Path(name);
}

Dataset MakeData(size_t count = 1500, size_t length = 64,
                 uint64_t seed = 29) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
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

/// Writes `data` to a dataset file and returns its path.
std::string WriteDataFile(const Dataset& data, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteDataset(data, path).ok());
  return path;
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

void ExpectSameResponse(const SearchResponse& want,
                        const SearchResponse& got,
                        const std::string& label) {
  ASSERT_EQ(want.neighbors.size(), got.neighbors.size()) << label;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(want.neighbors[i].id, got.neighbors[i].id) << label;
    // Byte-identical distances: same kernels over the same float values
    // (the mmap view of the file the dataset was written to).
    EXPECT_EQ(want.neighbors[i].distance_sq, got.neighbors[i].distance_sq)
        << label;
  }
}

// --- mmap source ------------------------------------------------------

TEST(MmapSourceTest, ServesSeriesZeroCopy) {
  const Dataset data = MakeData(64, 32);
  const std::string path = WriteDataFile(data, "mmap_basic.psax");
  auto source = MmapSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->count(), data.count());
  EXPECT_EQ((*source)->length(), data.length());
  ASSERT_NE((*source)->ContiguousData(), nullptr);
  for (SeriesId id : {SeriesId{0}, SeriesId{13}, SeriesId{63}}) {
    const SeriesView view = (*source)->TryView(id);
    ASSERT_EQ(view.size(), data.length());
    std::vector<Value> copied(data.length());
    ASSERT_TRUE((*source)->GetSeries(id, copied.data()).ok());
    for (size_t i = 0; i < data.length(); ++i) {
      EXPECT_EQ(view[i], data.series(id)[i]);
      EXPECT_EQ(copied[i], data.series(id)[i]);
    }
  }
  EXPECT_TRUE((*source)->TryView(data.count()).empty());
  std::vector<Value> buffer(data.length());
  EXPECT_FALSE((*source)->GetSeries(data.count(), buffer.data()).ok());
  std::remove(path.c_str());
}

TEST(MmapSourceTest, MissingFileIsNotFound) {
  auto source = MmapSource::Open(TempPath("does_not_exist.psax"));
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
}

TEST(MmapSourceTest, RejectsNonDatasetFile) {
  const std::string path = TempPath("mmap_garbage.psax");
  WriteAll(path, std::vector<uint8_t>(100, 0x5A));
  auto source = MmapSource::Open(path);
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// --- save/load equivalence --------------------------------------------

TEST(SnapshotTest, MessiRoundtripAnswersIdenticallyEdKnnDtw) {
  const Dataset data = MakeData();
  const std::string data_path = WriteDataFile(data, "messi_rt.psax");
  const std::string snap_path = TempPath("messi_rt.snap");

  auto built = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(snap_path).ok());

  auto restored = Engine::Open(snap_path, data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->algorithm(), Algorithm::kMessi);
  EXPECT_EQ((*restored)->series_count(), data.count());
  EXPECT_EQ((*restored)->series_length(), data.length());
  // The restored tree is structurally valid and complete.
  ASSERT_NE((*restored)->messi_index(), nullptr);
  EXPECT_TRUE((*restored)->messi_index()->tree().CheckInvariants().ok());

  const InMemorySource oracle(&data);
  const KernelPolicy kernel = (*built)->options().kernel;
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, data.length(), 31);
  for (SeriesId q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    // Exact requests, each with its brute-force answer.
    const std::pair<SearchRequest, std::vector<Neighbor>> exact[] = {
        {SearchRequest{}, {BruteForceNn(oracle, query, kernel)}},
        {SearchRequest{.k = 5}, BruteForceKnn(oracle, query, 5, kernel)},
        {SearchRequest{.dtw = true, .dtw_band = 6},
         {BruteForceDtwNn(oracle, query, 6)}}};
    for (const auto& [request, truth] : exact) {
      auto want = (*built)->Search(query, request);
      auto got = (*restored)->Search(query, request);
      ASSERT_TRUE(want.ok() && got.ok());
      const std::string label = "messi q" + std::to_string(q) + " k" +
                                std::to_string(request.k) +
                                (request.dtw ? " dtw" : " ed");
      ExpectSameResponse(*want, *got, label);
      ExpectSameResponse(SearchResponse{.neighbors = truth}, *got,
                         label + " (oracle)");
    }
    // Approximate search is index-only; compare built vs restored.
    SearchRequest approx;
    approx.approximate = true;
    auto want = (*built)->Search(query, approx);
    auto got = (*restored)->Search(query, approx);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameResponse(*want, *got, "messi approx");
  }
  std::remove(data_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, ParisRoundtripAnswersIdentically) {
  const Dataset data = MakeData();
  const std::string data_path = WriteDataFile(data, "paris_rt.psax");
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 6, data.length(), 33);

  for (const Algorithm algorithm :
       {Algorithm::kParis, Algorithm::kParisPlus}) {
    const std::string snap_path =
        TempPath(std::string("paris_rt_") + AlgorithmName(algorithm) +
                 ".snap");
    auto built = Engine::Build(SourceSpec::Borrowed(&data),
                               BaseOptions(algorithm));
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Save(snap_path).ok());

    auto restored = Engine::Open(snap_path, data_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // The snapshot remembers ParIS vs ParIS+.
    EXPECT_EQ((*restored)->algorithm(), algorithm);
    ASSERT_NE((*restored)->paris_index(), nullptr);
    EXPECT_TRUE((*restored)->paris_index()->tree().CheckInvariants().ok());

    const InMemorySource oracle(&data);
    for (SeriesId q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      auto want = (*built)->Search(query);
      auto got = (*restored)->Search(query);
      ASSERT_TRUE(want.ok() && got.ok());
      const std::string label =
          std::string(AlgorithmName(algorithm)) + " q" + std::to_string(q);
      ExpectSameResponse(*want, *got, label);
      ExpectSameResponse(
          SearchResponse{.neighbors = {BruteForceNn(
                             oracle, query, (*built)->options().kernel)}},
          *got, label + " (oracle)");

      SearchRequest approx;
      approx.approximate = true;
      auto want_a = (*built)->Search(query, approx);
      auto got_a = (*restored)->Search(query, approx);
      ASSERT_TRUE(want_a.ok() && got_a.ok());
      ExpectSameResponse(*want_a, *got_a, label + " approx");
    }
    std::remove(snap_path.c_str());
  }
  std::remove(data_path.c_str());
}

TEST(SnapshotTest, OnDiskParisSnapshotInlinesFlushedLeaves) {
  // An on-disk ParIS+ build materializes leaves into LeafStorage; the
  // snapshot must inline those chunks so the restored index works
  // without the .leaves file.
  const Dataset data = MakeData(800, 48);
  const std::string data_path = WriteDataFile(data, "paris_disk.psax");
  const std::string snap_path = TempPath("paris_disk.snap");

  EngineOptions options = BaseOptions(Algorithm::kParisPlus);
  options.leaf_storage_path = TempPath("paris_disk.leaves");
  auto built = Engine::Build(SourceSpec::File(data_path), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT((*built)->paris_index()->build_stats().leaf_chunks_flushed,
            0u);
  ASSERT_TRUE((*built)->Save(snap_path).ok());
  // The restored index must not depend on the leaf file.
  std::remove(options.leaf_storage_path.c_str());

  auto restored = Engine::Open(snap_path, data_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 5, data.length(), 37);
  for (SeriesId q = 0; q < queries.count(); ++q) {
    auto want = (*built)->Search(queries.series(q));
    auto got = (*restored)->Search(queries.series(q));
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameResponse(*want, *got, "paris ondisk q" + std::to_string(q));
  }
  std::remove(data_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, RestoredEngineServesThroughQueryService) {
  const Dataset data = MakeData(900, 48);
  const std::string data_path = WriteDataFile(data, "serve_rt.psax");
  const std::string snap_path = TempPath("serve_rt.snap");
  auto built = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(snap_path).ok());
  auto restored = Engine::Open(snap_path, data_path);
  ASSERT_TRUE(restored.ok());

  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 12, data.length(), 41);
  std::vector<SeriesView> views;
  for (SeriesId q = 0; q < queries.count(); ++q) {
    views.push_back(queries.series(q));
  }
  auto batch = (*restored)->SearchBatch(views);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.count());
  for (size_t q = 0; q < views.size(); ++q) {
    auto want = (*built)->Search(views[q]);
    ASSERT_TRUE(want.ok());
    ExpectSameResponse(*want, (*batch)[q], "serve q" + std::to_string(q));
  }
  std::remove(data_path.c_str());
  std::remove(snap_path.c_str());
}

// --- header / metadata ------------------------------------------------

TEST(SnapshotTest, ReadSnapshotInfoReportsShape) {
  const Dataset data = MakeData(600, 32);
  const std::string data_path = WriteDataFile(data, "info.psax");
  // The header's algorithm byte is part of the format: existing
  // snapshots carry these values, so they are pinned as literals.
  const struct {
    Algorithm algorithm;
    uint8_t byte;
    SnapshotKind kind;
  } cases[] = {{Algorithm::kMessi, 6, SnapshotKind::kMessi},
               {Algorithm::kParis, 4, SnapshotKind::kParis},
               {Algorithm::kParisPlus, 5, SnapshotKind::kParis}};
  for (const auto& c : cases) {
    const std::string name = AlgorithmName(c.algorithm);
    const std::string snap_path = TempPath("info_" + name + ".snap");
    auto built = Engine::Build(SourceSpec::Borrowed(&data),
                               BaseOptions(c.algorithm));
    ASSERT_TRUE(built.ok()) << name;
    ASSERT_TRUE((*built)->Save(snap_path).ok()) << name;

    auto info = ReadSnapshotInfo(snap_path);
    ASSERT_TRUE(info.ok()) << name << ": " << info.status().ToString();
    EXPECT_EQ(info->version, kSnapshotVersion);
    EXPECT_EQ(info->kind, c.kind) << name;
    EXPECT_EQ(info->algorithm, c.byte) << name;
    EXPECT_EQ(info->tree.segments, 8);
    EXPECT_EQ(info->tree.leaf_capacity, 16u);
    EXPECT_EQ(info->tree.series_length, data.length());
    EXPECT_EQ(info->series_count, data.count());
    EXPECT_EQ(info->total_entries, data.count());
    EXPECT_GT(info->subtree_count, 0u);

    // The two-argument Open takes the label from that byte.
    auto restored = Engine::Open(snap_path, data_path);
    ASSERT_TRUE(restored.ok()) << name << ": "
                               << restored.status().ToString();
    EXPECT_EQ((*restored)->algorithm(), c.algorithm) << name;
    std::remove(snap_path.c_str());
  }
  std::remove(data_path.c_str());
}

TEST(SnapshotTest, LoadRejectsKindMismatch) {
  const Dataset data = MakeData(400, 32);
  const std::string data_path = WriteDataFile(data, "kind.psax");
  const std::string snap_path = TempPath("kind.snap");
  auto built = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(snap_path).ok());

  auto source = MmapSource::Open(data_path);
  ASSERT_TRUE(source.ok());
  InlineExecutor exec;
  auto loaded = LoadParisIndex(snap_path, std::move(*source), &exec);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(data_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, LoadRejectsMismatchedRawSource) {
  const Dataset data = MakeData(500, 32);
  const Dataset other = MakeData(200, 32, 99);
  const std::string data_path = WriteDataFile(data, "shape_a.psax");
  const std::string other_path = WriteDataFile(other, "shape_b.psax");
  const std::string snap_path = TempPath("shape.snap");
  auto built = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(snap_path).ok());

  // Opening against the wrong raw file must fail loudly, not answer
  // queries against unrelated data.
  auto restored = Engine::Open(snap_path, other_path);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  std::remove(data_path.c_str());
  std::remove(other_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, OpenWithExplicitAlgorithmEnforcesMatch) {
  const Dataset data = MakeData(400, 32);
  const std::string data_path = WriteDataFile(data, "algo_match.psax");
  const std::string snap_path = TempPath("algo_match.snap");
  auto built = Engine::Build(SourceSpec::Borrowed(&data),
                             BaseOptions(Algorithm::kMessi));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(snap_path).ok());

  // Explicit options bind options.algorithm: a mismatch with what the
  // snapshot records is an error, never a silent override.
  auto mismatched = Engine::Open(snap_path, data_path,
                                 BaseOptions(Algorithm::kParisPlus));
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  auto matched = Engine::Open(snap_path, data_path,
                              BaseOptions(Algorithm::kMessi));
  EXPECT_TRUE(matched.ok()) << matched.status().ToString();

  // The two-argument overload accepts whatever the snapshot holds.
  auto any = Engine::Open(snap_path, data_path);
  ASSERT_TRUE(any.ok());
  EXPECT_EQ((*any)->algorithm(), Algorithm::kMessi);
  std::remove(data_path.c_str());
  std::remove(snap_path.c_str());
}

// --- corruption handling ----------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parallel ctest runs every case of this fixture as its own process;
    // the scratch files must be distinct per case or the processes race.
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    data_ = MakeData(700, 32);
    data_path_ = WriteDataFile(data_, "corrupt_" + unique + ".psax");
    snap_path_ = TempPath("corrupt_" + unique + ".snap");
    auto built =
        Engine::Build(SourceSpec::Borrowed(&data_),
                      BaseOptions(Algorithm::kMessi));
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Save(snap_path_).ok());
    bytes_ = ReadAll(snap_path_);
    ASSERT_GT(bytes_.size(), 100u);
  }

  void TearDown() override {
    std::remove(data_path_.c_str());
    std::remove(snap_path_.c_str());
    std::remove(mutated_path_.c_str());
  }

  /// Writes `mutated` to a scratch snapshot and returns the load result.
  Status TryLoad(const std::vector<uint8_t>& mutated) {
    mutated_path_ = snap_path_ + ".mutated";
    WriteAll(mutated_path_, mutated);
    auto restored = Engine::Open(mutated_path_, data_path_);
    return restored.status();
  }

  Dataset data_;
  std::string data_path_;
  std::string snap_path_;
  std::string mutated_path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncatedFilesFailCleanly) {
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{63}, size_t{64}, size_t{100},
        bytes_.size() / 2, bytes_.size() - 1}) {
    std::vector<uint8_t> truncated(bytes_.begin(),
                                   bytes_.begin() + keep);
    const Status status = TryLoad(truncated);
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "kept " << keep << " bytes: " << status.ToString();
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicFailsCleanly) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] ^= 0xFF;
  const Status status = TryLoad(mutated);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, WrongVersionIsNotSupported) {
  std::vector<uint8_t> mutated = bytes_;
  const uint32_t future_version = kSnapshotVersion + 7;
  std::memcpy(mutated.data() + 8, &future_version, 4);
  // Re-seal the header so the version check (not the CRC) fires: this is
  // the "newer writer, older reader" case.
  const uint32_t crc = Crc32(mutated.data(), 60);
  std::memcpy(mutated.data() + 60, &crc, 4);
  const Status status = TryLoad(mutated);
  EXPECT_EQ(status.code(), StatusCode::kNotSupported);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, FlippedHeaderByteFailsChecksum) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[30] ^= 0x01;  // series_count field
  const Status status = TryLoad(mutated);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, FlippedBodyByteFailsChecksum) {
  for (const size_t at : {size_t{70}, bytes_.size() / 2,
                          bytes_.size() - 5}) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[at] ^= 0x40;
    const Status status = TryLoad(mutated);
    EXPECT_FALSE(status.ok()) << "flipped byte " << at;
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "flipped byte " << at << ": " << status.ToString();
  }
}

TEST_F(SnapshotCorruptionTest, FlippedTrailerChecksumByteFailsCleanly) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[mutated.size() - 2] ^= 0x10;
  const Status status = TryLoad(mutated);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, MissingSnapshotIsNotFound) {
  auto restored =
      Engine::Open(TempPath("never_written.snap"), data_path_);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace parisax
