// Tests for the dataset file format, generators, simulated disk and the
// buffered reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "dist/znorm.h"
#include "index/raw_source.h"
#include "io/format.h"
#include "io/generator.h"
#include "io/mmap_source.h"
#include "io/reader.h"
#include "io/sim_disk.h"
#include "util/threading.h"
#include "util/timer.h"

namespace parisax {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset SmallDataset(size_t count = 100, size_t length = 32,
                     uint64_t seed = 1) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

// --- format --------------------------------------------------------------

TEST(FormatTest, WriteLoadRoundTrip) {
  const Dataset original = SmallDataset(123, 40);
  const std::string path = TempPath("fmt_roundtrip.psax");
  ASSERT_TRUE(WriteDataset(original, path).ok());

  auto info = ReadDatasetInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, 123u);
  EXPECT_EQ(info->length, 40u);
  EXPECT_EQ(info->flags & kDatasetFlagZNormalized, kDatasetFlagZNormalized);

  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->count(), original.count());
  ASSERT_EQ(loaded->length(), original.length());
  for (SeriesId i = 0; i < original.count(); ++i) {
    const SeriesView a = original.series(i), b = loaded->series(i);
    for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(FormatTest, OffsetsMatchLayout) {
  DatasetFileInfo info;
  info.count = 10;
  info.length = 16;
  EXPECT_EQ(info.SeriesBytes(), 64u);
  EXPECT_EQ(info.SeriesOffset(0), kDatasetHeaderBytes);
  EXPECT_EQ(info.SeriesOffset(3), kDatasetHeaderBytes + 3 * 64);
  EXPECT_EQ(info.FileBytes(), kDatasetHeaderBytes + 640);
}

TEST(FormatTest, RejectsMissingFile) {
  EXPECT_EQ(ReadDatasetInfo(TempPath("does_not_exist.psax")).status().code(),
            StatusCode::kNotFound);
}

TEST(FormatTest, RejectsBadMagic) {
  const std::string path = TempPath("fmt_badmagic.psax");
  std::ofstream f(path, std::ios::binary);
  f << "NOTPSAXFILE.....garbage.....padding to be long enough";
  f.close();
  EXPECT_EQ(ReadDatasetInfo(path).status().code(), StatusCode::kCorruption);
}

TEST(FormatTest, RejectsTruncatedPayload) {
  const Dataset original = SmallDataset(50, 32);
  const std::string path = TempPath("fmt_truncated.psax");
  ASSERT_TRUE(WriteDataset(original, path).ok());
  // Truncate the file by a few bytes.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const DatasetFileInfo info{50, 32, 0};
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(info.FileBytes() - 8)), 0);
  std::fclose(f);
  EXPECT_EQ(ReadDatasetInfo(path).status().code(), StatusCode::kCorruption);
}

TEST(FormatTest, WriterEnforcesDeclaredCount) {
  const std::string path = TempPath("fmt_writer.psax");
  DatasetFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 2, 4).ok());
  const std::vector<float> series = {1, 2, 3, 4};
  ASSERT_TRUE(writer.Append(SeriesView(series.data(), 4)).ok());
  // Wrong length rejected.
  EXPECT_FALSE(writer.Append(SeriesView(series.data(), 3)).ok());
  // Early close rejected.
  EXPECT_FALSE(writer.Close().ok());
}

TEST(FormatTest, WriterRejectsExtraAppends) {
  const std::string path = TempPath("fmt_writer2.psax");
  DatasetFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 1, 4).ok());
  const std::vector<float> series = {1, 2, 3, 4};
  ASSERT_TRUE(writer.Append(SeriesView(series.data(), 4)).ok());
  EXPECT_FALSE(writer.Append(SeriesView(series.data(), 4)).ok());
  EXPECT_TRUE(writer.Close().ok());
  EXPECT_TRUE(ReadDatasetInfo(path).ok());
}

// --- generators -----------------------------------------------------------

TEST(GeneratorTest, DeterministicPerSeedAndIndex) {
  const Dataset a = SmallDataset(50, 64, 99);
  const Dataset b = SmallDataset(50, 64, 99);
  for (SeriesId i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 64; ++j) {
      ASSERT_EQ(a.series(i)[j], b.series(i)[j]) << "i=" << i << " j=" << j;
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const Dataset a = SmallDataset(10, 64, 1);
  const Dataset b = SmallDataset(10, 64, 2);
  bool any_diff = false;
  for (size_t j = 0; j < 64; ++j) any_diff |= a.series(0)[j] != b.series(0)[j];
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, ParallelGenerationMatchesSerial) {
  GeneratorOptions gen;
  gen.count = 1000;
  gen.length = 48;
  gen.seed = 7;
  const Dataset serial = GenerateDataset(gen);
  ThreadPool pool(4);
  const Dataset parallel = GenerateDataset(gen, &pool);
  for (SeriesId i = 0; i < gen.count; ++i) {
    for (size_t j = 0; j < gen.length; ++j) {
      ASSERT_EQ(serial.series(i)[j], parallel.series(i)[j]);
    }
  }
}

TEST(GeneratorTest, AllKindsAreZNormalized) {
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
        DatasetKind::kSeismicBurst}) {
    GeneratorOptions gen;
    gen.kind = kind;
    gen.count = 30;
    gen.length = DefaultSeriesLength(kind);
    const Dataset data = GenerateDataset(gen);
    for (SeriesId i = 0; i < data.count(); ++i) {
      EXPECT_TRUE(IsZNormalized(data.series(i), 5e-3))
          << DatasetKindName(kind) << " series " << i;
    }
  }
}

TEST(GeneratorTest, QueriesAreDisjointFromData) {
  const uint64_t seed = 11;
  const Dataset data = SmallDataset(50, 32, seed);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 50, 32, seed);
  // Same index in both streams must differ (different seed stream).
  bool differs = false;
  for (size_t j = 0; j < 32; ++j) {
    differs |= data.series(0)[j] != queries.series(0)[j];
  }
  EXPECT_TRUE(differs);
}

TEST(GeneratorTest, PerturbedQueriesStayNearTheirSourceMembers) {
  // Each perturbed query must be z-normalized and much closer to *some*
  // dataset member than a fresh draw would be.
  const uint64_t seed = 77;
  const size_t count = 200, length = 64;
  const Dataset data = SmallDataset(count, length, seed);
  const Dataset perturbed = GeneratePerturbedQueries(
      DatasetKind::kRandomWalk, 10, length, seed, count, 0.1);
  const Dataset fresh =
      GenerateQueries(DatasetKind::kRandomWalk, 10, length, seed);

  auto nearest_sq = [&](SeriesView q) {
    float best = 1e30f;
    for (SeriesId i = 0; i < data.count(); ++i) {
      float sum = 0.0f;
      for (size_t j = 0; j < length; ++j) {
        const float d = q[j] - data.series(i)[j];
        sum += d * d;
      }
      best = std::min(best, sum);
    }
    return best;
  };

  double perturbed_mean = 0.0, fresh_mean = 0.0;
  for (SeriesId q = 0; q < 10; ++q) {
    EXPECT_TRUE(IsZNormalized(perturbed.series(q), 5e-3));
    perturbed_mean += std::sqrt(nearest_sq(perturbed.series(q)));
    fresh_mean += std::sqrt(nearest_sq(fresh.series(q)));
  }
  EXPECT_LT(perturbed_mean * 2.0, fresh_mean)
      << "perturbed queries should sit far closer to the collection";
}

TEST(GeneratorTest, PerturbedQueriesAreDeterministic) {
  const Dataset a = GeneratePerturbedQueries(DatasetKind::kSeismicBurst, 5,
                                             96, 9, 100, 0.25);
  const Dataset b = GeneratePerturbedQueries(DatasetKind::kSeismicBurst, 5,
                                             96, 9, 100, 0.25);
  for (SeriesId q = 0; q < 5; ++q) {
    for (size_t j = 0; j < 96; ++j) {
      ASSERT_EQ(a.series(q)[j], b.series(q)[j]);
    }
  }
}

TEST(GeneratorTest, KindNamesRoundTrip) {
  for (const DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kSaldEeg,
        DatasetKind::kSeismicBurst}) {
    auto parsed = ParseDatasetKind(DatasetKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseDatasetKind("bogus").ok());
  // "synthetic" is an accepted alias for the paper's dataset name.
  auto alias = ParseDatasetKind("synthetic");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, DatasetKind::kRandomWalk);
}

// --- simulated disk --------------------------------------------------------

TEST(SimDiskTest, ReadsBytesFaithfully) {
  const Dataset data = SmallDataset(64, 32);
  const std::string path = TempPath("disk_faithful.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  auto disk = SimulatedDisk::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(disk.ok());

  DatasetFileInfo info{64, 32, 0};
  std::vector<float> buf(32);
  for (const SeriesId id : {0ul, 7ul, 63ul}) {
    ASSERT_TRUE((*disk)
                    ->ReadAt(info.SeriesOffset(id), buf.data(),
                             info.SeriesBytes())
                    .ok());
    for (size_t j = 0; j < 32; ++j) EXPECT_EQ(buf[j], data.series(id)[j]);
  }
  EXPECT_EQ((*disk)->stats().read_calls, 3u);
  EXPECT_EQ((*disk)->stats().bytes_read, 3 * info.SeriesBytes());
}

TEST(SimDiskTest, RejectsOutOfRangeReads) {
  const Dataset data = SmallDataset(4, 8);
  const std::string path = TempPath("disk_range.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  auto disk = SimulatedDisk::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(disk.ok());
  char buf[16];
  EXPECT_FALSE((*disk)->ReadAt((*disk)->file_size() - 4, buf, 16).ok());
}

TEST(SimDiskTest, ThroughputMeteringSlowsReads) {
  const Dataset data = SmallDataset(256, 64);  // 64 KB payload
  const std::string path = TempPath("disk_throughput.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  DiskProfile slow;
  slow.name = "slow";
  slow.seq_read_mbps = 1.0;  // 64 KB at 1 MB/s ~ 62 ms
  slow.seek_latency_us = 0.0;
  auto disk = SimulatedDisk::Open(path, slow);
  ASSERT_TRUE(disk.ok());

  std::vector<char> buf(64 * 1024);
  WallTimer timer;
  ASSERT_TRUE((*disk)->ReadAt(kDatasetHeaderBytes, buf.data(), buf.size())
                  .ok());
  EXPECT_GT(timer.ElapsedSeconds(), 0.04);
  EXPECT_GT((*disk)->stats().simulated_busy_seconds, 0.04);
}

TEST(SimDiskTest, SeeksAreChargedAndCounted) {
  const Dataset data = SmallDataset(100, 64);
  const std::string path = TempPath("disk_seeks.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  DiskProfile seeky;
  seeky.name = "seeky";
  seeky.seq_read_mbps = 10000.0;
  seeky.seek_latency_us = 5000.0;  // 5 ms
  seeky.contiguity_window_bytes = 0;
  auto disk = SimulatedDisk::Open(path, seeky);
  ASSERT_TRUE(disk.ok());

  DatasetFileInfo info{100, 64, 0};
  std::vector<float> buf(64);
  WallTimer timer;
  // Alternate between far-apart series: every read is a seek.
  for (int i = 0; i < 6; ++i) {
    const SeriesId id = (i % 2 == 0) ? 0 : 90;
    ASSERT_TRUE((*disk)
                    ->ReadAt(info.SeriesOffset(id), buf.data(),
                             info.SeriesBytes())
                    .ok());
  }
  EXPECT_GE((*disk)->stats().seeks, 5u);
  EXPECT_GT(timer.ElapsedSeconds(), 0.02);
}

TEST(SimDiskTest, ContiguityWindowSkipsSeekCharge) {
  const Dataset data = SmallDataset(100, 64);
  const std::string path = TempPath("disk_contig.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  DiskProfile profile;
  profile.name = "hddish";
  profile.seq_read_mbps = 10000.0;
  profile.seek_latency_us = 5000.0;
  profile.contiguity_window_bytes = 1 << 20;  // everything is "close"
  auto disk = SimulatedDisk::Open(path, profile);
  ASSERT_TRUE(disk.ok());

  DatasetFileInfo info{100, 64, 0};
  std::vector<float> buf(64);
  // Forward skip-sequential reads: no seek charges.
  for (SeriesId id = 0; id < 100; id += 7) {
    ASSERT_TRUE((*disk)
                    ->ReadAt(info.SeriesOffset(id), buf.data(),
                             info.SeriesBytes())
                    .ok());
  }
  EXPECT_EQ((*disk)->stats().seeks, 0u);
}

TEST(SimDiskTest, SingleChannelSerializesConcurrentReaders) {
  const Dataset data = SmallDataset(64, 64);
  const std::string path = TempPath("disk_channels.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  DiskProfile hdd1;
  hdd1.seq_read_mbps = 10000.0;
  hdd1.seek_latency_us = 2000.0;  // 2 ms per random read
  hdd1.channels = 1;
  auto disk = SimulatedDisk::Open(path, hdd1);
  ASSERT_TRUE(disk.ok());

  DatasetFileInfo info{64, 64, 0};
  constexpr int kThreads = 4, kReadsPerThread = 5;
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> buf(64);
      for (int i = 0; i < kReadsPerThread; ++i) {
        const SeriesId id = (t * 17 + i * 29) % 64;
        ASSERT_TRUE((*disk)
                        ->ReadAt(info.SeriesOffset(id), buf.data(),
                                 info.SeriesBytes())
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // 20 random reads x 2 ms on one channel must take >= ~40 ms of wall
  // time even with 4 "concurrent" readers.
  EXPECT_GT(timer.ElapsedSeconds(), 0.030);
}

// Each reader thread keeps a channel of its own: four threads that
// each read one forward run, all at once, on an 8-channel device pay
// one seek each. Two threads sharing a channel would interleave their
// runs on one head and seek on nearly every read.
TEST(SimDiskTest, ReaderThreadsTakeDistinctChannels) {
  constexpr int kThreads = 4, kRun = 48;
  constexpr SeriesId kRegion = 64;  // runs are 16 series apart
  const Dataset data = SmallDataset(kThreads * kRegion, 64);
  const std::string path = TempPath("disk_thread_channels.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  DiskProfile ssd;
  ssd.name = "ssd8";
  ssd.seq_read_mbps = 12.8;  // about 19 us per 256-byte series
  ssd.seek_latency_us = 100.0;
  ssd.channels = 8;
  ssd.contiguity_window_bytes = 0;
  auto disk = SimulatedDisk::Open(path, ssd);
  ASSERT_TRUE(disk.ok());

  const DatasetFileInfo info{data.count(), 64, 0};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      std::vector<float> buf(64);
      // Never from offset 0, where a fresh channel's head starts.
      const SeriesId first = t * kRegion + 1;
      for (SeriesId id = first; id < first + kRun; ++id) {
        ASSERT_TRUE((*disk)
                        ->ReadAt(info.SeriesOffset(id), buf.data(),
                                 info.SeriesBytes())
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ((*disk)->stats().seeks, static_cast<uint64_t>(kThreads));
  EXPECT_EQ((*disk)->stats().read_calls,
            static_cast<uint64_t>(kThreads * kRun));
  std::remove(path.c_str());
}

TEST(SimDiskTest, ProfilesHaveExpectedShape) {
  const DiskProfile hdd = DiskProfile::Hdd();
  const DiskProfile ssd = DiskProfile::Ssd();
  EXPECT_TRUE(hdd.metered());
  EXPECT_TRUE(ssd.metered());
  EXPECT_GT(ssd.seq_read_mbps, hdd.seq_read_mbps);
  EXPECT_LT(ssd.seek_latency_us, hdd.seek_latency_us);
  EXPECT_GT(ssd.channels, hdd.channels);
  EXPECT_FALSE(DiskProfile::Instant().metered());
}

// --- file source ------------------------------------------------------------

/// Rows [first, first + count) of `data` as their own collection.
Dataset Rows(const Dataset& data, size_t first, size_t count) {
  Dataset out(count, data.length());
  for (size_t i = 0; i < count; ++i) {
    const SeriesView src = data.series(first + i);
    std::copy(src.begin(), src.end(), out.mutable_series(i).begin());
  }
  return out;
}

// A FileSource grows its file in place under the device its reads go
// through: readers of the old rows (and of the newest row the count
// admits) never see a failed or torn read while the main thread
// appends, and the device, with its counters, stays the same.
TEST(FileSourceTest, GrowsInPlaceUnderConcurrentReads) {
  constexpr size_t kLength = 32, kOld = 200, kBatch = 100, kBatches = 4;
  const Dataset data = SmallDataset(kOld + kBatch * kBatches, kLength, 5);
  const std::string path = TempPath("file_source_grow.psax");
  ASSERT_TRUE(WriteDataset(Rows(data, 0, kOld), path).ok());
  auto opened = FileSource::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FileSource* source = opened->get();
  SimulatedDisk* const disk = source->disk();

  const auto matches = [&](SeriesId id, const std::vector<Value>& got) {
    const SeriesView want = data.series(id);
    return std::equal(want.begin(), want.end(), got.begin());
  };
  std::vector<Value> buf(kLength);
  uint64_t reads = 0;
  for (SeriesId id = 0; id < kOld; id += 20, ++reads) {
    ASSERT_TRUE(source->GetSeries(id, buf.data()).ok());
  }
  ASSERT_EQ(disk->stats().read_calls, reads);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_reads{0};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<Value> out(kLength);
      uint64_t n = 0;
      for (SeriesId i = r; !stop.load(std::memory_order_acquire); ++i) {
        // An old row, then the newest row the current count admits.
        const SeriesId newest = source->count() - 1;
        for (const SeriesId id : {i % kOld, newest}) {
          const Status st = source->GetSeries(id, out.data());
          if (!st.ok() || !matches(id, out)) bad_reads.fetch_add(1);
          ++n;
        }
      }
      reader_reads.fetch_add(n);
    });
  }
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t first = kOld + b * kBatch;
    const Dataset batch = Rows(data, first, kBatch);
    // EXPECT only while the readers run: they must be joined below.
    const Status appended = source->AppendSeries(batch.raw(), kBatch);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    EXPECT_EQ(source->count(), first + kBatch);
    EXPECT_EQ(source->disk(), disk);
    EXPECT_TRUE(source->GetSeries(first + kBatch - 1, buf.data()).ok());
    EXPECT_TRUE(matches(first + kBatch - 1, buf));
    ++reads;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(source->disk(), disk);
  EXPECT_EQ(disk->stats().read_calls, reads + reader_reads.load());
  EXPECT_EQ(disk->file_size(),
            (DatasetFileInfo{source->count(), kLength, 0}).FileBytes());
  std::remove(path.c_str());
}

// A dataset file truncated, or replaced by another file, under the
// source makes an append fail typed, and the count does not move.
TEST(FileSourceTest, AppendToAChangedFileIsCorruption) {
  constexpr size_t kLength = 16;
  const Dataset data = SmallDataset(120, kLength, 6);
  const Dataset batch = Rows(data, 100, 20);
  const DatasetFileInfo layout{100, kLength, 0};

  const std::string truncated = TempPath("file_source_truncated.psax");
  ASSERT_TRUE(WriteDataset(Rows(data, 0, 100), truncated).ok());
  auto source = FileSource::Open(truncated, DiskProfile::Instant());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  std::filesystem::resize_file(truncated,
                               layout.FileBytes() - 10 * layout.SeriesBytes());
  EXPECT_EQ((*source)->AppendSeries(batch.raw(), batch.count()).code(),
            StatusCode::kCorruption);
  EXPECT_EQ((*source)->count(), 100u);
  std::remove(truncated.c_str());

  const std::string replaced = TempPath("file_source_replaced.psax");
  ASSERT_TRUE(WriteDataset(Rows(data, 0, 100), replaced).ok());
  source = FileSource::Open(replaced, DiskProfile::Instant());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(WriteDataset(Rows(data, 0, 100), replaced + ".new").ok());
  std::filesystem::rename(replaced + ".new", replaced);
  EXPECT_EQ((*source)->AppendSeries(batch.raw(), batch.count()).code(),
            StatusCode::kCorruption);
  EXPECT_EQ((*source)->count(), 100u);
  std::vector<Value> buf(kLength);
  EXPECT_FALSE((*source)->GetSeries(100, buf.data()).ok());
  std::remove(replaced.c_str());
}

// --- mmap source ------------------------------------------------------------

// Reader threads call GetSeries on old rows, and on the newest row the
// count admits, while the main thread appends `data`'s rows past the
// `old` that `source` holds, in batches of `batch`: no read may fail or
// return other values, and under ThreadSanitizer no read may race the
// append's publication of the grown buffer and the count. A view taken
// before the appends still reads the old rows.
void ExpectReadsRunWhileAppendsGrow(RawSeriesSource* source,
                                    const Dataset& data, size_t old,
                                    size_t batch) {
  const size_t length = data.length();
  const Value* const first_buffer = source->ContiguousData();
  const auto matches = [&](SeriesId id, const std::vector<Value>& got) {
    const SeriesView want = data.series(id);
    return std::equal(want.begin(), want.end(), got.begin());
  };
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<Value> out(length);
      for (SeriesId i = r; !stop.load(std::memory_order_acquire); ++i) {
        const SeriesId newest = source->count() - 1;
        for (const SeriesId id : {static_cast<SeriesId>(i % old), newest}) {
          const Status st = source->GetSeries(id, out.data());
          if (!st.ok() || !matches(id, out)) bad_reads.fetch_add(1);
        }
        if (i == static_cast<SeriesId>(r)) started.fetch_add(1);
      }
    });
  }
  // Append only once every reader is reading.
  while (started.load() < 3) std::this_thread::yield();
  std::vector<Value> buf(length);
  for (size_t first = old; first + batch <= data.count(); first += batch) {
    const Dataset rows = Rows(data, first, batch);
    // EXPECT only while the readers run: they must be joined below.
    const Status appended = source->AppendSeries(rows.raw(), batch);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    EXPECT_EQ(source->count(), first + batch);
    EXPECT_TRUE(source->GetSeries(first + batch - 1, buf.data()).ok());
    EXPECT_TRUE(matches(first + batch - 1, buf));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_TRUE(std::equal(first_buffer, first_buffer + old * length,
                         data.raw()));
}

// An MmapSource maps the grown file anew on every append and keeps the
// old mappings.
TEST(MmapSourceTest, ReadsRunWhileAppendsRemap) {
  constexpr size_t kLength = 32, kOld = 200, kBatch = 50, kBatches = 4;
  const Dataset data = SmallDataset(kOld + kBatch * kBatches, kLength, 7);
  const std::string path = TempPath("mmap_source_grow.psax");
  ASSERT_TRUE(WriteDataset(Rows(data, 0, kOld), path).ok());
  auto opened = MmapSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectReadsRunWhileAppendsGrow(opened->get(), data, kOld, kBatch);
  std::remove(path.c_str());
}

// An adopting InMemorySource grows its Dataset into a new buffer and
// retires the old one.
TEST(InMemorySourceTest, ReadsRunWhileAdoptedAppendsGrow) {
  constexpr size_t kLength = 32, kOld = 200, kBatch = 50, kBatches = 4;
  const Dataset data = SmallDataset(kOld + kBatch * kBatches, kLength, 7);
  InMemorySource source(Rows(data, 0, kOld));
  ASSERT_TRUE(source.appendable());
  ExpectReadsRunWhileAppendsGrow(&source, data, kOld, kBatch);
}

// --- buffered reader --------------------------------------------------------

TEST(ReaderTest, StreamsWholeFileInBatches) {
  const Dataset data = SmallDataset(103, 24);
  const std::string path = TempPath("reader_stream.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());

  auto reader = BufferedSeriesReader::Open(path, DiskProfile::Instant(), 10);
  ASSERT_TRUE(reader.ok());
  size_t total = 0;
  for (;;) {
    SeriesBatch batch;
    ASSERT_TRUE((*reader)->NextBatch(&batch).ok());
    if (batch.empty()) break;
    ASSERT_LE(batch.count, 10u);
    EXPECT_EQ(batch.first_id, total);
    for (size_t i = 0; i < batch.count; ++i) {
      const SeriesView expect = data.series(batch.first_id + i);
      const SeriesView got = batch.series(i);
      for (size_t j = 0; j < 24; ++j) ASSERT_EQ(got[j], expect[j]);
    }
    total += batch.count;
  }
  EXPECT_EQ(total, 103u);
  // Final batch is the remainder (103 = 10*10 + 3).
}

TEST(ReaderTest, RewindRestarts) {
  const Dataset data = SmallDataset(20, 16);
  const std::string path = TempPath("reader_rewind.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  auto reader = BufferedSeriesReader::Open(path, DiskProfile::Instant(), 64);
  ASSERT_TRUE(reader.ok());
  SeriesBatch batch;
  ASSERT_TRUE((*reader)->NextBatch(&batch).ok());
  EXPECT_EQ(batch.count, 20u);
  ASSERT_TRUE((*reader)->NextBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
  (*reader)->Rewind();
  ASSERT_TRUE((*reader)->NextBatch(&batch).ok());
  EXPECT_EQ(batch.count, 20u);
  EXPECT_EQ(batch.first_id, 0u);
}

TEST(ReaderTest, RejectsZeroBatch) {
  const Dataset data = SmallDataset(4, 8);
  const std::string path = TempPath("reader_zero.psax");
  ASSERT_TRUE(WriteDataset(data, path).ok());
  EXPECT_FALSE(
      BufferedSeriesReader::Open(path, DiskProfile::Instant(), 0).ok());
}

}  // namespace
}  // namespace parisax
