// Tests for the scan baselines (brute force, UCR Suite serial/parallel/
// on-disk, DTW scans) and the KnnHeap.
#include "scan/ucr_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>

#include "index/knn_heap.h"
#include "io/format.h"
#include "io/generator.h"

namespace parisax {
namespace {

Dataset MakeData(size_t count = 2000, size_t length = 64,
                 uint64_t seed = 51,
                 DatasetKind kind = DatasetKind::kRandomWalk) {
  GeneratorOptions gen;
  gen.kind = kind;
  gen.count = count;
  gen.length = length;
  gen.seed = seed;
  return GenerateDataset(gen);
}

TEST(BruteForceTest, FindsPlantedNeighbor) {
  Dataset data = MakeData(500);
  // Plant an exact duplicate of the query at position 123.
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 51);
  const SeriesView q = queries.series(0);
  std::copy(q.begin(), q.end(), data.mutable_series(123).begin());
  const Neighbor nn = BruteForceNn(InMemorySource(&data), q);
  EXPECT_EQ(nn.id, 123u);
  EXPECT_FLOAT_EQ(nn.distance_sq, 0.0f);
}

TEST(BruteForceTest, KnnIsSortedPrefixOfFullRanking) {
  const Dataset data = MakeData(400);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 51);
  const SeriesView q = queries.series(0);
  const auto k10 = BruteForceKnn(InMemorySource(&data), q, 10);
  const auto k50 = BruteForceKnn(InMemorySource(&data), q, 50);
  ASSERT_EQ(k10.size(), 10u);
  ASSERT_EQ(k50.size(), 50u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(k10[i].id, k50[i].id);
    EXPECT_EQ(k10[i].distance_sq, k50[i].distance_sq);
  }
  for (size_t i = 1; i < k50.size(); ++i) {
    EXPECT_LE(k50[i - 1].distance_sq, k50[i].distance_sq);
  }
}

TEST(BruteForceTest, KnnClampsToCollectionSize) {
  const Dataset data = MakeData(7);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 51);
  EXPECT_EQ(
      BruteForceKnn(InMemorySource(&data), queries.series(0), 100).size(),
      7u);
}

constexpr DatasetKind kAllKinds[] = {DatasetKind::kRandomWalk,
                                     DatasetKind::kSaldEeg,
                                     DatasetKind::kSeismicBurst};

TEST(UcrScanTest, SerialMatchesBruteForceAndAbandons) {
  for (const DatasetKind kind : kAllKinds) {
    const Dataset data = MakeData(2000, 64, 51, kind);
    const Dataset queries = GenerateQueries(kind, 6, 64, 51);
    for (size_t q = 0; q < queries.count(); ++q) {
      const SeriesView query = queries.series(q);
      const Neighbor oracle =
          BruteForceNn(InMemorySource(&data), query, KernelPolicy::kScalar);
      ScanStats stats;
      const Neighbor got =
          UcrScanSerial(InMemorySource(&data), query, &stats);
      EXPECT_NEAR(got.distance_sq, oracle.distance_sq,
                  1e-3f * std::max(1.0f, oracle.distance_sq))
          << DatasetKindName(kind);
      EXPECT_EQ(stats.distance_calcs, data.count());
      // Early abandoning must fire on the vast majority of candidates.
      EXPECT_GT(stats.abandoned, data.count() / 2) << DatasetKindName(kind);
    }
  }
}

TEST(UcrScanTest, ParallelMatchesSerialAcrossThreadCounts) {
  for (const DatasetKind kind : kAllKinds) {
    const Dataset data = MakeData(2000, 64, 51, kind);
    const Dataset queries = GenerateQueries(kind, 4, 64, 51);
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      for (size_t q = 0; q < queries.count(); ++q) {
        const SeriesView query = queries.series(q);
        const Neighbor serial = UcrScanSerial(InMemorySource(&data), query);
        const Neighbor parallel =
            UcrScanParallel(InMemorySource(&data), query, &pool);
        EXPECT_NEAR(parallel.distance_sq, serial.distance_sq,
                    1e-3f * std::max(1.0f, serial.distance_sq))
            << DatasetKindName(kind) << " threads=" << threads;
      }
    }
  }
}

TEST(UcrScanTest, DiskScanMatchesInMemory) {
  const Dataset data = MakeData(800);
  const std::string path = ::testing::TempDir() + "/ucr_disk.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 51);
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor mem = UcrScanSerial(InMemorySource(&data), query);
    ScanStats stats;
    auto source = FileSource::Open(path, DiskProfile::Instant());
    ASSERT_TRUE(source.ok());
    auto disk = UcrScanStream(**source, query, 128, &stats);
    ASSERT_TRUE(disk.ok());
    EXPECT_NEAR(disk->distance_sq, mem.distance_sq,
                1e-3f * std::max(1.0f, mem.distance_sq));
    EXPECT_EQ(stats.distance_calcs, data.count());
  }
}

TEST(UcrScanTest, DiskScanRejectsWrongLength) {
  const Dataset data = MakeData(50);
  const std::string path = ::testing::TempDir() + "/ucr_len.psax";
  ASSERT_TRUE(WriteDataset(data, path).ok());
  std::vector<float> query(32, 0.0f);
  auto source = FileSource::Open(path, DiskProfile::Instant());
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE(
      UcrScanStream(**source, SeriesView(query.data(), 32)).ok());
}

TEST(UcrScanTest, EmptyDatasetReturnsInfinity) {
  const Dataset data(0, 64);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 1, 64, 51);
  const Neighbor nn = UcrScanSerial(InMemorySource(&data), queries.series(0));
  EXPECT_TRUE(std::isinf(nn.distance_sq));
  ThreadPool pool(2);
  const Neighbor pnn =
      UcrScanParallel(InMemorySource(&data), queries.series(0), &pool);
  EXPECT_TRUE(std::isinf(pnn.distance_sq));
}

TEST(DtwScanTest, SerialAndParallelMatchBruteForceDtw) {
  const Dataset data = MakeData(600);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 51);
  const size_t band = 6;
  ThreadPool pool(3);
  for (size_t q = 0; q < queries.count(); ++q) {
    const SeriesView query = queries.series(q);
    const Neighbor oracle = BruteForceDtwNn(InMemorySource(&data), query, band);
    ScanStats s1, s2;
    const Neighbor serial =
        DtwScanSerial(InMemorySource(&data), query, band, &s1);
    const Neighbor parallel = DtwScanParallel(InMemorySource(&data), query,
                                              band, &pool, &s2);
    // The same neighbor at the same float: pruning on LB_Keogh and on the
    // cascade never changes an answer.
    EXPECT_EQ(serial.id, oracle.id);
    EXPECT_EQ(std::bit_cast<uint32_t>(serial.distance_sq),
              std::bit_cast<uint32_t>(oracle.distance_sq));
    EXPECT_EQ(parallel.id, oracle.id);
    EXPECT_EQ(std::bit_cast<uint32_t>(parallel.distance_sq),
              std::bit_cast<uint32_t>(oracle.distance_sq));
    // LB_Keogh must prune a meaningful share of full DTW computations.
    EXPECT_LT(s1.distance_calcs, data.count());
  }
}

TEST(DtwScanTest, DtwNeverWorseThanEuclideanNeighbor) {
  const Dataset data = MakeData(300);
  const Dataset queries =
      GenerateQueries(DatasetKind::kRandomWalk, 3, 64, 51);
  for (size_t q = 0; q < queries.count(); ++q) {
    const Neighbor ed = UcrScanSerial(InMemorySource(&data), queries.series(q));
    const Neighbor dtw =
        DtwScanSerial(InMemorySource(&data), queries.series(q), 6);
    // DTW distance of the DTW-NN <= ED distance of the ED-NN.
    EXPECT_LE(dtw.distance_sq, ed.distance_sq * (1.0f + 1e-4f));
  }
}

// --- KnnHeap -----------------------------------------------------------------

TEST(KnnHeapTest, KeepsTheKSmallest) {
  KnnHeap heap(3);
  EXPECT_TRUE(std::isinf(heap.Bound()));
  for (const float d : {9.0f, 1.0f, 5.0f, 3.0f, 7.0f, 2.0f}) {
    heap.Update({static_cast<SeriesId>(d * 10), d});
  }
  EXPECT_FLOAT_EQ(heap.Bound(), 3.0f);
  const auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_FLOAT_EQ(sorted[0].distance_sq, 1.0f);
  EXPECT_FLOAT_EQ(sorted[1].distance_sq, 2.0f);
  EXPECT_FLOAT_EQ(sorted[2].distance_sq, 3.0f);
}

TEST(KnnHeapTest, RejectsDuplicateIds) {
  KnnHeap heap(5);
  heap.Update({7, 1.0f});
  heap.Update({7, 1.0f});
  heap.Update({7, 0.5f});
  EXPECT_EQ(heap.Sorted().size(), 1u);
}

TEST(KnnHeapTest, DuplicateOfWorstIsRejectedWhenFull) {
  KnnHeap heap(2);
  heap.Update({1, 1.0f});
  heap.Update({2, 2.0f});
  // Same id and same distance as the current worst: ties the bound, so
  // it passes the lock-free reject and must be caught by the duplicate
  // scan, not evict its own twin.
  heap.Update({2, 2.0f});
  const auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 1u);
  EXPECT_EQ(sorted[1].id, 2u);
}

TEST(KnnHeapTest, EqualDistanceSmallerIdStillReplacesWorst) {
  // The lock-free reject compares with strict >: a candidate tying the
  // k-th distance with a smaller id must still get through and win the
  // (distance, id) tie-break.
  KnnHeap heap(2);
  heap.Update({1, 1.0f});
  heap.Update({9, 2.0f});
  heap.Update({4, 2.0f});
  const auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[1].id, 4u);
}

TEST(KnnHeapTest, BoundStaysExactThroughFastRejects) {
  KnnHeap heap(3);
  heap.Update({1, 1.0f});
  heap.Update({2, 2.0f});
  heap.Update({3, 3.0f});
  heap.Update({4, 10.0f});  // above the bound: fast-rejected
  EXPECT_FLOAT_EQ(heap.Bound(), 3.0f);
  heap.Update({5, 0.5f});  // improves: bound shrinks to the new k-th
  EXPECT_FLOAT_EQ(heap.Bound(), 2.0f);
  heap.Update({5, 0.1f});  // duplicate under the bound: still refused
  EXPECT_FLOAT_EQ(heap.Bound(), 2.0f);
}

TEST(KnnHeapTest, ConcurrentUpdatesKeepGlobalKSmallest) {
  constexpr size_t kK = 16;
  KnnHeap heap(kK);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i;
        heap.Update({id, static_cast<float>(id)});
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(sorted[i].id, i);
    EXPECT_FLOAT_EQ(sorted[i].distance_sq, static_cast<float>(i));
  }
}

}  // namespace
}  // namespace parisax
