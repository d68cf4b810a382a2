// Tests for the threading substrate, RNG determinism, timers and aligned
// buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"
#include "util/threading.h"
#include "util/timer.h"

namespace parisax {
namespace {

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicStreams) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsProduceDistinctStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, MixSeedIsOrderIndependentAndSpreads) {
  // Each (seed, index) pair must yield a stable, well-spread seed.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    seen.insert(MixSeed(5, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(MixSeed(5, 500), MixSeed(5, 500));
  EXPECT_NE(MixSeed(5, 500), MixSeed(6, 500));
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(rng.NextBelow(17), 17u);
  }
}

// --- AtomicMinFloat ----------------------------------------------------------

TEST(AtomicMinFloatTest, SingleThreadedSemantics) {
  AtomicMinFloat bsf(10.0f);
  EXPECT_FALSE(bsf.UpdateMin(11.0f));
  EXPECT_EQ(bsf.Load(), 10.0f);
  EXPECT_TRUE(bsf.UpdateMin(5.0f));
  EXPECT_EQ(bsf.Load(), 5.0f);
  EXPECT_FALSE(bsf.UpdateMin(5.0f));  // equal is not an improvement
  bsf.Reset(100.0f);
  EXPECT_EQ(bsf.Load(), 100.0f);
}

TEST(AtomicMinFloatTest, ConcurrentUpdatesConvergeToMinimum) {
  AtomicMinFloat bsf(1e30f);
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kPerThread; ++i) {
        bsf.UpdateMin(static_cast<float>(1.0 + rng.NextDouble() * 1000.0));
      }
      // Exactly one thread offers the global minimum late.
      if (t == 3) bsf.UpdateMin(0.5f);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bsf.Load(), 0.5f);
}

// --- WorkCounter -------------------------------------------------------------

TEST(WorkCounterTest, CoversRangeExactlyOnce) {
  WorkCounter counter(1000);
  std::vector<int> hits(1000, 0);
  size_t begin, end;
  while (counter.NextBatch(37, &begin, &end)) {
    ASSERT_LE(end, 1000u);
    for (size_t i = begin; i < end; ++i) hits[i]++;
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkCounterTest, ConcurrentClaimsArePartition) {
  WorkCounter counter(100000);
  std::atomic<uint64_t> covered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      size_t begin, end;
      uint64_t local = 0;
      while (counter.NextBatch(97, &begin, &end)) local += end - begin;
      covered.fetch_add(local);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(covered.load(), 100000u);
}

TEST(WorkCounterTest, NextItemExhausts) {
  WorkCounter counter(5);
  size_t item, n = 0;
  while (counter.NextItem(&item)) {
    EXPECT_LT(item, 5u);
    ++n;
  }
  EXPECT_EQ(n, 5u);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, RunExecutesOnAllWorkers) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(5);
  for (auto& h : hits) h = 0;
  pool.Run([&](int worker) { hits[worker].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.Run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(5000, 64, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolDeathTest, ReentrantRunAbortsEvenInRelease) {
  // The guard must hold in Release builds too (an assert would not), so
  // a nested Run has to abort rather than silently race on the task.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ThreadPool pool(2);
        pool.Run([&](int worker) {
          if (worker == 0) pool.Run([](int) {});
        });
      },
      "not reentrant");
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  int calls = 0;
  pool.Run([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// --- Executor / InlineExecutor -----------------------------------------------

TEST(InlineExecutorTest, RunsOnCallingThreadAsWorkerZero) {
  InlineExecutor exec;
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  exec.Run([&](int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(exec.num_threads(), 1);
}

TEST(InlineExecutorTest, ReentrantAndConcurrent) {
  // Unlike ThreadPool::Run, inline regions may nest and may run
  // concurrently on different threads: that is what lets N queries
  // execute at once, one per serve worker.
  InlineExecutor exec;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 100; ++round) {
        exec.Run([&](int) { exec.Run([&](int) { total.fetch_add(1); }); });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(InlineExecutorTest, ParallelForCoversRangeThroughExecutorInterface) {
  InlineExecutor exec;
  Executor* as_executor = &exec;
  std::vector<int> hits(1000, 0);
  as_executor->ParallelFor(1000, 32, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

// --- TaskGroup ---------------------------------------------------------------

TEST(TaskGroupTest, WaitReturnsImmediatelyWhenEmpty) {
  TaskGroup group;
  group.Wait();
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroupTest, WaitBlocksUntilAllDone) {
  TaskGroup group;
  constexpr int kTasks = 64;
  group.Add(kTasks);
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTasks / 4; ++i) {
        finished.fetch_add(1);
        group.Done();
      }
    });
  }
  group.Wait();
  EXPECT_EQ(finished.load(), kTasks);
  for (auto& t : threads) t.join();
}

TEST(TaskGroupTest, ReArmsAfterDraining) {
  TaskGroup group;
  for (int round = 0; round < 3; ++round) {
    group.Add();
    EXPECT_EQ(group.outstanding(), 1u);
    group.Done();
    group.Wait();
    EXPECT_EQ(group.outstanding(), 0u);
  }
}

// --- timers / aligned --------------------------------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.015);
}

TEST(TimerTest, StageAccumulatorSumsScopes) {
  StageAccumulator acc;
  {
    StageAccumulator::Scope s1(&acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    StageAccumulator::Scope s2(&acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(acc.TotalSeconds(), 0.008);
  acc.Reset();
  EXPECT_EQ(acc.TotalSeconds(), 0.0);
}

TEST(AlignedBufferTest, AlignmentAndZeroInit) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kBufferAlignment, 0u);
  for (size_t i = 0; i < 1000; ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 7;
  const int* ptr = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[3], 7);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBufferTest, EmptyBufferIsSafe) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer<double> sized(0);
  EXPECT_TRUE(sized.empty());
}

}  // namespace
}  // namespace parisax
