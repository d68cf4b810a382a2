// Tests for the annotated mutex wrappers and the debug-build runtime
// lock-rank checker (util/mutex.h, docs/concurrency.md).
//
// The death tests only run where the checker is compiled in
// (PARISAX_LOCK_RANK_CHECKS, i.e. debug builds); release builds skip
// them, since there the bookkeeping is compiled out entirely.
#include "util/mutex.h"

#include <thread>

#include "gtest/gtest.h"

namespace parisax {
namespace {

TEST(LockRankTest, IncreasingOrderIsAccepted) {
  Mutex low("test::low", LockRank::kEngineAppend);
  Mutex high("test::high", LockRank::kPool);
  SharedMutex gate("test::gate", LockRank::kServingDock);
  {
    MutexLock a(&low);
    ReaderLock g(&gate);
    MutexLock b(&high);
  }
  // Reacquirable after release, including on another thread (the held
  // set is per-thread).
  std::thread t([&] {
    MutexLock a(&low);
    WriterLock g(&gate);
  });
  t.join();
  MutexLock a(&low);
}

TEST(LockRankTest, OutOfOrderReleaseIsTracked) {
  // The checker scans the whole held set, so releasing in a different
  // order than acquiring must not confuse it.
  Mutex a("test::a", LockRank::kEngineAppend);
  Mutex b("test::b", LockRank::kCompactor);
  Mutex c("test::c", LockRank::kServingDock);
  a.Lock();
  b.Lock();
  a.Unlock();  // out of order
  c.Lock();
  c.Unlock();
  b.Unlock();
  a.Lock();  // held set must be empty again
  a.Unlock();
}

TEST(LockRankTest, CondVarWaitKeepsHeldSetAccurate) {
  Mutex mu("test::cv_mu", LockRank::kServeWake);
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
  }
  notifier.join();
  // After the wait returned, mu must be recorded as held exactly once:
  // acquiring a higher rank works, re-acquiring mu would abort.
  MutexLock lock(&mu);
  Mutex above("test::above", LockRank::kEngineAppend);
  MutexLock l2(&above);
}

#if PARISAX_LOCK_RANK_CHECKS

TEST(LockRankDeathTest, OutOfOrderAcquisitionAbortsNamingBothLocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex inner("test::inner_lock", LockRank::kServingDock);
  Mutex outer("test::outer_lock", LockRank::kEngineAppend);
  ASSERT_DEATH(
      {
        MutexLock a(&inner);
        MutexLock b(&outer);  // kEngineAppend < kServingDock: inverted
      },
      // The abort message must name both locks so the violation is
      // diagnosable from the log alone.
      "lock rank violation.*\"test::outer_lock\".*"
      "holding \"test::inner_lock\"");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu("test::recursive", LockRank::kLeaf);
  ASSERT_DEATH(
      {
        MutexLock a(&mu);
        mu.Lock();  // same rank: strict ordering rejects re-entry
      },
      "lock rank violation.*\"test::recursive\".*"
      "holding \"test::recursive\"");
}

TEST(LockRankDeathTest, SameRankPairAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two distinct locks sharing a rank may never be held together (a
  // shared rank asserts exactly that); the checker enforces it.
  Mutex a("test::same_a", LockRank::kResultMerge);
  Mutex b("test::same_b", LockRank::kResultMerge);
  ASSERT_DEATH(
      {
        MutexLock la(&a);
        MutexLock lb(&b);
      },
      "lock rank violation.*\"test::same_b\".*holding \"test::same_a\"");
}

#else

TEST(LockRankDeathTest, CheckerCompiledOut) {
  GTEST_SKIP() << "lock-rank checks are compiled out (NDEBUG build); "
                  "run a Debug build to exercise the checker";
}

#endif  // PARISAX_LOCK_RANK_CHECKS

}  // namespace
}  // namespace parisax
