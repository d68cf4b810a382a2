#include "util/mutex.h"

#if PARISAX_LOCK_RANK_CHECKS

#include <cstdio>
#include <cstdlib>

namespace parisax {
namespace lock_rank_internal {
namespace {

/// One thread's held locks. Deep enough for several times the worst
/// real chain (net -> serve -> engine -> index internals).
constexpr int kMaxHeldLocks = 32;

struct HeldLock {
  const void* lock;
  int rank;
  const char* name;
};

thread_local HeldLock tls_held[kMaxHeldLocks];
thread_local int tls_depth = 0;

}  // namespace

void CheckAndRecordAcquire(const void* lock, int rank, const char* name) {
  // Locks may be released out of acquisition order, so scan the whole
  // held set (it is tiny) rather than trusting the top of the stack.
  for (int i = 0; i < tls_depth; ++i) {
    if (tls_held[i].rank >= rank) {
      // Strict ordering: equal ranks abort too, which catches both
      // recursive acquisition and two same-rank locks held together.
      std::fprintf(
          stderr,
          "fatal: lock rank violation: acquiring \"%s\" (rank %d) while "
          "holding \"%s\" (rank %d); locks must be acquired in strictly "
          "increasing LockRank order (see docs/concurrency.md)\n",
          name, rank, tls_held[i].name, tls_held[i].rank);
      std::abort();
    }
  }
  if (tls_depth >= kMaxHeldLocks) {
    std::fprintf(stderr,
                 "fatal: lock rank checker overflow: thread holds %d locks "
                 "acquiring \"%s\"\n",
                 tls_depth, name);
    std::abort();
  }
  tls_held[tls_depth++] = HeldLock{lock, rank, name};
}

void RecordRelease(const void* lock) {
  for (int i = tls_depth - 1; i >= 0; --i) {
    if (tls_held[i].lock == lock) {
      tls_held[i] = tls_held[--tls_depth];
      return;
    }
  }
  // Releasing a lock the checker never saw acquired: only reachable
  // through a wrapper bug, so fail loudly rather than drift silently.
  std::fprintf(stderr,
               "fatal: lock rank checker: release of a lock not held by "
               "this thread\n");
  std::abort();
}

}  // namespace lock_rank_internal
}  // namespace parisax

#endif  // PARISAX_LOCK_RANK_CHECKS
