// Annotated synchronization primitives: the only mutexes the codebase
// uses directly.
//
// Two checkers cross-validate the locking discipline:
//
//  1. Clang Thread Safety Analysis (compile time). The PARISAX_*
//     attribute macros below expand to Clang capability attributes, so a
//     `clang++ -Wthread-safety -Werror` build (CI's static-analysis job)
//     proves that guarded fields are only touched under their lock and
//     that REQUIRES contracts hold on every path. Under gcc the macros
//     expand to nothing and the wrappers behave exactly like
//     std::mutex/std::shared_mutex.
//
//  2. A runtime lock-rank checker (debug builds). Every Mutex carries a
//     LockRank; acquiring a lock whose rank is not strictly greater than
//     every rank already held by the thread aborts, printing both lock
//     names. Running the (debug) test suite therefore validates the
//     whole rank table against real schedules, and the TSan job checks
//     the same schedules for data races.
//
// The global lock hierarchy lives in the LockRank enum; the rationale
// for each rank is documented in docs/concurrency.md. New locks must
// pick a rank there (or kLeaf when nothing is ever acquired under
// them).
#ifndef PARISAX_UTIL_MUTEX_H_
#define PARISAX_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// --- Clang Thread Safety Analysis attribute macros -------------------------
// No-ops under compilers without the capability attribute (gcc), so the
// annotations cost nothing outside the clang static-analysis build.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PARISAX_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PARISAX_THREAD_ANNOTATION
#define PARISAX_THREAD_ANNOTATION(x)
#endif

#define PARISAX_CAPABILITY(x) PARISAX_THREAD_ANNOTATION(capability(x))
#define PARISAX_SCOPED_CAPABILITY PARISAX_THREAD_ANNOTATION(scoped_lockable)
#define PARISAX_GUARDED_BY(x) PARISAX_THREAD_ANNOTATION(guarded_by(x))
#define PARISAX_PT_GUARDED_BY(x) PARISAX_THREAD_ANNOTATION(pt_guarded_by(x))
#define PARISAX_ACQUIRED_BEFORE(...) \
  PARISAX_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PARISAX_ACQUIRED_AFTER(...) \
  PARISAX_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define PARISAX_REQUIRES(...) \
  PARISAX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PARISAX_REQUIRES_SHARED(...) \
  PARISAX_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PARISAX_ACQUIRE(...) \
  PARISAX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PARISAX_ACQUIRE_SHARED(...) \
  PARISAX_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PARISAX_RELEASE(...) \
  PARISAX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PARISAX_RELEASE_SHARED(...) \
  PARISAX_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PARISAX_TRY_ACQUIRE(...) \
  PARISAX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PARISAX_EXCLUDES(...) \
  PARISAX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PARISAX_RETURN_CAPABILITY(x) \
  PARISAX_THREAD_ANNOTATION(lock_returned(x))
#define PARISAX_ASSERT_CAPABILITY(x) \
  PARISAX_THREAD_ANNOTATION(assert_capability(x))
#define PARISAX_NO_THREAD_SAFETY_ANALYSIS \
  PARISAX_THREAD_ANNOTATION(no_thread_safety_analysis)

// The runtime rank checker rides on debug builds only; release builds
// compile the bookkeeping out entirely.
#if !defined(NDEBUG) && !defined(PARISAX_NO_LOCK_RANK_CHECKS)
#define PARISAX_LOCK_RANK_CHECKS 1
#else
#define PARISAX_LOCK_RANK_CHECKS 0
#endif

namespace parisax {

/// The global lock hierarchy, one rank per lock (or per family of locks
/// that are never held together). Locks must be acquired in strictly
/// increasing rank order; the debug-build checker aborts on violations.
/// Full table with rationale: docs/concurrency.md.
enum class LockRank : int {
  // --- net layer (outermost: entered straight from sockets) ---
  kNetConnections = 10,  ///< Server::conns_mu_ (connection registry)
  kNetConnection = 20,   ///< Server::Connection::mu (per-connection outbox)
  // --- serve layer ---
  kServiceInit = 30,  ///< Engine::service_mu_ (lazy service)
  kServeWake = 40,    ///< QueryService::mu_ (task queue, helper region)
  // --- engine core (the documented append -> compactor chain) ---
  kEngineAppend = 70,  ///< Engine::append_mu_ (writer gate)
  kCompactor = 80,     ///< Engine::compactor_mu_ (kicked under append_mu_)
  // --- index structures ---
  kServingDock = 110,  ///< ServingDock::mu_ (snapshot publication)
  kBuildSlot = 120,    ///< ParIS BatchSlot::mu (pipeline slots)
  kBuildBuffer = 130,  ///< RecBuf::mu / IsaxBufferSet per-key locks
  kBuildBufferSet = 140,  ///< RecBufSet::touched_mu_ (touched-key list)
  kLeafNode = 150,        ///< Node::leaf_mutex_ (ParIS+ flush vs drain)
  kLeafStorage = 160,     ///< LeafStorage::mu_ (leaf chunk file)
  kResultMerge = 180,     ///< KnnHeap::mu_ / BestNeighbor::mu
  // --- leaves (nothing is ever acquired under these) ---
  kFirstError = 190,  ///< first-error latches (builders, ParIS refine)
  kPool = 200,        ///< ThreadPool::mu_ (phase protocol)
  kTaskGroup = 210,   ///< TaskGroup::mu_ (completion counter)
  kServeStats = 220,  ///< QueryService::stats_mu_ (serve counters)
  kMetrics = 230,     ///< MetricsRegistry::mu_ (family registry)
  kLeaf = 240,        ///< generic leaf locks (tests, tools)
};

namespace lock_rank_internal {
#if PARISAX_LOCK_RANK_CHECKS
/// Aborts (printing both lock names) when `rank` is not strictly greater
/// than every rank currently held by this thread, then records the lock
/// as held. Strictness also catches recursive acquisition.
void CheckAndRecordAcquire(const void* lock, int rank, const char* name);
/// Removes `lock` from this thread's held set.
void RecordRelease(const void* lock);
#else
inline void CheckAndRecordAcquire(const void*, int, const char*) {}
inline void RecordRelease(const void*) {}
#endif
}  // namespace lock_rank_internal

class CondVar;

/// std::mutex carrying a Clang capability, a name and a LockRank.
class PARISAX_CAPABILITY("mutex") Mutex {
 public:
  /// `name` must outlive the mutex (string literals in practice); it is
  /// what the rank checker prints on violation.
  explicit Mutex(const char* name, LockRank rank)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PARISAX_ACQUIRE() {
    lock_rank_internal::CheckAndRecordAcquire(this, static_cast<int>(rank_),
                                              name_);
    mu_.lock();
  }

  void Unlock() PARISAX_RELEASE() {
    mu_.unlock();
    lock_rank_internal::RecordRelease(this);
  }

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* const name_;
  const LockRank rank_;
};

/// std::shared_mutex carrying a Clang capability, a name and a LockRank.
/// Shared (reader) acquisitions obey the same rank order as exclusive
/// ones: the rank checker cannot tell readers apart, and a reader that
/// breaks the order can still deadlock against a queued writer.
class PARISAX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name, LockRank rank)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PARISAX_ACQUIRE() {
    lock_rank_internal::CheckAndRecordAcquire(this, static_cast<int>(rank_),
                                              name_);
    mu_.lock();
  }

  void Unlock() PARISAX_RELEASE() {
    mu_.unlock();
    lock_rank_internal::RecordRelease(this);
  }

  void LockShared() PARISAX_ACQUIRE_SHARED() {
    lock_rank_internal::CheckAndRecordAcquire(this, static_cast<int>(rank_),
                                              name_);
    mu_.lock_shared();
  }

  void UnlockShared() PARISAX_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank_internal::RecordRelease(this);
  }

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* const name_;
  const LockRank rank_;
};

/// Scoped exclusive lock on a Mutex (the std::lock_guard replacement).
class PARISAX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PARISAX_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PARISAX_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class PARISAX_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) PARISAX_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() PARISAX_RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class PARISAX_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) PARISAX_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() PARISAX_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable working with Mutex. Waits release and re-acquire
/// through rank-checker bookkeeping so the per-thread held set stays
/// accurate across the block.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified; re-acquires
  /// `mu` before returning. As with std::condition_variable, spurious
  /// wakeups happen: call sites loop on their condition,
  ///   while (!cond) cv.Wait(mu);
  /// (an explicit loop instead of a predicate overload so the condition
  /// reads its guarded fields inside the annotated caller, where the
  /// thread-safety analysis can verify it).
  void Wait(Mutex& mu) PARISAX_REQUIRES(mu) {
    lock_rank_internal::RecordRelease(&mu);
    cv_.wait(mu.mu_);
    lock_rank_internal::CheckAndRecordAcquire(
        &mu, static_cast<int>(mu.rank_), mu.name_);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace parisax

#endif  // PARISAX_UTIL_MUTEX_H_
