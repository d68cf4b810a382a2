// A source whose reads park until the test releases their reader.
//
// LatchedSource serves a wrapped in-memory collection through virtual
// per-series reads (ContiguousData() == nullptr, so an engine builds
// over it as over a streamed file and fetches each series it reads
// through GetSeries). Once armed, it lets a set number of reads pass and
// then parks the first read of each new reader thread until the test
// releases that reader (readers are numbered in arrival order); a
// released reader's later reads pass, and ReleaseAll can instead make
// each parked read throw. Sequential passes (OpenStream, which a build
// uses) go straight to the delegate. A test can thus hold queries, or
// one query's parallel phase, inside the engine with no sleeps: a
// scheduling decision made at query start (such as
// QueryService's in-flight rule) is taken with a known set of queries
// in flight, and the read log shows the order a released worker took
// queued queries in.
#ifndef PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_
#define PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "index/raw_source.h"
#include "util/mutex.h"
#include "util/status.h"

namespace parisax {
namespace testsupport {

class LatchedSource : public RawSeriesSource {
 public:
  explicit LatchedSource(std::unique_ptr<RawSeriesSource> delegate)
      : delegate_(std::move(delegate)) {}

  size_t count() const override { return delegate_->count(); }
  size_t length() const override { return delegate_->length(); }

  Status GetSeries(SeriesId id, Value* out) const override {
    {
      MutexLock lock(&mu_);
      if (pass_ > 0) {
        --pass_;
      } else if (!all_released_) {
        const size_t reader = ReaderLocked();
        cv_.NotifyAll();
        while (!released_[reader] && !all_released_) cv_.Wait(mu_);
        if (fail_parked_) throw std::runtime_error("latched read failed");
      }
      log_.push_back(id);
    }
    return delegate_->GetSeries(id, out);
  }

  Result<std::unique_ptr<SeriesStream>> OpenStream(
      size_t batch_series) const override {
    return delegate_->OpenStream(batch_series);
  }

  /// Lets the next `reads` reads pass, then parks each new reader.
  /// Until the first Arm every read passes.
  void Arm(size_t reads) {
    MutexLock lock(&mu_);
    pass_ = reads;
  }

  /// Readers that have arrived (parked or released).
  size_t arrived() const {
    MutexLock lock(&mu_);
    return readers_.size();
  }

  /// Blocks until `n` readers have arrived.
  void WaitArrived(size_t n) const {
    MutexLock lock(&mu_);
    while (readers_.size() < n) cv_.Wait(mu_);
  }

  /// Releases the `reader`-th reader to arrive.
  void Release(size_t reader) {
    MutexLock lock(&mu_);
    released_.at(reader) = true;
    cv_.NotifyAll();
  }

  /// Releases every reader, and lets every later read pass. With
  /// `fail`, each read parked at the time throws instead.
  void ReleaseAll(bool fail = false) {
    MutexLock lock(&mu_);
    all_released_ = true;
    fail_parked_ = fail;
    cv_.NotifyAll();
  }

  /// The ids of the reads served so far, in order.
  std::vector<SeriesId> log() const {
    MutexLock lock(&mu_);
    return log_;
  }

 private:
  /// The calling thread's reader number; a new thread gets the next one.
  size_t ReaderLocked() const PARISAX_REQUIRES(mu_) {
    const std::thread::id self = std::this_thread::get_id();
    for (size_t r = 0; r < readers_.size(); ++r) {
      if (readers_[r] == self) return r;
    }
    readers_.push_back(self);
    released_.push_back(false);
    return readers_.size() - 1;
  }

  const std::unique_ptr<RawSeriesSource> delegate_;
  mutable Mutex mu_{"LatchedSource::mu_", LockRank::kLeaf};
  mutable CondVar cv_;
  mutable size_t pass_ PARISAX_GUARDED_BY(mu_) =
      std::numeric_limits<size_t>::max();
  mutable std::vector<std::thread::id> readers_ PARISAX_GUARDED_BY(mu_);
  mutable std::vector<bool> released_ PARISAX_GUARDED_BY(mu_);
  bool all_released_ PARISAX_GUARDED_BY(mu_) = false;
  bool fail_parked_ PARISAX_GUARDED_BY(mu_) = false;
  mutable std::vector<SeriesId> log_ PARISAX_GUARDED_BY(mu_);
};

}  // namespace testsupport
}  // namespace parisax

#endif  // PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_
