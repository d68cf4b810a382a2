// A source whose reads park until a set number of readers arrive.
//
// LatchedSource serves a wrapped in-memory collection through virtual
// per-series reads (ContiguousData() == nullptr, so an engine builds
// over it as over a streamed file and fetches each series it refines
// through GetSeries), but the first read of each reader blocks until
// `readers` reads are parked at once; from then on every read passes.
// Sequential passes (OpenStream, which a build uses) go straight to the
// delegate and never touch the latch. A test can thus hold queries
// inside the engine until exactly that many are executing, with no
// sleeps: a scheduling decision made at query start (such as
// QueryService's kAuto rule) is then taken with a known set of queries
// in flight.
#ifndef PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_
#define PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "index/raw_source.h"
#include "util/mutex.h"
#include "util/status.h"

namespace parisax {
namespace testsupport {

class LatchedSource : public RawSeriesSource {
 public:
  LatchedSource(std::unique_ptr<RawSeriesSource> delegate, size_t readers)
      : delegate_(std::move(delegate)), readers_(readers) {}

  size_t count() const override { return delegate_->count(); }
  size_t length() const override { return delegate_->length(); }

  Status GetSeries(SeriesId id, Value* out) const override {
    {
      MutexLock lock(&mu_);
      if (parked_ < readers_) {
        ++parked_;
        cv_.NotifyAll();
        while (parked_ < readers_) cv_.Wait(mu_);
      }
    }
    return delegate_->GetSeries(id, out);
  }

  Result<std::unique_ptr<SeriesStream>> OpenStream(
      size_t batch_series) const override {
    return delegate_->OpenStream(batch_series);
  }

  /// Blocks until `n` readers have parked (or the latch opened).
  void WaitParked(size_t n) const {
    MutexLock lock(&mu_);
    while (parked_ < n) cv_.Wait(mu_);
  }

 private:
  const std::unique_ptr<RawSeriesSource> delegate_;
  const size_t readers_;
  mutable Mutex mu_{"LatchedSource::mu_", LockRank::kLeaf};
  mutable CondVar cv_;
  mutable size_t parked_ PARISAX_GUARDED_BY(mu_) = 0;
};

}  // namespace testsupport
}  // namespace parisax

#endif  // PARISAX_TESTS_SUPPORT_LATCHED_SOURCE_H_
