// A source whose appends park until the test releases them.
//
// AppendLatchedSource wraps an owned source and serves it exactly as
// the wrapped source does (every virtual forwards, so an in-memory
// source stays addressable and a FileSource keeps streaming through its
// device), except that AppendSeries blocks before growing the
// collection until Release() is called. A test can thus hold an
// Engine::Append in flight, with the engine's append-side locks taken,
// and check what queries do meanwhile, with no sleeps.
#ifndef PARISAX_TESTS_SUPPORT_APPEND_LATCHED_SOURCE_H_
#define PARISAX_TESTS_SUPPORT_APPEND_LATCHED_SOURCE_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "index/raw_source.h"
#include "io/dataset.h"
#include "util/mutex.h"
#include "util/status.h"

namespace parisax {
namespace testsupport {

class AppendLatchedSource : public RawSeriesSource {
 public:
  explicit AppendLatchedSource(std::unique_ptr<RawSeriesSource> delegate)
      : delegate_(std::move(delegate)) {}

  /// Adopts `dataset` as an in-memory source.
  explicit AppendLatchedSource(Dataset dataset)
      : AppendLatchedSource(
            std::make_unique<InMemorySource>(std::move(dataset))) {}

  size_t count() const override { return delegate_->count(); }
  size_t length() const override { return delegate_->length(); }

  Status GetSeries(SeriesId id, Value* out) const override {
    return delegate_->GetSeries(id, out);
  }
  SeriesView TryView(SeriesId id) const override {
    return delegate_->TryView(id);
  }
  const Value* ContiguousData() const override {
    return delegate_->ContiguousData();
  }
  Result<std::unique_ptr<SeriesStream>> OpenStream(
      size_t batch_series) const override {
    return delegate_->OpenStream(batch_series);
  }
  bool PrefersSequentialAccess() const override {
    return delegate_->PrefersSequentialAccess();
  }
  bool MetersRandomReads() const override {
    return delegate_->MetersRandomReads();
  }

  bool appendable() const override { return delegate_->appendable(); }
  Status AppendSeries(const Value* values, size_t count) override {
    {
      MutexLock lock(&mu_);
      parked_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(mu_);
    }
    return delegate_->AppendSeries(values, count);
  }

  /// Blocks until an append has parked.
  void WaitParked() const {
    MutexLock lock(&mu_);
    while (!parked_) cv_.Wait(mu_);
  }

  /// Lets parked and future appends through.
  void Release() {
    MutexLock lock(&mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  const std::unique_ptr<RawSeriesSource> delegate_;
  mutable Mutex mu_{"AppendLatchedSource::mu_", LockRank::kLeaf};
  mutable CondVar cv_;
  bool parked_ PARISAX_GUARDED_BY(mu_) = false;
  bool released_ PARISAX_GUARDED_BY(mu_) = false;
};

}  // namespace testsupport
}  // namespace parisax

#endif  // PARISAX_TESTS_SUPPORT_APPEND_LATCHED_SOURCE_H_
