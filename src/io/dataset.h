// In-memory data series collection.
#ifndef PARISAX_IO_DATASET_H_
#define PARISAX_IO_DATASET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/types.h"
#include "util/aligned.h"

namespace parisax {

/// A collection of `count` fixed-length series stored contiguously
/// (row-major) in a SIMD-aligned buffer. This is MESSI's RawData array and
/// the in-memory image of an on-disk dataset file.
class Dataset {
 public:
  Dataset() = default;

  /// Allocates storage for `count` series of `length` points each,
  /// zero-initialized.
  Dataset(size_t count, size_t length)
      : count_(count), length_(length), storage_(count * length) {}

  size_t count() const { return count_; }
  size_t length() const { return length_; }

  /// Total number of float values (count * length).
  size_t TotalValues() const { return count_ * length_; }

  /// Read-only view of series `i`.
  SeriesView series(SeriesId i) const {
    assert(i < count_);
    return SeriesView(storage_.data() + i * length_, length_);
  }

  /// Mutable view of series `i`.
  MutableSeriesView mutable_series(SeriesId i) {
    assert(i < count_);
    return MutableSeriesView(storage_.data() + i * length_, length_);
  }

  const Value* raw() const { return storage_.data(); }
  Value* mutable_raw() { return storage_.data(); }

  /// Appends `count` series (count * length() values, row-major). When
  /// the backing buffer must grow, the old buffer is *retired* — kept
  /// alive and unchanged for the Dataset's lifetime — rather than
  /// freed, so raw()/series() pointers obtained before the call remain
  /// valid views of the first count() series. Readers holding such a
  /// pinned view race with nothing (the engine's append path relies on
  /// this). Capacity grows geometrically, so a long sequence
  /// of small appends costs amortized O(1) copying per appended series.
  void Append(const Value* values, size_t count) {
    assert(length_ > 0);
    const size_t used = count_ * length_;
    const size_t need = used + count * length_;
    if (need > storage_.size()) {
      AlignedBuffer<Value> grown(std::max(need, 2 * used));
      if (used > 0) {
        std::memcpy(grown.data(), storage_.data(), used * sizeof(Value));
      }
      retired_.push_back(std::move(storage_));
      storage_ = std::move(grown);
    }
    std::memcpy(storage_.data() + used, values,
                count * length_ * sizeof(Value));
    count_ += count;
  }

 private:
  size_t count_ = 0;
  size_t length_ = 0;
  AlignedBuffer<Value> storage_;
  /// Superseded buffers, pinned for readers of pre-append views.
  std::vector<AlignedBuffer<Value>> retired_;
};

}  // namespace parisax

#endif  // PARISAX_IO_DATASET_H_
