// The flat SAX array: full-cardinality summaries of every series, stored
// contiguously in series order. ParIS/ParIS+ and ADS+ scan this array to
// filter candidates during exact query answering ("the iSAX
// summarizations are also stored in the array SAX (used during query
// answering)").
#ifndef PARISAX_INDEX_FLAT_SAX_H_
#define PARISAX_INDEX_FLAT_SAX_H_

#include <cassert>

#include "core/types.h"
#include "sax/word.h"
#include "util/aligned.h"

namespace parisax {

class FlatSaxCache {
 public:
  FlatSaxCache() = default;

  explicit FlatSaxCache(size_t count) : count_(count), data_(count) {}

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  const SaxSymbols& At(SeriesId i) const {
    assert(i < count_);
    return data_[i];
  }

  /// Distinct ids may be written concurrently (distinct objects).
  SaxSymbols* MutableAt(SeriesId i) {
    assert(i < count_);
    return &data_[i];
  }

 private:
  size_t count_ = 0;
  AlignedBuffer<SaxSymbols> data_;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_FLAT_SAX_H_
