// Memory-mapped raw series source.
//
// Maps a dataset file (io/format.h layout) and serves series as zero-copy
// views into the mapping. This generalizes MESSI's "raw data resides in
// memory" assumption to larger-than-RAM collections: the kernel pages
// series in on demand and evicts cold ones, while query code sees plain
// contiguous floats. Restored snapshots (src/persist/) answer queries
// against an MmapSource instead of requiring a full in-RAM copy of the
// collection.
#ifndef PARISAX_IO_MMAP_SOURCE_H_
#define PARISAX_IO_MMAP_SOURCE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "index/raw_source.h"
#include "io/format.h"
#include "io/mmap_file.h"

namespace parisax {

class MmapSource : public RawSeriesSource {
 public:
  /// Validates the dataset header, then maps the whole file.
  static Result<std::unique_ptr<MmapSource>> Open(const std::string& path);

  size_t count() const override { return count_.load(); }
  size_t length() const override { return info_.length; }

  Status GetSeries(SeriesId id, Value* out) const override;

  SeriesView TryView(SeriesId id) const override {
    if (id >= count()) return SeriesView();
    return SeriesView(Values() + static_cast<size_t>(id) * info_.length,
                      info_.length);
  }

  const Value* ContiguousData() const override { return Values(); }

  /// Append-reopen: the new series are written to the dataset file, the
  /// header count is patched, and the file is re-mapped. Readers may run
  /// concurrently with one append: an id below count() stays readable.
  bool appendable() const override { return true; }
  Status AppendSeries(const Value* values, size_t count) override;

 private:
  MmapSource(std::unique_ptr<MmapFile> file, DatasetFileInfo info)
      : info_(info),
        file_(std::move(file)),
        values_(reinterpret_cast<const Value*>(file_->data() +
                                               kDatasetHeaderBytes)),
        count_(info.count) {}

  /// Loaded after count(): a mapping is published before the count that
  /// admits its new rows, and every mapping covers every older row.
  const Value* Values() const { return values_.load(); }

  const DatasetFileInfo info_;  // the header as opened; count_ is current
  /// The current mapping and the superseded ones, pinned for readers of
  /// pre-append views. Only AppendSeries touches them.
  std::unique_ptr<MmapFile> file_;
  std::vector<std::unique_ptr<MmapFile>> retired_;
  std::atomic<const Value*> values_;
  std::atomic<uint64_t> count_;
};

}  // namespace parisax

#endif  // PARISAX_IO_MMAP_SOURCE_H_
