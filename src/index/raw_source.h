// The data plane: uniform access to raw series values, whether the
// collection lives in memory (MESSI, in-memory ParIS), is memory-mapped
// from a dataset file (restored snapshots, zero-copy builds), or streams
// through a (simulated) storage device (ParIS/ParIS+, ADS+ on disk).
//
// Every build path in the repository consumes a RawSeriesSource instead
// of a concrete container: random fetches go through GetSeries/TryView,
// hot paths address a contiguous block directly (ContiguousData /
// RawDataView), and the on-disk pipelines stream batches sequentially
// through OpenStream. Sources are *owned*: an index (and the Engine
// facade above it) takes its source by unique_ptr, so there is no
// "dataset must outlive the engine" footgun unless the caller explicitly
// opts into borrowing.
#ifndef PARISAX_INDEX_RAW_SOURCE_H_
#define PARISAX_INDEX_RAW_SOURCE_H_

#include <atomic>
#include <memory>
#include <string>

#include "core/types.h"
#include "io/dataset.h"
#include "io/format.h"
#include "io/reader.h"
#include "io/sim_disk.h"
#include "util/status.h"

namespace parisax {

/// One batched sequential pass over a source's series, in id order (the
/// build pipelines' Stage-1 feed). Not thread-safe; one reader at a time.
class SeriesStream {
 public:
  virtual ~SeriesStream() = default;

  /// Reads the next batch; `batch->count == 0` signals the end. Views
  /// stay valid until the next call.
  virtual Status NextBatch(SeriesBatch* batch) = 0;
};

class RawSeriesSource {
 public:
  virtual ~RawSeriesSource() = default;

  virtual size_t count() const = 0;
  virtual size_t length() const = 0;

  /// Copies series `id` into `out` (length() values). Thread-safe.
  virtual Status GetSeries(SeriesId id, Value* out) const = 0;

  /// Zero-copy view when the data is in memory, else empty. Lets hot
  /// paths skip the copy.
  virtual SeriesView TryView(SeriesId id) const {
    (void)id;
    return SeriesView();
  }

  /// Base pointer of the contiguous row-major value block backing this
  /// source (series `i` at `base + i * length()`), or nullptr when series
  /// are not directly addressable (e.g. a simulated seek-per-read
  /// device). In-memory engines build a RawDataView from this and bypass
  /// the virtual per-series calls entirely.
  virtual const Value* ContiguousData() const { return nullptr; }

  /// A source is addressable when builds and queries can run straight
  /// over its contiguous block with no copy. Empty sources are trivially
  /// addressable (there is nothing to address).
  bool addressable() const {
    return count() == 0 || ContiguousData() != nullptr;
  }

  /// Opens a batched sequential pass over all series (`batch_series` per
  /// NextBatch). The default serves zero-copy batches over
  /// ContiguousData when the source is addressable and falls back to
  /// per-series GetSeries copies otherwise; metered file sources override
  /// it to stream through their device model instead.
  virtual Result<std::unique_ptr<SeriesStream>> OpenStream(
      size_t batch_series) const;

  /// True when the backing device serves one request at a time and
  /// rewards position-ordered access (a spinning disk). Parallel readers
  /// should then funnel their reads through one ordered stream instead of
  /// racing the head around the platter.
  virtual bool PrefersSequentialAccess() const { return false; }

  /// True when the backing device charges each random read its own
  /// latency (a metered device: a seek, or a channel's queue), so reading
  /// in position order costs less than reading in any other order. False
  /// where reads cost the same in any order: memory, mmap, an unmetered
  /// file behind the page cache.
  virtual bool MetersRandomReads() const { return false; }

  /// True when AppendSeries can extend this source in place (the engine
  /// append path; see docs/architecture.md). False for borrowed and
  /// read-only sources.
  virtual bool appendable() const { return false; }

  /// Appends `count` series (count * length() values, row-major) to the
  /// backing collection. Returns kNotSupported when !appendable(). No
  /// source invalidates a reader when it grows: the addressable sources
  /// (an adopting InMemorySource, MmapSource) retire the buffer they grow
  /// out of instead of freeing it, so ContiguousData()/TryView pointers
  /// obtained before the call stay valid, and FileSource grows its file
  /// in place under the device its reads go through. MESSI and
  /// ParIS/ParIS+ therefore publish an append as a segment while queries
  /// keep running.
  virtual Status AppendSeries(const Value* values, size_t count);
};

/// The in-RAM source. Either *adopts* a Dataset (the source owns the
/// values — the default for the Engine facade) or *borrows* one the
/// caller keeps alive (zero-cost wrapping for tests and benches).
class InMemorySource : public RawSeriesSource {
 public:
  /// Borrows: `dataset` must outlive the source and stay unchanged.
  explicit InMemorySource(const Dataset* dataset)
      : length_(dataset->length()),
        values_(dataset->raw()),
        count_(dataset->count()) {}

  /// Adopts: the source owns the moved-in collection.
  explicit InMemorySource(Dataset dataset)
      : owned_(std::make_unique<Dataset>(std::move(dataset))),
        length_(owned_->length()),
        values_(owned_->raw()),
        count_(owned_->count()) {}

  size_t count() const override { return count_.load(); }
  size_t length() const override { return length_; }

  Status GetSeries(SeriesId id, Value* out) const override;
  SeriesView TryView(SeriesId id) const override {
    if (id >= count()) return SeriesView();
    return SeriesView(Values() + static_cast<size_t>(id) * length_, length_);
  }
  const Value* ContiguousData() const override { return Values(); }

  /// Only the adopting form can grow: a borrowed collection belongs to
  /// the caller.
  bool appendable() const override { return owned_ != nullptr; }
  /// Readers may run concurrently with one append: an id below count()
  /// stays readable.
  Status AppendSeries(const Value* values, size_t count) override;

 private:
  /// Loaded after count(): AppendSeries publishes the buffer before the
  /// count that covers it, and the Dataset retires a buffer it grows
  /// out of instead of freeing it.
  const Value* Values() const { return values_.load(); }

  std::unique_ptr<Dataset> owned_;  // null when borrowing
  const size_t length_;
  /// Readers see the collection only through these two, never through
  /// the Dataset that Append rewrites.
  std::atomic<const Value*> values_;
  std::atomic<size_t> count_;
};

/// Non-owning view of a contiguous row-major raw-series block. The hot
/// paths (index construction Stage 1, MESSI's real-distance phase, the
/// in-memory scans) address series through this instead of a virtual
/// RawSeriesSource call; it works identically over an in-RAM Dataset and
/// an mmap-ed file.
struct RawDataView {
  const Value* base = nullptr;
  size_t length = 0;

  SeriesView series(SeriesId id) const {
    return SeriesView(base + static_cast<size_t>(id) * length, length);
  }
};

/// The streaming file source for the on-disk pipelines: a dataset file
/// behind a SimulatedDisk. Query-time random fetches (GetSeries) are
/// metered with `random_profile`; sequential passes (OpenStream — the
/// coordinator's Stage-1 reads, the on-disk UCR scan) are metered with
/// `stream_profile`. GetSeries may run concurrently with one
/// AppendSeries.
class FileSource : public RawSeriesSource {
 public:
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path,
                                                  DiskProfile random_profile,
                                                  DiskProfile stream_profile);

  /// One profile for both access patterns.
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path,
                                                  DiskProfile profile) {
    return Open(path, profile, profile);
  }

  size_t count() const override { return count_.load(); }
  size_t length() const override { return info_.length; }

  Status GetSeries(SeriesId id, Value* out) const override;

  Result<std::unique_ptr<SeriesStream>> OpenStream(
      size_t batch_series) const override;

  bool PrefersSequentialAccess() const override {
    return MetersRandomReads() && disk_->profile().channels <= 1;
  }
  bool MetersRandomReads() const override {
    return disk_->profile().metered();
  }

  /// Grows the dataset file in place, on the inode the device has open,
  /// so the device (and disk()) stays the same and reads in flight are
  /// undisturbed; then refreshes the device's size and count(). Returns
  /// kCorruption, with count() unchanged, when the file was truncated or
  /// replaced under the source.
  bool appendable() const override { return true; }
  Status AppendSeries(const Value* values, size_t count) override;

  /// The query-time device; valid for the source's lifetime.
  SimulatedDisk* disk() { return disk_.get(); }

 private:
  FileSource(std::string path, std::unique_ptr<SimulatedDisk> disk,
             DiskProfile stream_profile, DatasetFileInfo info)
      : path_(std::move(path)),
        disk_(std::move(disk)),
        stream_profile_(stream_profile),
        info_(info),
        count_(info.count) {}

  const std::string path_;
  const std::unique_ptr<SimulatedDisk> disk_;  // random (query-time) reads
  const DiskProfile stream_profile_;  // sequential (build-time) passes
  const DatasetFileInfo info_;  // the header as opened; count_ is current
  /// Stored only after the device has seen the grown file, so an id
  /// below count() is always readable.
  std::atomic<uint64_t> count_;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_RAW_SOURCE_H_
