#include "index/raw_source.h"

#include <algorithm>
#include <cstring>

#include "util/aligned.h"

namespace parisax {

namespace {

/// Zero-copy stream over an addressable source: batches point straight
/// into the contiguous block.
class ViewStream : public SeriesStream {
 public:
  ViewStream(const Value* base, size_t count, size_t length,
             size_t batch_series)
      : base_(base),
        count_(count),
        length_(length),
        batch_series_(batch_series) {}

  Status NextBatch(SeriesBatch* batch) override {
    const size_t remaining = count_ - next_;
    batch->first_id = next_;
    batch->count = std::min(batch_series_, remaining);
    batch->length = length_;
    batch->values = base_ + next_ * length_;
    next_ += batch->count;
    return Status::OK();
  }

 private:
  const Value* base_;
  const size_t count_;
  const size_t length_;
  const size_t batch_series_;
  size_t next_ = 0;
};

/// Fallback stream for non-addressable sources: per-series GetSeries
/// copies into a stream-owned buffer.
class CopyStream : public SeriesStream {
 public:
  CopyStream(const RawSeriesSource* source, size_t batch_series)
      : source_(source),
        batch_series_(batch_series),
        buffer_(batch_series * source->length()) {}

  Status NextBatch(SeriesBatch* batch) override {
    const size_t length = source_->length();
    const size_t take = std::min(batch_series_, source_->count() - next_);
    for (size_t i = 0; i < take; ++i) {
      PARISAX_RETURN_IF_ERROR(
          source_->GetSeries(next_ + i, buffer_.data() + i * length));
    }
    batch->first_id = next_;
    batch->count = take;
    batch->length = length;
    batch->values = buffer_.data();
    next_ += take;
    return Status::OK();
  }

 private:
  const RawSeriesSource* source_;
  const size_t batch_series_;
  AlignedBuffer<Value> buffer_;
  size_t next_ = 0;
};

/// Metered sequential stream: BufferedSeriesReader behind the stream
/// profile's device model.
class MeteredFileStream : public SeriesStream {
 public:
  explicit MeteredFileStream(std::unique_ptr<BufferedSeriesReader> reader)
      : reader_(std::move(reader)) {}

  Status NextBatch(SeriesBatch* batch) override {
    return reader_->NextBatch(batch);
  }

 private:
  std::unique_ptr<BufferedSeriesReader> reader_;
};

}  // namespace

Result<std::unique_ptr<SeriesStream>> RawSeriesSource::OpenStream(
    size_t batch_series) const {
  if (batch_series == 0) {
    return Status::InvalidArgument("batch_series must be positive");
  }
  const Value* base = ContiguousData();
  if (base != nullptr) {
    return std::unique_ptr<SeriesStream>(
        new ViewStream(base, count(), length(), batch_series));
  }
  return std::unique_ptr<SeriesStream>(new CopyStream(this, batch_series));
}

Status RawSeriesSource::AppendSeries(const Value* values, size_t count) {
  (void)values;
  (void)count;
  return Status::NotSupported("this raw-series source is not appendable");
}

Status InMemorySource::GetSeries(SeriesId id, Value* out) const {
  if (id >= count()) {
    return Status::InvalidArgument("series id out of range");
  }
  std::memcpy(out, Values() + static_cast<size_t>(id) * length_,
              length_ * sizeof(Value));
  return Status::OK();
}

Status InMemorySource::AppendSeries(const Value* values, size_t count) {
  if (owned_ == nullptr) {
    return Status::NotSupported(
        "cannot append to a borrowed in-memory source (the collection "
        "belongs to the caller); adopt it with SourceSpec::InMemory");
  }
  owned_->Append(values, count);
  // The buffer first, then the count that covers it: a reader that
  // loads the new count loads a buffer holding every id it admits.
  values_.store(owned_->raw());
  count_.store(owned_->count());
  return Status::OK();
}

Result<std::unique_ptr<FileSource>> FileSource::Open(
    const std::string& path, DiskProfile random_profile,
    DiskProfile stream_profile) {
  DatasetFileInfo info;
  PARISAX_ASSIGN_OR_RETURN(info, ReadDatasetInfo(path));
  std::unique_ptr<SimulatedDisk> disk;
  PARISAX_ASSIGN_OR_RETURN(disk, SimulatedDisk::Open(path, random_profile));
  return std::unique_ptr<FileSource>(
      new FileSource(path, std::move(disk), stream_profile, info));
}

Status FileSource::GetSeries(SeriesId id, Value* out) const {
  if (id >= count()) {
    return Status::InvalidArgument("series id out of range");
  }
  return disk_->ReadAt(info_.SeriesOffset(id), out,
                       static_cast<size_t>(info_.SeriesBytes()));
}

Status FileSource::AppendSeries(const Value* values, size_t count) {
  // Appends are serialized by the caller; readers only load count_.
  DatasetFileInfo info = info_;
  info.count = count_.load();
  PARISAX_RETURN_IF_ERROR(AppendToDatasetFile(path_, values, count, info));
  info.count += count;
  // The device's descriptor sees the bytes just written to its inode;
  // a file replaced at path_ leaves its size behind.
  PARISAX_RETURN_IF_ERROR(disk_->RefreshFileSize());
  if (disk_->file_size() != info.FileBytes()) {
    return Status::Corruption(
        "dataset file changed under the source during append: " + path_);
  }
  count_.store(info.count);
  return Status::OK();
}

Result<std::unique_ptr<SeriesStream>> FileSource::OpenStream(
    size_t batch_series) const {
  std::unique_ptr<BufferedSeriesReader> reader;
  PARISAX_ASSIGN_OR_RETURN(
      reader,
      BufferedSeriesReader::Open(path_, stream_profile_, batch_series));
  return std::unique_ptr<SeriesStream>(
      new MeteredFileStream(std::move(reader)));
}

}  // namespace parisax
