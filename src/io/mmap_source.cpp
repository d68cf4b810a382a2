#include "io/mmap_source.h"

#include <cstring>

namespace parisax {

Result<std::unique_ptr<MmapSource>> MmapSource::Open(
    const std::string& path) {
  // ReadDatasetInfo validates magic, header fields and the exact file
  // size, so the mapping below is known to cover every series.
  DatasetFileInfo info;
  PARISAX_ASSIGN_OR_RETURN(info, ReadDatasetInfo(path));
  std::unique_ptr<MmapFile> file;
  PARISAX_ASSIGN_OR_RETURN(file, MmapFile::Open(path));
  if (file->size() != info.FileBytes()) {
    return Status::Corruption("dataset file changed size during open: " +
                              path);
  }
  return std::unique_ptr<MmapSource>(
      new MmapSource(std::move(file), info));
}

Status MmapSource::GetSeries(SeriesId id, Value* out) const {
  if (id >= count()) {
    return Status::InvalidArgument("series id out of range");
  }
  std::memcpy(out, Values() + static_cast<size_t>(id) * info_.length,
              static_cast<size_t>(info_.length) * sizeof(Value));
  return Status::OK();
}

Status MmapSource::AppendSeries(const Value* values, size_t count) {
  // Append-reopen: extend the file on disk, then map the longer file
  // and swap the mapping in. The old mapping is *retired* (kept mapped
  // for the source's lifetime), not unmapped: readers holding views
  // into it stay valid — the appended bytes and the patched header lie
  // outside the data region those views cover — so the engine's
  // append path never invalidates a pinned raw view. A failed append
  // leaves the source untouched. Appends are serialized by the caller;
  // readers load only count_ and then values_.
  const std::string path = file_->path();
  DatasetFileInfo info = info_;
  info.count = count_.load();
  PARISAX_RETURN_IF_ERROR(AppendToDatasetFile(path, values, count, info));
  std::unique_ptr<MmapFile> grown;
  PARISAX_ASSIGN_OR_RETURN(grown, MmapFile::Open(path));
  info.count += count;
  if (grown->size() != info.FileBytes()) {
    return Status::Corruption(
        "dataset file changed size during append: " + path);
  }
  retired_.push_back(std::move(file_));
  file_ = std::move(grown);
  values_.store(
      reinterpret_cast<const Value*>(file_->data() + kDatasetHeaderBytes));
  count_.store(info.count);
  return Status::OK();
}

}  // namespace parisax
