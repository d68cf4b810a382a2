#include "io/format.h"

#include <unistd.h>

#include <cstring>
#include <memory>

namespace parisax {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'A', 'X', 'D', 'S', '0', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteHeader(std::FILE* f, uint64_t count, uint32_t length,
                   uint32_t flags) {
  char header[kDatasetHeaderBytes];
  std::memcpy(header, kMagic, 8);
  std::memcpy(header + 8, &count, 8);
  std::memcpy(header + 16, &length, 4);
  std::memcpy(header + 20, &flags, 4);
  if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header)) {
    return Status::IOError("short write of dataset header");
  }
  return Status::OK();
}

}  // namespace

Status WriteDataset(const Dataset& dataset, const std::string& path,
                    uint32_t flags) {
  DatasetFileWriter writer;
  PARISAX_RETURN_IF_ERROR(writer.Open(path, dataset.count(),
                                      static_cast<uint32_t>(dataset.length()),
                                      flags));
  for (SeriesId i = 0; i < dataset.count(); ++i) {
    PARISAX_RETURN_IF_ERROR(writer.Append(dataset.series(i)));
  }
  return writer.Close();
}

Status AppendToDatasetFile(const std::string& path, const Value* values,
                           size_t count, const DatasetFileInfo& info) {
  FilePtr f(std::fopen(path.c_str(), "r+b"));
  if (f == nullptr) {
    return Status::IOError("cannot open dataset file for append: " + path);
  }
  // The values go at the end, which must be where `info` puts it: a
  // write past the end of a file truncated since would leave a hole the
  // patched count then covers. fseeko/ftello: FileBytes() can exceed
  // LONG_MAX on ILP32/LLP64 platforms (a > 2 GiB collection).
  if (fseeko(f.get(), 0, SEEK_END) != 0 ||
      static_cast<uint64_t>(ftello(f.get())) != info.FileBytes()) {
    return Status::Corruption("dataset file is not the size its header "
                              "gives before append: " + path);
  }
  const size_t new_values = count * info.length;
  if (std::fwrite(values, sizeof(Value), new_values, f.get()) !=
      new_values) {
    return Status::IOError("short write appending series to " + path);
  }
  // Values reach *stable storage* before the count grows: flush the
  // stdio buffer, fsync the appended bytes, then patch the header. A
  // process crash OR power loss mid-append therefore leaves a valid
  // file with the old count — the header never advertises series whose
  // values the kernel might still have reordered behind it.
  if (std::fflush(f.get()) != 0) {
    return Status::IOError("flush failed appending to " + path);
  }
  if (::fsync(fileno(f.get())) != 0) {
    return Status::IOError("fsync failed appending to " + path);
  }
  const uint64_t new_count = info.count + count;
  if (std::fseek(f.get(), 8, SEEK_SET) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  if (std::fwrite(&new_count, sizeof(new_count), 1, f.get()) != 1) {
    return Status::IOError("short write of dataset count: " + path);
  }
  std::FILE* raw = f.release();
  if (std::fclose(raw) != 0) {
    return Status::IOError("close failed appending to " + path);
  }
  return Status::OK();
}

Result<DatasetFileInfo> ReadDatasetInfo(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open dataset file: " + path);
  }
  char header[kDatasetHeaderBytes];
  if (std::fread(header, 1, sizeof(header), f.get()) != sizeof(header)) {
    return Status::Corruption("dataset file too short for header: " + path);
  }
  if (std::memcmp(header, kMagic, 8) != 0) {
    return Status::Corruption("bad magic in dataset file: " + path);
  }
  DatasetFileInfo info;
  std::memcpy(&info.count, header + 8, 8);
  std::memcpy(&info.length, header + 16, 4);
  std::memcpy(&info.flags, header + 20, 4);
  if (info.length == 0) {
    return Status::Corruption("dataset declares zero-length series: " + path);
  }
  // Validate the payload size.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError("seek failed: " + path);
  }
  const auto size = static_cast<uint64_t>(std::ftell(f.get()));
  if (size != info.FileBytes()) {
    return Status::Corruption("dataset file size mismatch: " + path);
  }
  return info;
}

Result<Dataset> LoadDataset(const std::string& path) {
  DatasetFileInfo info;
  PARISAX_ASSIGN_OR_RETURN(info, ReadDatasetInfo(path));
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open dataset file: " + path);
  }
  if (std::fseek(f.get(), static_cast<long>(kDatasetHeaderBytes), SEEK_SET) !=
      0) {
    return Status::IOError("seek failed: " + path);
  }
  Dataset dataset(info.count, info.length);
  const size_t values = dataset.TotalValues();
  if (std::fread(dataset.mutable_raw(), sizeof(float), values, f.get()) !=
      values) {
    return Status::Corruption("short read of dataset payload: " + path);
  }
  return dataset;
}

DatasetFileWriter::~DatasetFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DatasetFileWriter::Open(const std::string& path, uint64_t count,
                               uint32_t length, uint32_t flags) {
  if (file_ != nullptr) {
    return Status::InvalidArgument("writer already open");
  }
  if (length == 0) {
    return Status::InvalidArgument("series length must be positive");
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot create dataset file: " + path);
  }
  path_ = path;
  declared_count_ = count;
  length_ = length;
  written_ = 0;
  return WriteHeader(file_, count, length, flags);
}

Status DatasetFileWriter::Append(SeriesView series) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  if (series.size() != length_) {
    return Status::InvalidArgument("series length mismatch on append");
  }
  if (written_ == declared_count_) {
    return Status::InvalidArgument("appending beyond declared series count");
  }
  if (std::fwrite(series.data(), sizeof(float), series.size(), file_) !=
      series.size()) {
    return Status::IOError("short write appending series to " + path_);
  }
  ++written_;
  return Status::OK();
}

Status DatasetFileWriter::Close() {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  const bool complete = written_ == declared_count_;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (!complete) {
    return Status::InvalidArgument("close before all series were appended");
  }
  if (rc != 0) return Status::IOError("close failed: " + path_);
  return Status::OK();
}

}  // namespace parisax
