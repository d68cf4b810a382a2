// Binary on-disk dataset format.
//
// Layout (little-endian):
//   [0..7]   magic "PSAXDS01"
//   [8..15]  uint64 series count
//   [16..19] uint32 series length (points per series)
//   [20..23] uint32 flags (bit 0: series are z-normalized)
//   [24.. ]  float32 values, row-major, count*length entries
#ifndef PARISAX_IO_FORMAT_H_
#define PARISAX_IO_FORMAT_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "io/dataset.h"
#include "util/status.h"

namespace parisax {

/// Byte offset of the first float value in a dataset file.
inline constexpr uint64_t kDatasetHeaderBytes = 24;

/// Flag bit: the stored series were z-normalized at write time.
inline constexpr uint32_t kDatasetFlagZNormalized = 1u;

/// Parsed dataset file header.
struct DatasetFileInfo {
  uint64_t count = 0;
  uint32_t length = 0;
  uint32_t flags = 0;

  /// Byte offset of series `i` within the file.
  uint64_t SeriesOffset(uint64_t i) const {
    return kDatasetHeaderBytes +
           i * static_cast<uint64_t>(length) * sizeof(float);
  }

  /// Bytes occupied by one series.
  uint64_t SeriesBytes() const {
    return static_cast<uint64_t>(length) * sizeof(float);
  }

  /// Total expected file size in bytes.
  uint64_t FileBytes() const {
    return kDatasetHeaderBytes + count * SeriesBytes();
  }
};

/// Writes `dataset` to `path`, replacing any existing file.
Status WriteDataset(const Dataset& dataset, const std::string& path,
                    uint32_t flags = kDatasetFlagZNormalized);

/// Extends an existing dataset file in place by `count` series
/// (count * info.length values, row-major): values are written at the
/// current end and fsync-ed to stable storage *before* the header count
/// is patched, so a process crash or power loss mid-append leaves a
/// valid file with the old count — the header never advertises series
/// whose values might not have survived. `info` must describe the
/// file's current (pre-append) shape; a file of another size (truncated
/// or grown since) is kCorruption and is left unchanged.
Status AppendToDatasetFile(const std::string& path, const Value* values,
                           size_t count, const DatasetFileInfo& info);

/// Reads an entire dataset file into memory.
Result<Dataset> LoadDataset(const std::string& path);

/// Validates and parses the header of a dataset file.
Result<DatasetFileInfo> ReadDatasetInfo(const std::string& path);

/// Streaming writer used to produce dataset files larger than memory.
/// Usage: Open() -> Append() x count -> Close(). The writer verifies at
/// Close() that exactly `count` series were appended.
class DatasetFileWriter {
 public:
  DatasetFileWriter() = default;
  ~DatasetFileWriter();

  DatasetFileWriter(const DatasetFileWriter&) = delete;
  DatasetFileWriter& operator=(const DatasetFileWriter&) = delete;

  Status Open(const std::string& path, uint64_t count, uint32_t length,
              uint32_t flags = kDatasetFlagZNormalized);
  Status Append(SeriesView series);
  Status Close();

 private:
  std::FILE* file_ = nullptr;
  uint64_t declared_count_ = 0;
  uint64_t written_ = 0;
  uint32_t length_ = 0;
  std::string path_;
};

}  // namespace parisax

#endif  // PARISAX_IO_FORMAT_H_
