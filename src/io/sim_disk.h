// Simulated storage devices.
//
// The paper's on-disk experiments (Figs. 4, 6, 8, 10, 11) compare HDD and
// SSD behaviour. This container has neither a spinning disk nor a
// dedicated SSD, so SimulatedDisk wraps a regular file and *meters* reads:
// each read occupies one of the device's `channels` for
//   seek_latency (if non-contiguous) + bytes / throughput
// of simulated time, implemented by sleeping until the claimed slot ends.
// Sleeping releases the CPU exactly like a blocked read(2), so the overlap
// behaviour the ParIS+ design exploits (masking CPU under I/O stalls) is
// exercised for real. An HDD has a single head => channels = 1 and all
// readers serialize on the device timeline; an SSD serves multiple
// commands concurrently => channels > 1 and cheap seeks.
#ifndef PARISAX_IO_SIM_DISK_H_
#define PARISAX_IO_SIM_DISK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace parisax {

/// Performance model of a storage device.
struct DiskProfile {
  std::string name = "instant";
  /// Sustained sequential read throughput, MB/s. <= 0 disables metering.
  double seq_read_mbps = 0.0;
  /// Latency charged for a non-contiguous access, microseconds.
  double seek_latency_us = 0.0;
  /// Number of device commands served concurrently.
  int channels = 1;
  /// A forward gap smaller than this (bytes) is charged as a read-through
  /// of the gap instead of a seek (models skip-sequential HDD access).
  uint64_t contiguity_window_bytes = 0;

  bool metered() const { return seq_read_mbps > 0.0; }

  /// ~2013-era server HDD: 150 MB/s sequential, 8 ms seeks, single head.
  static DiskProfile Hdd();
  /// SATA/NVMe SSD: 2 GB/s, 60 us access latency, 8 concurrent commands.
  static DiskProfile Ssd();
  /// No metering: reads cost only the real (page-cache) time.
  static DiskProfile Instant();
};

/// Cumulative counters for one SimulatedDisk.
struct DiskStats {
  uint64_t read_calls = 0;
  uint64_t bytes_read = 0;
  uint64_t seeks = 0;
  /// Total simulated device-busy time charged, seconds.
  double simulated_busy_seconds = 0.0;
};

/// A read-only file behind a simulated device. Thread-safe: concurrent
/// ReadAt calls contend for device channels like real I/O requests.
class SimulatedDisk {
 public:
  ~SimulatedDisk();

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  /// Opens `path` for reading behind the given device model.
  static Result<std::unique_ptr<SimulatedDisk>> Open(const std::string& path,
                                                     DiskProfile profile);

  /// Reads `size` bytes at `offset` into `buffer`, charging simulated
  /// device time. Fails if the range is outside the file.
  Status ReadAt(uint64_t offset, void* buffer, size_t size);

  uint64_t file_size() const { return file_size_.load(); }
  const DiskProfile& profile() const { return profile_; }

  /// Re-reads the size of the file behind the disk's own descriptor, for
  /// a file grown in place on the same inode: the descriptor already
  /// sees the new bytes, so readers in flight are not disturbed. The
  /// size ReadAt checks against (file_size()) only grows; callers
  /// serialize refreshes.
  Status RefreshFileSize();

  DiskStats stats() const;
  void ResetStats();

 private:
  SimulatedDisk(int fd, DiskProfile profile);

  /// Claims device time for a read of `size` bytes at `offset` and sleeps
  /// until the claimed slot has elapsed. Returns charged nanoseconds.
  int64_t ChargeAndWait(uint64_t offset, size_t size);

  const int fd_;
  std::atomic<uint64_t> file_size_{0};
  const DiskProfile profile_;

  double ns_per_byte_ = 0.0;
  int64_t seek_ns_ = 0;

  /// Simulated-busy-until timestamps (steady-clock ns), one per channel.
  std::unique_ptr<std::atomic<int64_t>[]> channel_busy_until_;
  /// Last byte past the previous read, per channel. Each reader thread
  /// keeps one channel (threads take channels round robin), so it keeps
  /// its own sequential stream (like independent NVMe command streams);
  /// an HDD has a single channel and therefore one global head.
  std::unique_ptr<std::atomic<uint64_t>[]> channel_head_;

  mutable std::atomic<uint64_t> read_calls_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> seeks_{0};
  mutable std::atomic<int64_t> busy_ns_{0};
};

}  // namespace parisax

#endif  // PARISAX_IO_SIM_DISK_H_
