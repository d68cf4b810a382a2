#include "io/sim_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace parisax {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNanos(int64_t deadline) {
  int64_t now = NowNanos();
  if (deadline <= now) return;
  // sleep_for() overshoots by ~50us; for short waits spin instead so the
  // simulated device time stays accurate for microsecond-scale costs
  // (SSD accesses). Longer waits sleep to release the CPU like real
  // blocking I/O.
  constexpr int64_t kSpinThresholdNs = 50000;  // 50 us
  while (deadline - now > kSpinThresholdNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline - now - kSpinThresholdNs));
    now = NowNanos();
  }
  while (NowNanos() < deadline) {
    std::this_thread::yield();
  }
}

/// The calling thread's channel: a thread takes the next ordinal of one
/// process-wide counter on its first metered read and keeps it, so
/// readers spread over the channels round robin. (A hash of the thread
/// id would let two threads share a channel in some runs and not in
/// others, and make metered timings bimodal.)
int ThreadChannel(int channels) {
  static std::atomic<uint32_t> next_ordinal{0};
  thread_local const uint32_t ordinal = next_ordinal.fetch_add(1);
  return static_cast<int>(ordinal % static_cast<uint32_t>(channels));
}

}  // namespace

DiskProfile DiskProfile::Hdd() {
  DiskProfile p;
  p.name = "hdd";
  p.seq_read_mbps = 150.0;
  p.seek_latency_us = 8000.0;
  p.channels = 1;
  // Break-even gap: a seek costs as much head time as reading through
  // ~1.2 MB, so smaller forward gaps are read through, not seeked over.
  p.contiguity_window_bytes = 1200 * 1024;
  return p;
}

DiskProfile DiskProfile::Ssd() {
  DiskProfile p;
  p.name = "ssd";
  p.seq_read_mbps = 2000.0;
  p.seek_latency_us = 60.0;
  p.channels = 8;
  // Forward-sequential streams skip the access latency (flash readahead).
  p.contiguity_window_bytes = 256 * 1024;
  return p;
}

DiskProfile DiskProfile::Instant() { return DiskProfile(); }

SimulatedDisk::SimulatedDisk(int fd, DiskProfile profile)
    : fd_(fd), profile_(std::move(profile)) {
  if (profile_.metered()) {
    ns_per_byte_ = 1e9 / (profile_.seq_read_mbps * 1024.0 * 1024.0);
    seek_ns_ = static_cast<int64_t>(profile_.seek_latency_us * 1000.0);
    const int channels = std::max(1, profile_.channels);
    channel_busy_until_ =
        std::make_unique<std::atomic<int64_t>[]>(channels);
    channel_head_ = std::make_unique<std::atomic<uint64_t>[]>(channels);
    for (int i = 0; i < channels; ++i) {
      channel_busy_until_[i] = 0;
      channel_head_[i] = 0;
    }
  }
}

SimulatedDisk::~SimulatedDisk() { ::close(fd_); }

Status SimulatedDisk::RefreshFileSize() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat failed on simulated disk");
  }
  const auto size = static_cast<uint64_t>(st.st_size);
  if (size > file_size()) file_size_.store(size);
  return Status::OK();
}

Result<std::unique_ptr<SimulatedDisk>> SimulatedDisk::Open(
    const std::string& path, DiskProfile profile) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open file for simulated disk: " + path);
  }
  std::unique_ptr<SimulatedDisk> disk(
      new SimulatedDisk(fd, std::move(profile)));
  PARISAX_RETURN_IF_ERROR(disk->RefreshFileSize());
  return disk;
}

int64_t SimulatedDisk::ChargeAndWait(uint64_t offset, size_t size) {
  // Channel selection is thread-affine so each reader thread's stream
  // keeps its own head position (HDD: 1 channel, one global head).
  const int ch = ThreadChannel(std::max(1, profile_.channels));

  // Seek detection: contiguous (or within the contiguity window, where
  // the device simply reads through the gap) forward accesses are free of
  // seek latency; anything else pays it.
  const uint64_t head = channel_head_[ch].exchange(
      offset + size, std::memory_order_relaxed);
  int64_t cost;
  if (offset == head) {
    cost = static_cast<int64_t>(static_cast<double>(size) * ns_per_byte_);
  } else if (offset > head &&
             offset - head <= profile_.contiguity_window_bytes) {
    const uint64_t swept = (offset - head) + size;
    cost = static_cast<int64_t>(static_cast<double>(swept) * ns_per_byte_);
  } else {
    seeks_.fetch_add(1, std::memory_order_relaxed);
    cost = seek_ns_ +
           static_cast<int64_t>(static_cast<double>(size) * ns_per_byte_);
  }

  std::atomic<int64_t>& busy = channel_busy_until_[ch];
  int64_t observed = busy.load(std::memory_order_relaxed);
  int64_t slot_end;
  for (;;) {
    const int64_t start = std::max(NowNanos(), observed);
    slot_end = start + cost;
    if (busy.compare_exchange_weak(observed, slot_end,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      break;
    }
  }
  SleepUntilNanos(slot_end);
  busy_ns_.fetch_add(cost, std::memory_order_relaxed);
  return cost;
}

Status SimulatedDisk::ReadAt(uint64_t offset, void* buffer, size_t size) {
  if (offset + size > file_size()) {
    return Status::InvalidArgument("read past end of simulated disk file");
  }
  read_calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(size, std::memory_order_relaxed);
  if (profile_.metered()) ChargeAndWait(offset, size);

  char* out = static_cast<char*>(buffer);
  size_t remaining = size;
  uint64_t pos = offset;
  while (remaining > 0) {
    const ssize_t n = ::pread(fd_, out, remaining, static_cast<off_t>(pos));
    if (n < 0) return Status::IOError("pread failed");
    if (n == 0) return Status::IOError("unexpected EOF in simulated disk");
    out += n;
    pos += static_cast<uint64_t>(n);
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

DiskStats SimulatedDisk::stats() const {
  DiskStats s;
  s.read_calls = read_calls_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.seeks = seeks_.load(std::memory_order_relaxed);
  s.simulated_busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void SimulatedDisk::ResetStats() {
  read_calls_.store(0, std::memory_order_relaxed);
  bytes_read_.store(0, std::memory_order_relaxed);
  seeks_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace parisax
