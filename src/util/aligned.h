// Cache-line / SIMD-aligned buffer for raw series storage.
#ifndef PARISAX_UTIL_ALIGNED_H_
#define PARISAX_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace parisax {

/// 64 bytes: one cache line, and enough for AVX-512 loads.
inline constexpr size_t kBufferAlignment = 64;

/// A fixed-size heap buffer of trivially-copyable T aligned to
/// kBufferAlignment. Movable, not copyable. Used for the raw data array and
/// the flat SAX cache, where SIMD kernels rely on alignment.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(size_t count) { Allocate(count); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Free(); }

  /// Discards current contents and allocates `count` elements
  /// (zero-initialized).
  void Allocate(size_t count) {
    Free();
    count_ = count;
    if (count == 0) return;
    size_t bytes = count * sizeof(T);
    // std::aligned_alloc requires size to be a multiple of alignment.
    bytes = (bytes + kBufferAlignment - 1) / kBufferAlignment *
            kBufferAlignment;
    data_ = static_cast<T*>(std::aligned_alloc(kBufferAlignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(static_cast<void*>(data_), 0, bytes);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + count_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + count_; }

 private:
  void Free() {
    std::free(data_);
    data_ = nullptr;
    count_ = 0;
  }

  T* data_ = nullptr;
  size_t count_ = 0;
};

}  // namespace parisax

#endif  // PARISAX_UTIL_ALIGNED_H_
