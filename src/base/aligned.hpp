#pragma once
// 64-byte-aligned storage.
//
// Section 3.1 of the paper: PETSc's default 16-byte heap alignment made
// AVX-512 builds hang/misbehave on KNL; 64-byte (cache line) alignment fixed
// it and performs better because vector loads never straddle a line and no
// peel loop is needed.  Kestrel allocates all matrix/vector payloads through
// AlignedBuffer.  The alignment is a template parameter so the alignment
// ablation bench can build deliberately under-aligned (16-byte) buffers.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "base/error.hpp"
#include "base/types.hpp"

namespace kestrel {

/// Allocate `bytes` of storage aligned to `alignment` (a power of two,
/// multiple of sizeof(void*)). Freed with aligned_free().
inline void* aligned_malloc(std::size_t bytes, std::size_t alignment) {
  KESTREL_CHECK(alignment != 0 && (alignment & (alignment - 1)) == 0,
                "alignment must be a power of two");
  if (bytes == 0) bytes = alignment;
  KESTREL_CHECK(
      bytes <= std::numeric_limits<std::size_t>::max() - (alignment - 1),
      "allocation size overflow");
  // round size up to a multiple of alignment as required by aligned_alloc
  const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void aligned_free(void* p) noexcept { std::free(p); }

/// Owning, cache-line-aligned, fixed-capacity buffer of trivially copyable
/// elements. This is the storage primitive behind Vector and every matrix
/// format; unlike std::vector it guarantees the *data pointer* alignment and
/// never reallocates behind the caller's back.
template <class T, std::size_t Alignment = kCacheLine>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t n) { resize(n); }
  AlignedBuffer(std::size_t n, T fill) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = fill;
  }

  AlignedBuffer(const AlignedBuffer& other) { copy_from(other); }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    swap(other);
    return *this;
  }
  ~AlignedBuffer() { aligned_free(data_); }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  /// Discards contents; new contents are uninitialized.
  void resize(std::size_t n) {
    if (n == size_) return;
    KESTREL_CHECK(n <= std::numeric_limits<std::size_t>::max() / sizeof(T),
                  "allocation size overflow");
    aligned_free(data_);
    data_ = nullptr;
    size_ = 0;
    if (n > 0) {
      data_ = static_cast<T*>(aligned_malloc(n * sizeof(T), Alignment));
      size_ = n;
    }
  }

  void fill(T v) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = v;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  void copy_from(const AlignedBuffer& other) {
    resize(other.size_);
    for (std::size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// True if `p` is aligned to `alignment` bytes.
inline bool is_aligned(const void* p, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

}  // namespace kestrel
