#ifndef FIELDDB_STORAGE_PAGE_H_
#define FIELDDB_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace fielddb {

/// Default page size (bytes). The paper's experiments use 4 KB pages
/// (Section 4); the ablation bench sweeps other sizes.
inline constexpr uint32_t kDefaultPageSize = 4096;

/// Identifies a page within a PageFile. Page ids are dense, starting at 0.
using PageId = uint64_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = ~PageId{0};

/// A fixed-size block of bytes — the unit of I/O and of cost accounting
/// throughout the library. Pages are raw byte containers; callers impose
/// structure (R*-tree nodes, cell-store slots) on top.
class Page {
 public:
  explicit Page(uint32_t size = kDefaultPageSize) : data_(size, 0) {}

  uint32_t size() const { return static_cast<uint32_t>(data_.size()); }
  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }

  /// Copies `n` bytes from `src` into the page at `offset`.
  /// The caller must ensure offset + n <= size().
  void Write(uint32_t offset, const void* src, uint32_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(data_.data() + offset, src, n);
  }

  /// Copies `n` bytes from the page at `offset` into `dst`.
  void Read(uint32_t offset, void* dst, uint32_t n) const {
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(dst, data_.data() + offset, n);
  }

  /// Typed helpers for fixed-layout headers.
  template <typename T>
  void WriteAt(uint32_t offset, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(offset, &v, sizeof(T));
  }

  template <typename T>
  T ReadAt(uint32_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    Read(offset, &v, sizeof(T));
    return v;
  }

  void Zero() { std::fill(data_.begin(), data_.end(), 0); }

 private:
  std::vector<uint8_t> data_;
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_PAGE_H_
