#ifndef FIELDDB_STORAGE_RECORD_STORE_H_
#define FIELDDB_STORAGE_RECORD_STORE_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fielddb {

/// Fixed-size records packed into consecutive pages of a buffer pool —
/// the generic sibling of CellStore used by the vector- and volume-field
/// extensions. Records are stored in the order given at Build time;
/// callers pass them pre-sorted (e.g. by Hilbert value) to get physical
/// clustering.
template <typename T>
class RecordStore {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "records are raw page bytes");

  /// Writes `records` sequentially into freshly allocated pages.
  static StatusOr<RecordStore> Build(BufferPool* pool,
                                     const std::vector<T>& records) {
    const uint32_t per_page = pool->file()->page_size() /
                              static_cast<uint32_t>(sizeof(T));
    if (per_page == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    PageId first_page = kInvalidPageId;
    PinnedPage pin;
    for (uint64_t pos = 0; pos < records.size(); ++pos) {
      const uint32_t slot = static_cast<uint32_t>(pos % per_page);
      if (slot == 0) {
        StatusOr<PageId> id = pool->Allocate(&pin);
        if (!id.ok()) return id.status();
        if (first_page == kInvalidPageId) first_page = *id;
      }
      pin.MutablePage().Write(slot * sizeof(T), &records[pos], sizeof(T));
    }
    pin.Release();
    if (records.empty()) {
      StatusOr<PageId> id = pool->Allocate(&pin);
      if (!id.ok()) return id.status();
      first_page = *id;
    }
    return RecordStore(pool, first_page, records.size(), per_page);
  }

  /// Re-attaches a store persisted by Save against the on-disk pages:
  /// the catalog records `first_page` and `num_records`; the layout is
  /// a pure function of those plus the page size.
  static StatusOr<RecordStore> Attach(BufferPool* pool, PageId first_page,
                                      uint64_t num_records) {
    const uint32_t per_page = pool->file()->page_size() /
                              static_cast<uint32_t>(sizeof(T));
    if (per_page == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    return RecordStore(pool, first_page, num_records, per_page);
  }

  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  PageId first_page() const { return first_page_; }
  uint64_t size() const { return num_records_; }
  uint32_t records_per_page() const { return per_page_; }
  uint64_t num_pages() const {
    return num_records_ == 0 ? 1
                             : (num_records_ + per_page_ - 1) / per_page_;
  }

  Status Get(uint64_t pos, T* out) const {
    if (pos >= num_records_) {
      return Status::OutOfRange("record position out of range");
    }
    PinnedPage pin;
    FIELDDB_RETURN_IF_ERROR(
        pool_->Fetch(first_page_ + pos / per_page_, &pin));
    pin.page().Read(static_cast<uint32_t>(pos % per_page_) * sizeof(T),
                    out, sizeof(T));
    return Status::OK();
  }

  Status Put(uint64_t pos, const T& record) {
    if (pos >= num_records_) {
      return Status::OutOfRange("record position out of range");
    }
    PinnedPage pin;
    FIELDDB_RETURN_IF_ERROR(
        pool_->Fetch(first_page_ + pos / per_page_, &pin));
    pin.MutablePage().Write(
        static_cast<uint32_t>(pos % per_page_) * sizeof(T), &record,
        sizeof(T));
    return Status::OK();
  }

  /// Visits positions [begin, end), touching each page once. The visitor
  /// may return false to stop early.
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<bool(uint64_t, const T&)>& visit) const {
    if (begin > end || end > num_records_) {
      return Status::OutOfRange("scan range out of bounds");
    }
    T record;
    uint64_t pos = begin;
    while (pos < end) {
      PinnedPage pin;
      FIELDDB_RETURN_IF_ERROR(
          pool_->Fetch(first_page_ + pos / per_page_, &pin));
      const uint64_t page_end =
          std::min<uint64_t>(end, (pos / per_page_ + 1) * per_page_);
      for (; pos < page_end; ++pos) {
        pin.page().Read(
            static_cast<uint32_t>(pos % per_page_) * sizeof(T), &record,
            sizeof(T));
        if (!visit(pos, record)) return Status::OK();
      }
    }
    return Status::OK();
  }

  /// The indexed fetch of the extension stores: visits every slot covered
  /// by `runs` — a subfield index's hits, in any order and possibly
  /// overlapping — exactly once, in ascending position order, adding
  /// the slots visited to `*candidates`. Sorts `runs` in place. A
  /// visitor returning false stops the whole fetch.
  template <typename Visitor>
  Status ScanCoveredRuns(std::vector<PosRange>* runs, uint64_t* candidates,
                         Visitor&& visit) const {
    std::sort(runs->begin(), runs->end(),
              [](const PosRange& x, const PosRange& y) {
                return x.begin < y.begin ||
                       (x.begin == y.begin && x.end < y.end);
              });
    bool stopped = false;
    uint64_t covered_to = 0;
    for (const PosRange& r : *runs) {
      const uint64_t begin = std::max(r.begin, covered_to);
      if (begin < r.end) {
        *candidates += r.end - begin;
        FIELDDB_RETURN_IF_ERROR(
            Scan(begin, r.end, [&](uint64_t pos, const T& record) {
              stopped = !visit(pos, record);
              return !stopped;
            }));
        if (stopped) return Status::OK();
      }
      covered_to = std::max(covered_to, r.end);
    }
    return Status::OK();
  }

 private:
  RecordStore(BufferPool* pool, PageId first_page, uint64_t num_records,
              uint32_t per_page)
      : pool_(pool), first_page_(first_page), num_records_(num_records),
        per_page_(per_page) {}

  BufferPool* pool_;
  PageId first_page_;
  uint64_t num_records_;
  uint32_t per_page_;
};

/// Streaming counterpart of RecordStore::Build for producers that never
/// hold all records in RAM (the external-sort merge): records arrive one
/// at a time via Append and Finish() returns a store whose page layout is
/// byte-identical to Build over the same sequence.
template <typename T>
class RecordStoreAppender {
 public:
  explicit RecordStoreAppender(BufferPool* pool) : pool_(pool) {
    per_page_ = pool->file()->page_size() /
                static_cast<uint32_t>(sizeof(T));
  }

  RecordStoreAppender(const RecordStoreAppender&) = delete;
  RecordStoreAppender& operator=(const RecordStoreAppender&) = delete;

  Status Append(const T& record) {
    if (per_page_ == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    const uint32_t slot = static_cast<uint32_t>(num_records_ % per_page_);
    if (slot == 0) {
      StatusOr<PageId> id = pool_->Allocate(&pin_);
      if (!id.ok()) return id.status();
      if (first_page_ == kInvalidPageId) first_page_ = *id;
    }
    pin_.MutablePage().Write(slot * sizeof(T), &record, sizeof(T));
    ++num_records_;
    return Status::OK();
  }

  uint64_t size() const { return num_records_; }

  StatusOr<RecordStore<T>> Finish() {
    if (per_page_ == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    pin_.Release();
    if (num_records_ == 0) {
      StatusOr<PageId> id = pool_->Allocate(&pin_);
      if (!id.ok()) return id.status();
      first_page_ = *id;
      pin_.Release();
    }
    return RecordStore<T>::Attach(pool_, first_page_, num_records_);
  }

 private:
  BufferPool* pool_;
  uint32_t per_page_ = 0;
  PageId first_page_ = kInvalidPageId;
  uint64_t num_records_ = 0;
  PinnedPage pin_;
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_RECORD_STORE_H_
