#include "index/cell_store.h"

#include <cstring>

namespace fielddb {

CellStore::Appender::Appender(BufferPool* pool, uint64_t num_cells)
    : store_(pool, kInvalidPageId, num_cells,
             pool->file()->page_size() /
                 static_cast<uint32_t>(sizeof(CellRecord)),
             std::vector<uint64_t>(num_cells, ~uint64_t{0})) {}

Status CellStore::Appender::Append(const CellRecord& record) {
  if (store_.cells_per_page_ == 0) {
    return Status::InvalidArgument("page too small for a cell record");
  }
  if (pos_ >= store_.num_cells_) {
    return Status::OutOfRange("appended past the declared cell count");
  }
  const uint32_t slot =
      static_cast<uint32_t>(pos_ % store_.cells_per_page_);
  if (slot == 0) {
    StatusOr<PageId> id = store_.pool_->Allocate(&pin_);
    if (!id.ok()) return id.status();
    if (store_.first_page_ == kInvalidPageId) store_.first_page_ = *id;
  }
  if (record.id >= store_.num_cells_ ||
      store_.position_of_[record.id] != ~uint64_t{0}) {
    return Status::InvalidArgument("order is not a permutation");
  }
  store_.position_of_[record.id] = pos_;
  store_.zones_.Append(record.Interval());
  pin_.MutablePage().Write(slot * sizeof(CellRecord), &record,
                           sizeof(CellRecord));
  ++pos_;
  return Status::OK();
}

StatusOr<CellStore> CellStore::Appender::Finish() {
  if (store_.cells_per_page_ == 0) {
    return Status::InvalidArgument("page too small for a cell record");
  }
  if (pos_ != store_.num_cells_) {
    return Status::InvalidArgument("appended fewer cells than declared");
  }
  pin_.Release();
  if (store_.num_cells_ == 0) {
    // Allocate one (empty) page so first_page_ is always valid.
    StatusOr<PageId> id = store_.pool_->Allocate(&pin_);
    if (!id.ok()) return id.status();
    store_.first_page_ = *id;
    pin_.Release();
  }
  return std::move(store_);
}

StatusOr<CellStore> CellStore::Build(BufferPool* pool, const Field& field,
                                     const std::vector<CellId>& order) {
  const uint64_t n = field.NumCells();
  if (!order.empty() && order.size() != n) {
    return Status::InvalidArgument("order size does not match cell count");
  }
  Appender appender(pool, n);
  for (uint64_t pos = 0; pos < n; ++pos) {
    const CellId cell_id = order.empty() ? static_cast<CellId>(pos)
                                         : order[pos];
    if (cell_id >= n) {
      return Status::InvalidArgument("order is not a permutation");
    }
    FIELDDB_RETURN_IF_ERROR(appender.Append(field.GetCell(cell_id)));
  }
  return appender.Finish();
}

StatusOr<CellStore> CellStore::Attach(BufferPool* pool, PageId first_page,
                                      uint64_t num_cells) {
  const uint32_t per_page =
      pool->file()->page_size() / static_cast<uint32_t>(sizeof(CellRecord));
  if (per_page == 0) {
    return Status::InvalidArgument("page too small for a cell record");
  }
  CellStore store(pool, first_page, num_cells, per_page,
                  std::vector<uint64_t>(num_cells, ~uint64_t{0}));
  // One pass rebuilds both derived structures: the cell-id -> position
  // map and the zone map.
  FIELDDB_RETURN_IF_ERROR(store.ScanWith(
      0, num_cells, [&](uint64_t pos, const CellRecord& cell) {
        // A record no Build wrote ends the scan (the id check fails).
        if (cell.num_vertices > 4) return false;
        if (cell.id < num_cells) store.position_of_[cell.id] = pos;
        store.zones_.Append(cell.Interval());
        return true;
      }));
  for (const uint64_t pos : store.position_of_) {
    if (pos == ~uint64_t{0}) {
      return Status::Corruption("cell store is missing cell ids");
    }
  }
  return store;
}

uint64_t CellStore::num_pages() const {
  if (num_cells_ == 0) return 1;
  return (num_cells_ + cells_per_page_ - 1) / cells_per_page_;
}

Status CellStore::Get(uint64_t pos, CellRecord* out) const {
  if (pos >= num_cells_) {
    return Status::OutOfRange("cell position out of range");
  }
  const PageId page = first_page_ + pos / cells_per_page_;
  const uint32_t slot = static_cast<uint32_t>(pos % cells_per_page_);
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
  pin.page().Read(slot * sizeof(CellRecord), out, sizeof(CellRecord));
  return Status::OK();
}

Status CellStore::Put(uint64_t pos, const CellRecord& record) {
  if (pos >= num_cells_) {
    return Status::OutOfRange("cell position out of range");
  }
  CellRecord current;
  FIELDDB_RETURN_IF_ERROR(Get(pos, &current));
  if (record.id != current.id ||
      record.num_vertices != current.num_vertices) {
    return Status::InvalidArgument(
        "Put must preserve the slot's cell id and vertex count");
  }
  const PageId page = first_page_ + pos / cells_per_page_;
  const uint32_t slot = static_cast<uint32_t>(pos % cells_per_page_);
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
  pin.MutablePage().Write(slot * sizeof(CellRecord), &record,
                          sizeof(CellRecord));
  zones_.Set(pos, record.Interval());
  return Status::OK();
}

Status CellStore::UpdateValues(uint64_t pos,
                               const std::vector<double>& values,
                               ValueInterval* old_iv, ValueInterval* new_iv) {
  if (pos >= num_cells_) {
    return Status::OutOfRange("cell position out of range");
  }
  const PageId page = first_page_ + pos / cells_per_page_;
  const uint32_t slot = static_cast<uint32_t>(pos % cells_per_page_);
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
  CellRecord record;
  pin.page().Read(slot * sizeof(CellRecord), &record, sizeof(CellRecord));
  if (values.size() != record.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(record.num_vertices) + " values, got " +
        std::to_string(values.size()));
  }
  *old_iv = record.Interval();
  for (uint32_t i = 0; i < record.num_vertices; ++i) {
    record.w[i] = values[i];
  }
  *new_iv = record.Interval();
  pin.MutablePage().Write(slot * sizeof(CellRecord), &record,
                          sizeof(CellRecord));
  zones_.Set(pos, *new_iv);
  return Status::OK();
}

Status CellStore::Scan(
    uint64_t begin, uint64_t end,
    const std::function<bool(uint64_t, const CellRecord&)>& visit) const {
  return ScanWith(begin, end, visit);
}

}  // namespace fielddb
