#ifndef FIELDDB_INDEX_CELL_STORE_H_
#define FIELDDB_INDEX_CELL_STORE_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "field/cell.h"
#include "field/field.h"
#include "index/zone_map.h"
#include "storage/buffer_pool.h"

namespace fielddb {

/// Cells serialized into fixed-slot pages in a caller-chosen order — the
/// physical clustering the paper requires: I-Hilbert stores cells in
/// Hilbert-value order so that a subfield's cells occupy a contiguous page
/// range addressable by (start, end) pointers (Fig. 6's leaf layout).
///
/// Positions are 0-based slots in storage order; `FieldCellId(pos)` maps a
/// slot back to the field's cell id (it is written inside each record).
///
/// Alongside the pages the store keeps its ZoneMap<1>: per slot, in
/// storage order, the record's value interval in SoA min/max planes. The
/// filter step runs its SIMD interval-intersection kernel over those
/// contiguous planes and never deserializes a record for a non-matching
/// slot. The zone map is derived state — Build fills it from the field,
/// Attach rebuilds it from the records it already scans, Put/UpdateValues
/// maintain it — so nothing about the page format or persistence
/// changes. Concurrency contract is the pages': any number of readers,
/// writers externally excluded (DESIGN.md §11).
class CellStore {
 public:
  /// Serializes `field`'s cells into `pool`'s file, visiting them in the
  /// order given by `order` (order[pos] = field cell id stored at slot
  /// pos). `order` must be a permutation of [0, field.NumCells()).
  /// Pass an empty `order` for the identity (native field order).
  static StatusOr<CellStore> Build(BufferPool* pool, const Field& field,
                                   const std::vector<CellId>& order);

  /// Streaming counterpart of Build for callers that produce records one
  /// slot at a time instead of holding a full order vector — the
  /// external-sort build feeds each merged record straight in. Append()
  /// exactly `num_cells` records in storage order, then Finish(). The
  /// page layout is byte-identical to Build's: Build itself is a loop
  /// over this class. Defined after the class (it holds a CellStore).
  class Appender;

  /// Re-attaches to a store persisted in `pool`'s file (pages
  /// [first_page, first_page + ceil(num_cells / per_page))). Scans the
  /// records once to rebuild the cell-id -> position map and the zone
  /// map.
  static StatusOr<CellStore> Attach(BufferPool* pool, PageId first_page,
                                    uint64_t num_cells);

  /// First page of the store within the pool's file (for persistence).
  PageId first_page() const { return first_page_; }

  CellStore(CellStore&&) = default;
  CellStore& operator=(CellStore&&) = default;
  CellStore(const CellStore&) = delete;
  CellStore& operator=(const CellStore&) = delete;

  /// Number of stored cells.
  uint64_t size() const { return num_cells_; }

  /// Cells per page for this pool's page size.
  uint32_t cells_per_page() const { return cells_per_page_; }

  /// Number of pages occupied by the store.
  uint64_t num_pages() const;

  /// Reads the record at slot `pos`.
  Status Get(uint64_t pos, CellRecord* out) const;

  /// Overwrites the record at slot `pos`. The record must keep the slot's
  /// cell id and vertex count (stores hold fixed cell geometry; only
  /// sample values change — e.g. a sensor re-measurement).
  Status Put(uint64_t pos, const CellRecord& record);

  /// Rewrites only the sample values of the record at slot `pos` and
  /// reports the value interval before and after — the update fast path
  /// shared by every index method (one page fetch instead of the
  /// Get + Put pair's three). `values.size()` must match the record's
  /// vertex count.
  Status UpdateValues(uint64_t pos, const std::vector<double>& values,
                      ValueInterval* old_iv, ValueInterval* new_iv);

  /// Visits slots [begin, end) in storage order, touching each page once.
  /// The visitor may return false to stop early.
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<bool(uint64_t pos, const CellRecord&)>&
                  visit) const;

  /// Scan with a statically-bound visitor — `visit(uint64_t pos, const
  /// CellRecord&) -> bool` — so hot loops (estimation, benches) pay no
  /// std::function indirection per record.
  template <typename Visitor>
  Status ScanWith(uint64_t begin, uint64_t end, Visitor&& visit) const {
    if (begin > end || end > num_cells_) {
      return Status::OutOfRange("scan range out of bounds");
    }
    CellRecord record;
    uint64_t pos = begin;
    while (pos < end) {
      const PageId page = first_page_ + pos / cells_per_page_;
      PinnedPage pin;
      FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
      const uint64_t page_end = std::min<uint64_t>(
          end, (pos / cells_per_page_ + 1) * cells_per_page_);
      for (; pos < page_end; ++pos) {
        const uint32_t slot = static_cast<uint32_t>(pos % cells_per_page_);
        pin.page().Read(slot * sizeof(CellRecord), &record,
                        sizeof(CellRecord));
        if (!visit(pos, record)) return Status::OK();
      }
    }
    return Status::OK();
  }

  /// Visits every slot of each run in `ranges` (ascending, disjoint),
  /// reading ahead the pool's readahead window (BufferPool::
  /// readahead_pages, FieldDatabaseOptions::readahead_pages) at a time
  /// so a run's pages are fetched in one vectored batch instead of one
  /// blocking read per page. I/O totals equal Scan-ing each run
  /// (readahead reads count as the physical reads Fetch would have
  /// issued).
  template <typename Visitor>
  Status ScanRanges(const PosRange* ranges, size_t num_ranges,
                    Visitor&& visit) const {
    CellRecord record;
    const uint64_t readahead = std::max<size_t>(pool_->readahead_pages(), 1);
    PageId prefetched_to = 0;
    for (size_t r = 0; r < num_ranges; ++r) {
      uint64_t pos = ranges[r].begin;
      const uint64_t end = ranges[r].end;
      if (pos > end || end > num_cells_) {
        return Status::OutOfRange("scan range out of bounds");
      }
      while (pos < end) {
        const uint64_t page_index = pos / cells_per_page_;
        const PageId page = first_page_ + page_index;
        if (page >= prefetched_to) {
          const uint64_t last_page = first_page_ + (end - 1) / cells_per_page_;
          const size_t window = static_cast<size_t>(
              std::min<uint64_t>(readahead, last_page - page + 1));
          FIELDDB_RETURN_IF_ERROR(pool_->PrefetchRange(page, window));
          prefetched_to = page + window;
        }
        PinnedPage pin;
        FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
        const uint64_t page_end =
            std::min<uint64_t>(end, (page_index + 1) * cells_per_page_);
        for (; pos < page_end; ++pos) {
          const uint32_t slot = static_cast<uint32_t>(pos % cells_per_page_);
          pin.page().Read(slot * sizeof(CellRecord), &record,
                          sizeof(CellRecord));
          if (!visit(pos, record)) return Status::OK();
        }
      }
    }
    return Status::OK();
  }

  /// ScanRanges with the zone-map filter fused in: every page of every
  /// run is still fetched (so I/O totals — and the paper's page-access
  /// semantics — are those of the unfiltered scan), but only slots whose
  /// zone interval intersects `query` are deserialized and visited.
  /// Non-matching slots are counted into `*skipped` (when non-null)
  /// without their records ever being touched. The zone test is exact
  /// (the zone entry IS the record's interval), so for visited cells
  /// `cell.Interval().Intersects(query)` always holds.
  template <typename Visitor>
  Status ScanRangesFiltered(const PosRange* ranges, size_t num_ranges,
                            const ValueInterval& query, uint64_t* skipped,
                            Visitor&& visit) const {
    CellRecord record;
    std::vector<PosRange> matches;
    const uint64_t readahead = std::max<size_t>(pool_->readahead_pages(), 1);
    PageId prefetched_to = 0;
    for (size_t r = 0; r < num_ranges; ++r) {
      const uint64_t begin = ranges[r].begin;
      const uint64_t end = ranges[r].end;
      if (begin > end || end > num_cells_) {
        return Status::OutOfRange("scan range out of bounds");
      }
      if (begin == end) continue;
      matches.clear();
      zones_.FilterRanges(query, begin, end, &matches);
      if (skipped != nullptr) {
        *skipped += (end - begin) - TotalRangeLength(matches);
      }
      size_t m = 0;
      const uint64_t last_page_index = (end - 1) / cells_per_page_;
      for (uint64_t page_index = begin / cells_per_page_;
           page_index <= last_page_index; ++page_index) {
        const PageId page = first_page_ + page_index;
        if (page >= prefetched_to) {
          const size_t window = static_cast<size_t>(std::min<uint64_t>(
              readahead, last_page_index - page_index + 1));
          FIELDDB_RETURN_IF_ERROR(pool_->PrefetchRange(page, window));
          prefetched_to = page + window;
        }
        PinnedPage pin;
        FIELDDB_RETURN_IF_ERROR(pool_->Fetch(page, &pin));
        const uint64_t page_begin = page_index * cells_per_page_;
        const uint64_t page_end = page_begin + cells_per_page_;
        while (m < matches.size() && matches[m].begin < page_end) {
          const uint64_t lo = std::max(matches[m].begin, page_begin);
          const uint64_t hi = std::min(matches[m].end, page_end);
          for (uint64_t pos = lo; pos < hi; ++pos) {
            const uint32_t slot =
                static_cast<uint32_t>(pos % cells_per_page_);
            pin.page().Read(slot * sizeof(CellRecord), &record,
                            sizeof(CellRecord));
            if (!visit(pos, record)) return Status::OK();
          }
          if (matches[m].end <= page_end) {
            ++m;
          } else {
            break;  // run continues on the next page
          }
        }
      }
    }
    return Status::OK();
  }

  /// The zone map: per-slot record intervals in storage order (each
  /// entry equals the slot's record Interval() at all times). Filtering
  /// it is pure in-memory work: no page I/O, no record deserialization.
  const ZoneMap<1>& zone_map() const { return zones_; }

  /// Slot position of a field cell id (inverse of the build order).
  uint64_t PositionOf(CellId field_cell_id) const {
    return position_of_[field_cell_id];
  }

 private:
  CellStore(BufferPool* pool, PageId first_page, uint64_t num_cells,
            uint32_t cells_per_page, std::vector<uint64_t> position_of)
      : pool_(pool), first_page_(first_page), num_cells_(num_cells),
        cells_per_page_(cells_per_page),
        position_of_(std::move(position_of)) {
    zones_.Reserve(num_cells);
  }

  BufferPool* pool_;
  PageId first_page_;
  uint64_t num_cells_;
  uint32_t cells_per_page_;
  std::vector<uint64_t> position_of_;
  ZoneMap<1> zones_;
};

class CellStore::Appender {
 public:
  Appender(BufferPool* pool, uint64_t num_cells);
  /// Writes `record` at the next slot; allocates a page per
  /// cells_per_page() records. Validates the same permutation invariant
  /// Build does (each cell id stored exactly once).
  Status Append(const CellRecord& record);
  /// Slots appended so far.
  uint64_t size() const { return pos_; }
  StatusOr<CellStore> Finish();

 private:
  CellStore store_;
  PinnedPage pin_;
  uint64_t pos_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_CELL_STORE_H_
