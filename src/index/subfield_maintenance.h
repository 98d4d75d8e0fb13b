#ifndef FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
#define FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "index/subfield.h"
#include "index/zone_map.h"
#include "rtree/rstar_tree.h"

namespace fielddb {

/// Index of the subfield whose [start, end) range contains store
/// position `pos`. Subfields are the contiguous ordered partition the
/// builders produce (Open checks a catalog's rows tile the store); a
/// position no row covers is kCorruption, never an out-of-range index.
template <int D>
StatusOr<size_t> SubfieldContaining(const std::vector<SubfieldOf<D>>& subfields,
                                    uint64_t pos) {
  // First subfield whose end exceeds pos; in a partition that
  // subfield's start is <= pos.
  const auto it = std::upper_bound(
      subfields.begin(), subfields.end(), pos,
      [](uint64_t p, const SubfieldOf<D>& sf) { return p < sf.end; });
  if (it == subfields.end() || pos < it->start) {
    return Status::Corruption("no subfield covers store position " +
                              std::to_string(pos));
  }
  return static_cast<size_t>(it - subfields.begin());
}

/// The R*-tree entry of a subfield in the run-keyed trees (grid I-Hilbert
/// and I-Quadtree, vector, volume): its hull, keyed by its [start, end)
/// run, as the paper's leaf layout (Fig. 6).
template <int D>
RTreeEntry<D> SubfieldEntry(size_t /*index*/, const SubfieldOf<D>& sf) {
  RTreeEntry<D> e;
  if constexpr (D == 1) {
    e.box = BoxFromInterval(sf.interval);
  } else {
    e.box = sf.interval;
  }
  e.a = sf.start;
  e.b = sf.end;
  return e;
}

/// The run-keyed tree entries of a whole partition, in partition (curve)
/// order — the packing order BulkLoad expects.
template <int D>
std::vector<RTreeEntry<D>> SubfieldEntries(
    const std::vector<SubfieldOf<D>>& subfields) {
  std::vector<RTreeEntry<D>> entries;
  entries.reserve(subfields.size());
  for (size_t i = 0; i < subfields.size(); ++i) {
    entries.push_back(SubfieldEntry(i, subfields[i]));
  }
  return entries;
}

/// The one hull-maintenance rule of every subfield index: after the slot
/// at store position `pos` changed values (and `zones` already holds its
/// new summary), recomputes the containing subfield's hull and SI from
/// its members' zone-map summaries — the exact record summaries, so no
/// page is read — and, if the hull moved, replaces the subfield's entry
/// in `tree`. `entry_of(index, subfield)` names that entry (SubfieldEntry
/// for run-keyed trees; the temporal index keys by slab and index).
template <int D, int TreeDim, typename EntryOf>
Status RefreshSubfieldHull(const ZoneMap<D>& zones, RStarTree<TreeDim>* tree,
                           std::vector<SubfieldOf<D>>* subfields, uint64_t pos,
                           EntryOf&& entry_of) {
  const StatusOr<size_t> si = SubfieldContaining(*subfields, pos);
  if (!si.ok()) return si.status();
  SubfieldOf<D>& sf = (*subfields)[*si];
  if (sf.end > zones.size()) {
    return Status::Corruption("subfield extends past the store");
  }
  SubfieldOf<D> refreshed = sf;
  refreshed.interval = ValueSummary<D>::Empty();
  refreshed.sum_interval_sizes = 0.0;
  for (uint64_t p = sf.start; p < sf.end; ++p) {
    const ValueSummary<D> member = zones.At(p);
    refreshed.interval.Extend(member);
    refreshed.sum_interval_sizes += SummarySize(member);
  }
  if (refreshed.interval != sf.interval) {
    const auto old_entry = entry_of(*si, sf);
    const auto new_entry = entry_of(*si, refreshed);
    FIELDDB_RETURN_IF_ERROR(
        tree->Delete(old_entry.box, old_entry.a, old_entry.b));
    FIELDDB_RETURN_IF_ERROR(
        tree->Insert(new_entry.box, new_entry.a, new_entry.b));
  }
  sf = refreshed;
  return Status::OK();
}

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
