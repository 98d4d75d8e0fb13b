#ifndef FIELDDB_INDEX_ZONE_MAP_H_
#define FIELDDB_INDEX_ZONE_MAP_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/simd/interval_filter.h"
#include "rtree/box.h"

namespace fielddb {

/// The value summary of a cell (or of a subfield's hull) in a field with
/// D value components: a closed interval for scalar values (D=1: grid,
/// temporal slabs, volume) and a (u, v) box for vector values (D=2).
/// The zone map, the subfield cost model, builder and hull maintenance
/// are written once over D and reach a summary's bounds through
/// SummaryLo/SummaryHi.
template <int D>
struct ValueSummaryOf;
template <>
struct ValueSummaryOf<1> {
  using type = ValueInterval;
};
template <>
struct ValueSummaryOf<2> {
  using type = Box<2>;
};
template <int D>
using ValueSummary = typename ValueSummaryOf<D>::type;

/// D of a summary type (the inverse of ValueSummary).
template <typename S>
inline constexpr int kSummaryDim = 0;
template <>
inline constexpr int kSummaryDim<ValueInterval> = 1;
template <>
inline constexpr int kSummaryDim<Box<2>> = 2;

inline double SummaryLo(const ValueInterval& s, int) { return s.min; }
inline double SummaryHi(const ValueInterval& s, int) { return s.max; }
template <int D>
double SummaryLo(const Box<D>& s, int d) {
  return s.lo[d];
}
template <int D>
double SummaryHi(const Box<D>& s, int d) {
  return s.hi[d];
}

/// The paper's interval size generalized to D components: the product of
/// the per-component sizes hi - lo + 1 (Section 3.1; for D=1 exactly
/// ValueInterval::PaperSize), 0 for an empty summary.
template <typename S>
double SummarySize(const S& s) {
  if (s.IsEmpty()) return 0.0;
  double size = 1.0;
  for (int d = 0; d < kSummaryDim<S>; ++d) {
    size *= SummaryHi(s, d) - SummaryLo(s, d) + 1.0;
  }
  return size;
}

/// Intersects two sorted, disjoint run lists (the standard two-pointer
/// merge), appending to `*out`. Exposed for tests.
void IntersectRanges(const std::vector<PosRange>& a,
                     const std::vector<PosRange>& b,
                     std::vector<PosRange>* out);

/// The strided zone-map sample (see ZoneMap::Probe).
struct ZoneProbe {
  uint64_t sampled = 0;     // slots tested
  uint64_t matched = 0;     // tested slots intersecting the query
  uint64_t run_starts = 0;  // matches whose previous sample missed —
                            // an estimate of the candidate run count
};

/// The per-slot zone map every field store keeps beside its pages: one
/// value summary per store position, in storage order, always equal to
/// the summary of the record at that slot. Stored SoA — one contiguous
/// min plane and one max plane per value component — so the SIMD
/// interval kernels stream the planes directly and a non-matching slot's
/// record is never deserialized. The map is derived, in-RAM state: built
/// with the store, rebuilt by the Open scan, maintained by every update,
/// so probing it costs no I/O (DESIGN.md §16).
template <int D>
class ZoneMap {
 public:
  static_assert(D == 1 || D == 2, "value summaries are intervals or boxes");
  using Summary = ValueSummary<D>;

  void Reserve(uint64_t n) {
    for (int d = 0; d < D; ++d) {
      mins_[d].reserve(n);
      maxs_[d].reserve(n);
    }
  }
  void Append(const Summary& s) {
    for (int d = 0; d < D; ++d) {
      mins_[d].push_back(SummaryLo(s, d));
      maxs_[d].push_back(SummaryHi(s, d));
    }
  }
  void Set(uint64_t pos, const Summary& s) {
    for (int d = 0; d < D; ++d) {
      mins_[d][pos] = SummaryLo(s, d);
      maxs_[d][pos] = SummaryHi(s, d);
    }
  }
  Summary At(uint64_t pos) const {
    if constexpr (D == 1) {
      return ValueInterval{mins_[0][pos], maxs_[0][pos]};
    } else {
      Summary s;
      for (int d = 0; d < D; ++d) {
        s.lo[d] = mins_[d][pos];
        s.hi[d] = maxs_[d][pos];
      }
      return s;
    }
  }
  uint64_t size() const { return mins_[0].size(); }

  /// The min / max plane of component `d` (size() doubles each).
  const double* mins(int d) const { return mins_[d].data(); }
  const double* maxs(int d) const { return maxs_[d].data(); }

  /// Appends the maximal runs of slots in [begin, end) whose summary
  /// intersects `query` (closed bounds; NaN never matches), as absolute
  /// positions. D=1 is one pass of the dispatched SIMD kernel; D=2
  /// filters each component plane and intersects the two run lists.
  void FilterRanges(const Summary& query, uint64_t begin, uint64_t end,
                    std::vector<PosRange>* out) const {
    if constexpr (D == 1) {
      FilterPlane(0, query, begin, end, out);
    } else {
      std::vector<PosRange> u_runs;
      std::vector<PosRange> v_runs;
      FilterPlane(0, query, begin, end, &u_runs);
      FilterPlane(1, query, begin, end, &v_runs);
      IntersectRanges(u_runs, v_runs, out);
    }
  }
  void FilterRanges(const Summary& query, std::vector<PosRange>* out) const {
    FilterRanges(query, 0, size(), out);
  }

  /// Strided sample, the planner's sublinear selectivity probe for stores
  /// too large for an exact FilterRanges sweep: tests every `stride`-th
  /// slot (stride 0 behaves as 1) with the kernels' predicate.
  ZoneProbe Probe(const Summary& query, uint64_t stride) const {
    ZoneProbe probe;
    if (stride == 0) stride = 1;
    bool prev_matched = false;
    for (uint64_t pos = 0; pos < size(); pos += stride) {
      ++probe.sampled;
      bool match = true;
      for (int d = 0; d < D; ++d) {
        match = match && mins_[d][pos] <= SummaryHi(query, d) &&
                maxs_[d][pos] >= SummaryLo(query, d);
      }
      if (match) {
        ++probe.matched;
        if (!prev_matched) ++probe.run_starts;
      }
      prev_matched = match;
    }
    return probe;
  }

 private:
  void FilterPlane(int d, const Summary& query, uint64_t begin, uint64_t end,
                   std::vector<PosRange>* out) const {
    simd::FilterIntervalRanges(mins_[d].data() + begin,
                               maxs_[d].data() + begin, end - begin, begin,
                               SummaryLo(query, d), SummaryHi(query, d), out);
  }

  std::array<std::vector<double>, D> mins_;
  std::array<std::vector<double>, D> maxs_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_ZONE_MAP_H_
