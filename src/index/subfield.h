#ifndef FIELDDB_INDEX_SUBFIELD_H_
#define FIELDDB_INDEX_SUBFIELD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "index/zone_map.h"

namespace fielddb {

/// A subfield: a run [start, end) of consecutive positions in the
/// linearized (curve-ordered) cell store, together with the hull of all
/// values inside those cells — a 1-D MBR for scalar fields, a (u, v) box
/// for vector fields (D=2). This is what I-Hilbert indexes instead of
/// individual cells (paper Section 3).
template <int D>
struct SubfieldOf {
  uint64_t start = 0;               // first slot (inclusive)
  uint64_t end = 0;                 // one past the last slot
  ValueSummary<D> interval{};       // hull of the member cells' summaries
  double sum_interval_sizes = 0.0;  // SI: sum of member SummarySize

  uint64_t NumCells() const { return end - start; }
};
using Subfield = SubfieldOf<1>;

/// Parameters of the cost function C = P / SI with P = L + q̄ (paper
/// Section 3.1, after Kamel & Faloutsos [14]). The only subfield cost
/// configuration: scalar and vector partitions read the same fields.
struct SubfieldCostConfig {
  /// q̄: the assumed average query-interval length as a fraction of the
  /// normalized value space. The paper fixes 0.5.
  double avg_query_fraction = 0.5;
  /// When true, interval lengths are normalized by the field's value
  /// range, matching the paper's `P = L + 0.5` on a [0,1] value space.
  /// When false, raw interval sizes are used with no q̄ term — the
  /// arithmetic of the paper's own worked example (Fig. 5: cost
  /// 21/(11+10+11+13) ≈ 0.466 before inserting c5, 31/58 ≈ 0.534 after).
  bool normalize = true;
};

/// The cost model of Section 3.1 over D value components, after the
/// D-dimensional case of Kamel & Faloutsos [14]: a hull with extents
/// L_d is touched by the average query with probability
/// P = Π_d (L_d + q̄·R_d), R_d the value range of component d, so
/// C = P / SI with SI the sum of the members' SummarySize. For D=1 this
/// is the paper's (L + q̄·R) / SI, evaluated in the same order.
template <int D>
class SubfieldCostModelOf {
 public:
  /// `value_range` is the hull of all cell summaries in the field; used
  /// for normalization (ignored when `config.normalize` is false).
  SubfieldCostModelOf(const ValueSummary<D>& value_range,
                      const SubfieldCostConfig& config);

  /// Cost C = P / SI of a (hypothetical) subfield.
  double Cost(const ValueSummary<D>& hull, double sum_interval_sizes) const;

  /// The paper's insertion test: true when appending a cell with summary
  /// `cell` to `current` strictly decreases the subfield's cost.
  bool ShouldAppend(const SubfieldOf<D>& current,
                    const ValueSummary<D>& cell) const;

 private:
  /// q̄·R_d per component: the fixed access probability every subfield
  /// pays, which is what rewards grouping cells (it gets amortized over
  /// a larger SI). 0 when not normalizing.
  std::array<double, D> fixed_;
};
using SubfieldCostModel = SubfieldCostModelOf<1>;

/// Streaming subfield partitioner: cells arrive one at a time in
/// linearized order (the external-sort merge feeds it without ever
/// materializing all summaries) and Finish() seals the last subfield and
/// records the partition-shape telemetry. BuildSubfields is a thin
/// wrapper over this, so streamed and vector builds produce identical
/// partitions by construction.
template <int D>
class SubfieldStreamBuilderOf {
 public:
  SubfieldStreamBuilderOf(const ValueSummary<D>& value_range,
                          const SubfieldCostConfig& config);

  /// Appends the next cell's value summary (slot = number of cells added
  /// so far), growing the open subfield or sealing it per the paper's
  /// insertion rule.
  void Add(const ValueSummary<D>& cell);

  /// Seals the open subfield, records telemetry, and returns the
  /// partition. The builder is consumed.
  std::vector<SubfieldOf<D>> Finish();

 private:
  SubfieldCostModelOf<D> model_;
  std::vector<SubfieldOf<D>> subfields_;
  SubfieldOf<D> current_;
  uint64_t num_cells_ = 0;
};
using SubfieldStreamBuilder = SubfieldStreamBuilderOf<1>;

/// Builds the full subfield partition of a linearized cell sequence:
/// `cells[pos]` is the value summary of the cell at slot `pos`. Every
/// cell lands in exactly one subfield and subfields are contiguous and
/// ordered (start_0 = 0, start_{i+1} = end_i, end_last = n).
template <typename S>
std::vector<SubfieldOf<kSummaryDim<S>>> BuildSubfields(
    const std::vector<S>& cells, const S& value_range,
    const SubfieldCostConfig& config) {
  SubfieldStreamBuilderOf<kSummaryDim<S>> builder(value_range, config);
  for (const S& cell : cells) builder.Add(cell);
  return builder.Finish();
}

extern template class SubfieldCostModelOf<1>;
extern template class SubfieldCostModelOf<2>;
extern template class SubfieldStreamBuilderOf<1>;
extern template class SubfieldStreamBuilderOf<2>;

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_H_
