#include "index/subfield.h"

#include <cassert>

#include "obs/metrics.h"

namespace fielddb {

template <int D>
SubfieldCostModelOf<D>::SubfieldCostModelOf(
    const ValueSummary<D>& value_range, const SubfieldCostConfig& config) {
  for (int d = 0; d < D; ++d) {
    double range = value_range.IsEmpty() ? 1.0
                                         : SummaryHi(value_range, d) -
                                               SummaryLo(value_range, d) + 1.0;
    if (range <= 0.0) range = 1.0;
    fixed_[d] = config.normalize ? config.avg_query_fraction * range : 0.0;
  }
}

template <int D>
double SubfieldCostModelOf<D>::Cost(const ValueSummary<D>& hull,
                                    double sum_interval_sizes) const {
  assert(sum_interval_sizes > 0.0);
  // With normalization, per component (L/R + q̄) = (L + q̄·R) / R, and the
  // R factors cancel against SI's, leaving Π (L + q̄·R) / SI.
  const bool empty = hull.IsEmpty();
  double p = 1.0;
  for (int d = 0; d < D; ++d) {
    p *= (empty ? 0.0 : SummaryHi(hull, d) - SummaryLo(hull, d) + 1.0) +
         fixed_[d];
  }
  return p / sum_interval_sizes;
}

template <int D>
bool SubfieldCostModelOf<D>::ShouldAppend(const SubfieldOf<D>& current,
                                          const ValueSummary<D>& cell) const {
  const double cost_before =
      Cost(current.interval, current.sum_interval_sizes);
  ValueSummary<D> merged = current.interval;
  merged.Extend(cell);
  const double cost_after =
      Cost(merged, current.sum_interval_sizes + SummarySize(cell));
  // Paper Section 3.1: "This insertion can be executed only if Ca > Cb";
  // on Ca <= Cb a new subfield starts.
  return cost_before > cost_after;
}

template <int D>
SubfieldStreamBuilderOf<D>::SubfieldStreamBuilderOf(
    const ValueSummary<D>& value_range, const SubfieldCostConfig& config)
    : model_(value_range, config) {}

template <int D>
void SubfieldStreamBuilderOf<D>::Add(const ValueSummary<D>& cell) {
  const uint64_t pos = num_cells_++;
  if (pos > 0 && model_.ShouldAppend(current_, cell)) {
    current_.end = pos + 1;
    current_.interval.Extend(cell);
    current_.sum_interval_sizes += SummarySize(cell);
    return;
  }
  if (pos > 0) subfields_.push_back(current_);
  current_.start = pos;
  current_.end = pos + 1;
  current_.interval = cell;
  current_.sum_interval_sizes = SummarySize(cell);
}

template <int D>
std::vector<SubfieldOf<D>> SubfieldStreamBuilderOf<D>::Finish() {
  if (num_cells_ == 0) return std::move(subfields_);
  subfields_.push_back(current_);

  // Partition-shape telemetry: the subfield count and size distribution
  // are what the paper's cost model trades off (few large subfields =>
  // cheap tree, many false positives), so expose them per build.
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("subfield.builds")->Increment();
  reg.GetCounter("subfield.subfields_built")->Increment(subfields_.size());
  reg.GetGauge("subfield.last_partition_size")
      ->Set(static_cast<double>(subfields_.size()));
  Histogram* sizes = reg.GetHistogram("subfield.cells_per_subfield");
  for (const SubfieldOf<D>& sf : subfields_) {
    sizes->Record(static_cast<double>(sf.NumCells()));
  }
  return std::move(subfields_);
}

template class SubfieldCostModelOf<1>;
template class SubfieldCostModelOf<2>;
template class SubfieldStreamBuilderOf<1>;
template class SubfieldStreamBuilderOf<2>;

}  // namespace fielddb
