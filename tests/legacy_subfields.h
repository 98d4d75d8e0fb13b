// Test oracle: the subfield builders as they were before the cost model,
// builder and subfield type became one template over the value
// dimension — the scalar builder over ValueInterval and the separate
// vector builder over (u, v) boxes, each with its own cost arithmetic.
// Differential tests assert the templated builder reproduces both bit for
// bit (same starts and ends, same hull and size-sum doubles).

#ifndef FIELDDB_TESTS_LEGACY_SUBFIELDS_H_
#define FIELDDB_TESTS_LEGACY_SUBFIELDS_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "rtree/box.h"

namespace fielddb {
namespace legacy {

struct ScalarSubfield {
  uint64_t start = 0;
  uint64_t end = 0;
  ValueInterval interval;
  double sum_interval_sizes = 0.0;
};

/// The scalar builder: C = (L + q̄·R) / SI with q̄·R dropped when not
/// normalizing.
inline std::vector<ScalarSubfield> BuildScalarSubfields(
    const std::vector<ValueInterval>& cells, const ValueInterval& value_range,
    double avg_query_fraction, bool normalize) {
  double range_size = value_range.IsEmpty() ? 1.0 : value_range.PaperSize();
  if (range_size <= 0.0) range_size = 1.0;
  const auto cost = [&](const ValueInterval& iv, double sum) {
    const double fixed = normalize ? avg_query_fraction * range_size : 0.0;
    return (iv.PaperSize() + fixed) / sum;
  };
  std::vector<ScalarSubfield> out;
  ScalarSubfield current;
  for (uint64_t pos = 0; pos < cells.size(); ++pos) {
    const ValueInterval& cell = cells[pos];
    if (pos == 0) {
      current = {0, 1, cell, cell.PaperSize()};
      continue;
    }
    const double before = cost(current.interval, current.sum_interval_sizes);
    const double after =
        cost(ValueInterval::Hull(current.interval, cell),
             current.sum_interval_sizes + cell.PaperSize());
    if (before > after) {
      current.end = pos + 1;
      current.interval.Extend(cell);
      current.sum_interval_sizes += cell.PaperSize();
    } else {
      out.push_back(current);
      current = {pos, pos + 1, cell, cell.PaperSize()};
    }
  }
  if (!cells.empty()) out.push_back(current);
  return out;
}

struct BoxSubfield {
  uint64_t start = 0;
  uint64_t end = 0;
  Box<2> box = Box<2>::Empty();
  double sum_box_sizes = 0.0;
};

/// The vector builder: C = (Lu + q̄·Ru)(Lv + q̄·Rv) / SI, SI the sum of
/// the members' (u size) × (v size).
inline std::vector<BoxSubfield> BuildBoxSubfields(
    const std::vector<Box<2>>& cells, const Box<2>& value_range,
    double avg_query_fraction) {
  double range_u =
      value_range.IsEmpty() ? 1.0 : value_range.hi[0] - value_range.lo[0] + 1.0;
  double range_v =
      value_range.IsEmpty() ? 1.0 : value_range.hi[1] - value_range.lo[1] + 1.0;
  if (range_u <= 0) range_u = 1.0;
  if (range_v <= 0) range_v = 1.0;
  const auto size_of = [](const Box<2>& b) {
    return (b.hi[0] - b.lo[0] + 1.0) * (b.hi[1] - b.lo[1] + 1.0);
  };
  const auto cost = [&](const Box<2>& b, double sum) {
    const double q = avg_query_fraction;
    const double pu = (b.hi[0] - b.lo[0] + 1.0) + q * range_u;
    const double pv = (b.hi[1] - b.lo[1] + 1.0) + q * range_v;
    return pu * pv / sum;
  };
  std::vector<BoxSubfield> out;
  BoxSubfield current;
  for (uint64_t pos = 0; pos < cells.size(); ++pos) {
    const Box<2>& cell = cells[pos];
    const double size = size_of(cell);
    if (pos == 0) {
      current = {0, 1, cell, size};
      continue;
    }
    Box<2> merged = current.box;
    merged.Extend(cell);
    const double before = cost(current.box, current.sum_box_sizes);
    const double after = cost(merged, current.sum_box_sizes + size_of(cell));
    if (before > after) {
      current.end = pos + 1;
      current.box.Extend(cell);
      current.sum_box_sizes += size;
    } else {
      out.push_back(current);
      current = {pos, pos + 1, cell, size};
    }
  }
  if (!cells.empty()) out.push_back(current);
  return out;
}

}  // namespace legacy
}  // namespace fielddb

#endif  // FIELDDB_TESTS_LEGACY_SUBFIELDS_H_
