// Temporal scenario: tracking a pressure anomaly ("storm") across a
// time-varying field — the spatio-temporal coordinate the paper's field
// model allows (Section 2.1). Builds one space-time index over all
// snapshots and asks, at a sweep of times, where the pressure is below a
// storm threshold — watching the anomaly grow, move and fade.
//
// Run:  ./build/examples/storm_tracking

#include <cmath>
#include <cstdio>

#include "gen/fractal.h"
#include "temporal/temporal_index.h"

int main() {
  using namespace fielddb;

  // Background pressure surface + a moving low-pressure anomaly.
  const uint32_t n = 64;
  const uint32_t num_snapshots = 9;
  FractalOptions fo;
  fo.size_exp = 6;
  fo.roughness_h = 0.85;
  fo.seed = 99;
  const std::vector<double> background = DiamondSquare(fo);

  std::vector<std::vector<double>> snapshots(num_snapshots);
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    snapshots[k].resize(background.size());
    // Storm center drifts along the diagonal; depth peaks mid-sequence.
    const double cx = 0.15 + 0.08 * k;
    const double cy = 0.2 + 0.07 * k;
    const double depth =
        6.0 * std::exp(-0.5 * (k - 4.0) * (k - 4.0) / 4.0);
    size_t s = 0;
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i, ++s) {
        const double x = static_cast<double>(i) / n;
        const double y = static_cast<double>(j) / n;
        const double d2 =
            (x - cx) * (x - cx) + (y - cy) * (y - cy);
        snapshots[k][s] = 1010.0 + 4.0 * background[s] -
                          depth * std::exp(-d2 / 0.02);
      }
    }
  }

  StatusOr<TemporalGridField> field = TemporalGridField::Create(
      n, n, Rect2{{0, 0}, {1, 1}}, std::move(snapshots));
  if (!field.ok()) {
    std::fprintf(stderr, "field: %s\n",
                 field.status().ToString().c_str());
    return 1;
  }

  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(*field, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "pressure field: %u cells x %u snapshots, %u slabs, %llu "
      "space-time subfields, range %s hPa\n",
      field->NumCells(), field->NumSnapshots(), (*db)->num_slabs(),
      static_cast<unsigned long long>((*db)->num_subfields()),
      field->ValueRange().ToString().c_str());

  // Sweep time and report the storm footprint (pressure < 1005 hPa).
  const ValueInterval storm{field->ValueRange().min, 1005.0};
  std::printf("\n%-6s %12s %10s %12s\n", "t", "storm_area", "cells",
              "centroid");
  for (double t = 0.0; t <= 8.0; t += 1.0) {
    ValueQueryResult result;
    const Status s = (*db)->SnapshotValueQuery(t, storm, &result);
    if (!s.ok()) {
      std::fprintf(stderr, "query: %s\n", s.ToString().c_str());
      return 1;
    }
    Point2 centroid{0, 0};
    if (!result.region.IsEmpty()) {
      double area = 0;
      for (const PolygonView piece : result.region.pieces) {
        const double a = piece.Area();
        const Point2 c = piece.Centroid();
        centroid.x += c.x * a;
        centroid.y += c.y * a;
        area += a;
      }
      if (area > 0) {
        centroid.x /= area;
        centroid.y /= area;
      }
    }
    std::printf("%-6.1f %12.5f %10llu   (%.2f, %.2f)\n", t,
                result.region.TotalArea(),
                static_cast<unsigned long long>(
                    result.stats.answer_cells),
                centroid.x, centroid.y);
  }

  // Which cells were ever inside the storm during the middle of the
  // event? (time-range filtering)
  std::vector<CellId> touched;
  if (!(*db)->TimeRangeCandidates(storm, 2.0, 6.0, &touched).ok()) {
    return 1;
  }
  std::printf(
      "\ncells possibly below 1005 hPa at some moment of t in [2, 6]: "
      "%zu of %u\n",
      touched.size(), field->NumCells());
  return 0;
}
