#ifndef FIELDDB_FIELD_INTERPOLATION_H_
#define FIELDDB_FIELD_INTERPOLATION_H_

#include <cmath>

#include "common/geometry.h"
#include "common/status.h"
#include "field/cell.h"

namespace fielddb {

/// True when `p` lies inside (or on the boundary of) `cell`.
bool CellContains(const CellRecord& cell, Point2 p);

/// Interpolates the field value at `p`, which must lie inside the cell
/// (returns OutOfRange otherwise): barycentric for triangles, bilinear for
/// quads — the "simple linear interpolation" of the paper's experiments.
StatusOr<double> InterpolateCell(const CellRecord& cell, Point2 p);

/// Coefficients of the affine function w(p) = gx*x + gy*y + c through a
/// triangle's three sample points.
struct LinearCoeffs {
  double gx = 0.0;
  double gy = 0.0;
  double c = 0.0;

  double Eval(Point2 p) const { return gx * p.x + gy * p.y + c; }
};

/// Fits the plane through the triangle's vertices. Degenerate triangles
/// (zero area) yield InvalidArgument. Inline: the estimation step calls
/// it for every sub-triangle it clips.
inline StatusOr<LinearCoeffs> FitTrianglePlane(Point2 a, double wa, Point2 b,
                                               double wb, Point2 c,
                                               double wc) {
  const double denom = Cross(b - a, c - a);
  if (std::abs(denom) < kGeomEpsilon * kGeomEpsilon) {
    return Status::InvalidArgument("degenerate triangle");
  }
  LinearCoeffs lc;
  lc.gx = ((wb - wa) * (c.y - a.y) - (wc - wa) * (b.y - a.y)) / denom;
  lc.gy = ((wc - wa) * (b.x - a.x) - (wb - wa) * (c.x - a.x)) / denom;
  lc.c = wa - lc.gx * a.x - lc.gy * a.y;
  return lc;
}

}  // namespace fielddb

#endif  // FIELDDB_FIELD_INTERPOLATION_H_
