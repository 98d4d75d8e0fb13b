#include "common/geometry.h"

#include <algorithm>

namespace fielddb {

std::array<double, 3> Triangle2::Barycentric(Point2 p) const {
  const Point2 a = v[0], b = v[1], c = v[2];
  const double denom = Cross(b - a, c - a);
  if (std::abs(denom) < kGeomEpsilon * kGeomEpsilon) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  const double l1 = Cross(p - a, c - a) / denom;
  const double l2 = Cross(b - a, p - a) / denom;
  return {1.0 - l1 - l2, l1, l2};
}

bool Triangle2::Contains(Point2 p) const {
  const std::array<double, 3> l = Barycentric(p);
  // Scale the tolerance a little: barycentric coords of points on an edge
  // computed in floating point can be slightly negative.
  constexpr double tol = 1e-9;
  return l[0] >= -tol && l[1] >= -tol && l[2] >= -tol &&
         !std::isnan(l[0]);
}

double PolygonView::Area() const {
  if (IsEmpty()) return 0.0;
  double twice = 0.0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2 p = vertices[i];
    const Point2 q = vertices[(i + 1) % vertices.size()];
    twice += Cross(p, q);
  }
  return std::abs(twice) / 2.0;
}

Point2 PolygonView::Centroid() const {
  if (vertices.empty()) return {0, 0};
  if (vertices.size() < 3) {
    Point2 sum{0, 0};
    for (const Point2& p : vertices) sum = sum + p;
    return {sum.x / vertices.size(), sum.y / vertices.size()};
  }
  // Area-weighted centroid; falls back to the vertex mean for degenerate
  // (zero-area) polygons.
  double twice_area = 0.0;
  Point2 acc{0, 0};
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2 p = vertices[i];
    const Point2 q = vertices[(i + 1) % vertices.size()];
    const double w = Cross(p, q);
    twice_area += w;
    acc.x += (p.x + q.x) * w;
    acc.y += (p.y + q.y) * w;
  }
  if (std::abs(twice_area) < kGeomEpsilon) {
    Point2 sum{0, 0};
    for (const Point2& p : vertices) sum = sum + p;
    return {sum.x / vertices.size(), sum.y / vertices.size()};
  }
  return {acc.x / (3.0 * twice_area), acc.y / (3.0 * twice_area)};
}

Rect2 PolygonView::BoundingBox() const {
  Rect2 r = Rect2::Empty();
  for (const Point2& p : vertices) r.Extend(p);
  return r;
}

void PolygonList::Append(const PolygonList& other) {
  const size_t base = vertices_.size();
  const size_t first = ends_.size();
  vertices_.insert(vertices_.end(), other.vertices_.begin(),
                   other.vertices_.end());
  ends_.insert(ends_.end(), other.ends_.begin(), other.ends_.end());
  for (size_t i = first; i < ends_.size(); ++i) ends_[i] += base;
}

void PolygonList::Append(PolygonList&& other) {
  if (!empty()) {
    Append(other);
  } else {
    // Offsets of a list appended to an empty one need no rebasing.
    if (vertices_.capacity() <= other.vertices_.capacity()) {
      vertices_.swap(other.vertices_);
    } else {
      vertices_.assign(other.vertices_.begin(), other.vertices_.end());
    }
    if (ends_.capacity() <= other.ends_.capacity()) {
      ends_.swap(other.ends_);
    } else {
      ends_.assign(other.ends_.begin(), other.ends_.end());
    }
  }
  other.clear();
}

size_t ClipHalfPlane(const Point2* in, size_t count, Point2 n, double c,
                     Point2* out) {
  size_t emitted = 0;
  for (size_t i = 0; i < count; ++i) {
    const Point2 cur = in[i];
    const Point2 nxt = in[i + 1 == count ? 0 : i + 1];
    const double dc = Dot(n, cur) + c;
    const double dn = Dot(n, nxt) + c;
    if (dc >= 0) out[emitted++] = cur;
    // Edge crosses the boundary: emit the intersection point.
    if ((dc > 0 && dn < 0) || (dc < 0 && dn > 0)) {
      const double t = dc / (dc - dn);
      out[emitted++] = cur + t * (nxt - cur);
    }
  }
  return emitted < 3 ? 0 : emitted;
}

ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, Point2 n, double c) {
  ConvexPolygon out;
  const size_t count = poly.vertices.size();
  if (count == 0) return out;
  out.vertices.resize(2 * count);
  out.vertices.resize(
      ClipHalfPlane(poly.vertices.data(), count, n, c, out.vertices.data()));
  return out;
}

ConvexPolygon PolygonFromTriangle(const Triangle2& t) {
  const std::array<Point2, 3> v = CcwVertices(t);
  ConvexPolygon poly;
  poly.vertices.assign(v.begin(), v.end());
  return poly;
}

ConvexPolygon PolygonFromRect(const Rect2& r) {
  ConvexPolygon poly;
  if (r.IsEmpty()) return poly;
  poly.vertices = {{r.lo.x, r.lo.y},
                   {r.hi.x, r.lo.y},
                   {r.hi.x, r.hi.y},
                   {r.lo.x, r.hi.y}};
  return poly;
}

}  // namespace fielddb
