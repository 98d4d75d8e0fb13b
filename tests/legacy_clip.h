// Test oracle: the polygon clipping pipeline as it was before the
// allocation-free kernel — each step builds and returns a fresh vector.
// Differential tests assert the production clip paths reproduce it bit
// for bit (same piece count, same vertex doubles).

#ifndef FIELDDB_TESTS_LEGACY_CLIP_H_
#define FIELDDB_TESTS_LEGACY_CLIP_H_

#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.h"
#include "field/region.h"

namespace fielddb {
namespace legacy {

/// One Sutherland–Hodgman pass returning a new vector (empty when fewer
/// than 3 vertices survive).
inline std::vector<Point2> ClipHalfPlane(const std::vector<Point2>& poly,
                                         Point2 n, double c) {
  std::vector<Point2> out;
  const size_t count = poly.size();
  if (count == 0) return out;
  out.reserve(count + 1);
  for (size_t i = 0; i < count; ++i) {
    const Point2 cur = poly[i];
    const Point2 nxt = poly[(i + 1) % count];
    const double dc = Dot(n, cur) + c;
    const double dn = Dot(n, nxt) + c;
    if (dc >= 0) out.push_back(cur);
    if ((dc > 0 && dn < 0) || (dc < 0 && dn > 0)) {
      const double t = dc / (dc - dn);
      out.push_back(cur + t * (nxt - cur));
    }
  }
  if (out.size() < 3) out.clear();
  return out;
}

/// The triangle as a CCW vertex vector (order kept for zero area).
inline std::vector<Point2> PolygonFromTriangle(const Triangle2& t) {
  if (t.SignedArea() >= 0) return {t.v[0], t.v[1], t.v[2]};
  return {t.v[0], t.v[2], t.v[1]};
}

/// Chains ClipHalfPlane over `planes` starting from the triangle.
inline std::vector<Point2> ClipTriangle(const Triangle2& t,
                                        const std::vector<HalfPlane>& planes) {
  std::vector<Point2> poly = legacy::PolygonFromTriangle(t);
  for (const HalfPlane& h : planes) {
    poly = legacy::ClipHalfPlane(poly, h.n, h.c);
  }
  return poly;
}

/// The pieces of a region as plain vertex vectors, independent of how
/// Region stores them.
using Pieces = std::vector<std::vector<Point2>>;

/// True when both vertex lists hold the same doubles bit for bit.
inline bool SameBits(std::span<const Point2> a, std::span<const Point2> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Point2)) == 0);
}

/// Copies a region's pieces out through its piece view.
inline Pieces PiecesOf(const Region& region) {
  Pieces out;
  for (const PolygonView piece : region.pieces) {
    out.emplace_back(piece.vertices.begin(), piece.vertices.end());
  }
  return out;
}

/// Asserts `got` holds the pieces of `want` in the same order, every
/// vertex double bit-identical, whether read by index or by iteration.
inline void ExpectSameRegion(const Region& got, const Pieces& want) {
  ASSERT_EQ(got.NumPieces(), want.size());
  size_t i = 0;
  for (const PolygonView piece : got.pieces) {
    ASSERT_LT(i, want.size());
    EXPECT_TRUE(SameBits(piece.vertices, want[i])) << "piece " << i;
    EXPECT_TRUE(SameBits(got.pieces[i].vertices, want[i])) << "piece " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

}  // namespace legacy
}  // namespace fielddb

#endif  // FIELDDB_TESTS_LEGACY_CLIP_H_
