#include "common/geometry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "legacy_clip.h"

namespace fielddb {
namespace {

TEST(Point2Test, Arithmetic) {
  const Point2 a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, (Point2{4, 7}));
  EXPECT_EQ(b - a, (Point2{2, 3}));
  EXPECT_EQ(2.0 * a, (Point2{2, 4}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 13.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -1.0);
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
}

TEST(Rect2Test, EmptyBehaviour) {
  Rect2 r = Rect2::Empty();
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  r.Extend(Point2{1, 1});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_EQ(r.lo, (Point2{1, 1}));
  EXPECT_EQ(r.hi, (Point2{1, 1}));
}

TEST(Rect2Test, ExtendAndMetrics) {
  Rect2 r = Rect2::Empty();
  r.Extend(Point2{0, 0});
  r.Extend(Point2{2, 3});
  EXPECT_DOUBLE_EQ(r.Width(), 2.0);
  EXPECT_DOUBLE_EQ(r.Height(), 3.0);
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_EQ(r.Center(), (Point2{1, 1.5}));
}

TEST(Rect2Test, ContainsBoundaryInclusive) {
  const Rect2 r{{0, 0}, {1, 1}};
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_TRUE(r.Contains({0.5, 0.5}));
  EXPECT_FALSE(r.Contains({1.0001, 0.5}));
  EXPECT_FALSE(r.Contains({0.5, -0.0001}));
}

TEST(Rect2Test, IntersectsSharedEdge) {
  const Rect2 a{{0, 0}, {1, 1}};
  const Rect2 b{{1, 0}, {2, 1}};  // shares an edge
  const Rect2 c{{1.5, 1.5}, {2, 2}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(Rect2Test, ExtendByEmptyRectIsNoop) {
  Rect2 r{{0, 0}, {1, 1}};
  r.Extend(Rect2::Empty());
  EXPECT_EQ(r, (Rect2{{0, 0}, {1, 1}}));
}

TEST(Triangle2Test, AreaAndOrientation) {
  const Triangle2 ccw{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  EXPECT_DOUBLE_EQ(ccw.SignedArea(), 0.5);
  const Triangle2 cw{{Point2{0, 0}, Point2{0, 1}, Point2{1, 0}}};
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -0.5);
  EXPECT_DOUBLE_EQ(cw.Area(), 0.5);
}

TEST(Triangle2Test, BarycentricAtVertices) {
  const Triangle2 t{{Point2{0, 0}, Point2{2, 0}, Point2{0, 2}}};
  const auto l0 = t.Barycentric({0, 0});
  EXPECT_DOUBLE_EQ(l0[0], 1.0);
  EXPECT_DOUBLE_EQ(l0[1], 0.0);
  EXPECT_DOUBLE_EQ(l0[2], 0.0);
  const auto lc = t.Barycentric(t.Centroid());
  EXPECT_NEAR(lc[0], 1.0 / 3, 1e-12);
  EXPECT_NEAR(lc[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(lc[2], 1.0 / 3, 1e-12);
}

TEST(Triangle2Test, BarycentricSumsToOneOutside) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  const auto l = t.Barycentric({5, 5});
  EXPECT_NEAR(l[0] + l[1] + l[2], 1.0, 1e-9);
  EXPECT_FALSE(t.Contains({5, 5}));
}

TEST(Triangle2Test, ContainsEdgeAndInterior) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  EXPECT_TRUE(t.Contains({0.25, 0.25}));
  EXPECT_TRUE(t.Contains({0.5, 0}));    // on an edge
  EXPECT_TRUE(t.Contains({0.5, 0.5}));  // on the hypotenuse
  EXPECT_FALSE(t.Contains({0.6, 0.6}));
}

TEST(Triangle2Test, DegenerateBarycentricIsNaN) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 1}, Point2{2, 2}}};
  const auto l = t.Barycentric({0.5, 0.5});
  EXPECT_TRUE(std::isnan(l[0]));
  EXPECT_FALSE(t.Contains({0.5, 0.5}));
}

TEST(ConvexPolygonTest, AreaShoelace) {
  ConvexPolygon square;
  square.vertices = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_DOUBLE_EQ(square.Area(), 4.0);
  // Clockwise orientation still yields positive area.
  ConvexPolygon cw;
  cw.vertices = {{0, 0}, {0, 2}, {2, 2}, {2, 0}};
  EXPECT_DOUBLE_EQ(cw.Area(), 4.0);
}

TEST(ConvexPolygonTest, CentroidOfSquare) {
  ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {2, 2}});
  const Point2 c = square.Centroid();
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(ConvexPolygonTest, EmptyPolygon) {
  ConvexPolygon p;
  EXPECT_TRUE(p.IsEmpty());
  EXPECT_DOUBLE_EQ(p.Area(), 0.0);
  EXPECT_TRUE(p.BoundingBox().IsEmpty());
}

TEST(ClipHalfPlaneTest, KeepAll) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= -1 keeps everything.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, 1);
  EXPECT_DOUBLE_EQ(out.Area(), 1.0);
}

TEST(ClipHalfPlaneTest, RemoveAll) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= 2 removes everything.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, -2);
  EXPECT_TRUE(out.IsEmpty());
}

TEST(ClipHalfPlaneTest, HalvesSquare) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= 0.5.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, -0.5);
  EXPECT_NEAR(out.Area(), 0.5, 1e-12);
  for (const Point2& p : out.vertices) EXPECT_GE(p.x, 0.5 - 1e-12);
}

TEST(ClipHalfPlaneTest, DiagonalCut) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x + y <= 1  <=>  -x - y + 1 >= 0: keeps the lower-left triangle.
  const ConvexPolygon out = ClipHalfPlane(square, -1, -1, 1);
  EXPECT_NEAR(out.Area(), 0.5, 1e-12);
}

TEST(ClipHalfPlaneTest, SequentialClipsCommute) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  const ConvexPolygon a =
      ClipHalfPlane(ClipHalfPlane(square, 1, 0, -0.25), 0, 1, -0.25);
  const ConvexPolygon b =
      ClipHalfPlane(ClipHalfPlane(square, 0, 1, -0.25), 1, 0, -0.25);
  EXPECT_NEAR(a.Area(), b.Area(), 1e-12);
  EXPECT_NEAR(a.Area(), 0.75 * 0.75, 1e-12);
}

// Clips `poly` with the span kernel into a buffer of exactly 2n vertices
// (so ASan flags any overrun) and checks the result against the
// ConvexPolygon wrapper and the legacy vector-returning pass, bit for bit.
size_t ClipAndCompare(const std::vector<Point2>& poly, Point2 n, double c) {
  std::vector<Point2> out(2 * poly.size());
  const size_t count = ClipHalfPlane(poly.data(), poly.size(), n, c,
                                     out.data());
  EXPECT_LE(count, 2 * poly.size());
  EXPECT_TRUE(count == 0 || count >= 3) << count;
  out.resize(count);
  EXPECT_TRUE(legacy::SameBits(
      out, ClipHalfPlane(ConvexPolygon{poly}, n, c).vertices));
  EXPECT_TRUE(legacy::SameBits(out, legacy::ClipHalfPlane(poly, n, c)));
  return count;
}

// A comb: `teeth` spikes between y = 0 and y = 1, closed along y = 0, so
// a line through the middle crosses every spike edge.
std::vector<Point2> Comb(size_t teeth) {
  std::vector<Point2> poly;
  for (size_t i = 0; i < teeth; ++i) {
    poly.push_back({static_cast<double>(i), 0.0});
    poly.push_back({i + 0.5, 1.0});
  }
  poly.push_back({static_cast<double>(teeth), 0.0});
  return poly;
}

TEST(ClipHalfPlaneSpanTest, ZigZagExceedsConvexBoundWithinTwoN) {
  for (size_t teeth : {3, 5, 16}) {
    const std::vector<Point2> comb = Comb(teeth);
    // y >= 0.5 keeps every spike tip and crosses two edges per spike:
    // 3 * teeth vertices, more than the n + 1 a convex input can yield.
    const size_t count = ClipAndCompare(comb, {0, 1}, -0.5);
    EXPECT_EQ(count, 3 * teeth);
    EXPECT_GT(count, comb.size() + 1);
    // The mirrored half keeps the base and crosses the same edges.
    EXPECT_GT(ClipAndCompare(comb, {0, -1}, 0.5), comb.size() + 1);
    // Lines through vertices (dc == 0) and slanted cuts.
    ClipAndCompare(comb, {0, 1}, 0.0);
    ClipAndCompare(comb, {0, 1}, -1.0);
    ClipAndCompare(comb, {0.1, 1}, -0.5);
  }
}

TEST(ClipHalfPlaneSpanTest, RandomNonConvexPolygonsMatchWrapper) {
  Rng rng(7);
  size_t over_convex_bound = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<Point2> poly(3 + rng.NextBounded(30));
    for (Point2& p : poly) p = {rng.NextDouble(), rng.NextDouble()};
    const Point2 n{rng.NextDouble(-1, 1), rng.NextDouble(-1, 1)};
    const double c = rng.NextDouble(-1, 1);
    if (ClipAndCompare(poly, n, c) > poly.size() + 1) ++over_convex_bound;
    if (HasFailure()) return;
  }
  EXPECT_GT(over_convex_bound, 0u);
}

TEST(ClipHalfPlaneSpanTest, EmptyAndDegenerateInput) {
  std::vector<Point2> out(8);
  EXPECT_EQ(ClipHalfPlane(nullptr, 0, {1, 0}, 0, out.data()), 0u);
  const std::vector<Point2> segment = {{0, 0}, {1, 0}};
  EXPECT_EQ(ClipHalfPlane(segment.data(), segment.size(), {1, 0}, 1,
                          out.data()),
            0u);
  EXPECT_TRUE(ClipHalfPlane(ConvexPolygon{}, Point2{1, 0}, 0).IsEmpty());
}

TEST(ClipTriangleTest, MatchesChainedWrapperClips) {
  Rng rng(11);
  PolygonList all;
  std::vector<std::vector<Point2>> wants;
  for (int trial = 0; trial < 2000; ++trial) {
    const Triangle2 t{{Point2{rng.NextDouble(), rng.NextDouble()},
                       Point2{rng.NextDouble(), rng.NextDouble()},
                       Point2{rng.NextDouble(), rng.NextDouble()}}};
    std::array<HalfPlane, 4> planes;
    for (HalfPlane& h : planes) {
      h = {{rng.NextDouble(-1, 1), rng.NextDouble(-1, 1)},
           rng.NextDouble(-0.5, 0.5)};
    }
    ConvexPolygon want = PolygonFromTriangle(t);
    for (const HalfPlane& h : planes) want = ClipHalfPlane(want, h.n, h.c);
    const size_t before = all.size();
    const size_t vertices_before = all.num_vertices();
    EXPECT_EQ(ClipTriangle(t, planes, &all), !want.IsEmpty());
    if (want.IsEmpty()) {
      // A rejected triangle leaves the list untouched.
      EXPECT_EQ(all.size(), before);
      EXPECT_EQ(all.num_vertices(), vertices_before);
    } else {
      ASSERT_EQ(all.size(), before + 1);
      EXPECT_TRUE(legacy::SameBits(all[before].vertices, want.vertices));
      wants.push_back(want.vertices);
    }
  }
  // Survivors land back to back in one arena, in clip order.
  ASSERT_EQ(all.size(), wants.size());
  EXPECT_GT(all.size(), 0u);
  size_t i = 0;
  for (const PolygonView piece : all) {
    EXPECT_TRUE(legacy::SameBits(piece.vertices, wants[i++]));
  }
}

TEST(PolygonFromTriangleTest, NormalizesOrientation) {
  const Triangle2 cw{{Point2{0, 0}, Point2{0, 1}, Point2{1, 0}}};
  const ConvexPolygon p = PolygonFromTriangle(cw);
  // Shoelace on the produced order must be positive (CCW).
  double twice = 0;
  for (size_t i = 0; i < 3; ++i) {
    twice += Cross(p.vertices[i], p.vertices[(i + 1) % 3]);
  }
  EXPECT_GT(twice, 0);
}

}  // namespace
}  // namespace fielddb
