#include "field/isoband.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "field/interpolation.h"
#include "field/region.h"
#include "legacy_clip.h"

namespace fielddb {
namespace {

double BandArea(const CellRecord& cell, double lo, double hi) {
  Region region;
  const StatusOr<size_t> n = CellIsoband(cell, ValueInterval{lo, hi},
                                         &region);
  EXPECT_TRUE(n.ok());
  return region.TotalArea();
}

TEST(IsobandTest, TriangleFullCoverage) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 1, {1, 0}, 2, {0, 1}, 3);
  EXPECT_NEAR(BandArea(tri, 0, 10), 0.5, 1e-12);
}

TEST(IsobandTest, TriangleNoCoverage) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 1, {1, 0}, 2, {0, 1}, 3);
  Region region;
  const StatusOr<size_t> n = CellIsoband(tri, ValueInterval{5, 6}, &region);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(region.IsEmpty());
}

TEST(IsobandTest, TriangleHalfPlaneCut) {
  // w = x on the unit right triangle: w <= 0.5 keeps the left part,
  // whose area is 1/2 - (1/2)(1/2)^2 = 3/8.
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0);
  EXPECT_NEAR(BandArea(tri, -1, 0.5), 0.375, 1e-12);
  // Complementary band: w >= 0.5 keeps 1/8.
  EXPECT_NEAR(BandArea(tri, 0.5, 2), 0.125, 1e-12);
}

TEST(IsobandTest, TriangleBandsPartition) {
  // Bands [0, t] and [t, 1] must tile the triangle for any threshold.
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0.3);
  for (const double t : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double below = BandArea(tri, -1, t);
    const double above = BandArea(tri, t, 2);
    EXPECT_NEAR(below + above, 0.5, 1e-9) << "t=" << t;
  }
}

TEST(IsobandTest, ConstantTriangleAllOrNothing) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 5, {1, 0}, 5, {0, 1}, 5);
  EXPECT_NEAR(BandArea(tri, 4, 6), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(tri, 5, 5), 0.5, 1e-12);  // exact-value query
  EXPECT_NEAR(BandArea(tri, 6, 7), 0.0, 1e-12);
}

TEST(IsobandTest, QuadAffinePlane) {
  // w = x on the unit quad: band [0.25, 0.75] is a vertical strip of
  // area 0.5, regardless of the 4-triangle fan decomposition.
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 1, 0);
  EXPECT_NEAR(BandArea(quad, 0.25, 0.75), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(quad, 0, 1), 1.0, 1e-12);
  EXPECT_NEAR(BandArea(quad, 0.9, 2), 0.1, 1e-12);
}

TEST(IsobandTest, QuadDiagonalPlane) {
  // w = x + y: band [0, 1] on the unit quad is the lower-left half.
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 2, 1);
  EXPECT_NEAR(BandArea(quad, 0, 1), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(quad, 1, 2), 0.5, 1e-12);
}

TEST(IsobandTest, QuadBandsPartitionRandom) {
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    const CellRecord quad = CellRecord::Quad(
        0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
        rng.NextDouble(), rng.NextDouble());
    const double t = rng.NextDouble();
    const double below = BandArea(quad, -1, t);
    const double above = BandArea(quad, t, 2);
    EXPECT_NEAR(below + above, 1.0, 1e-9);
  }
}

TEST(IsobandTest, MonotoneInBandWidth) {
  Rng rng(31);
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
      rng.NextDouble(), rng.NextDouble());
  double prev = 0.0;
  for (const double hw : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double area = BandArea(quad, 0.5 - hw, 0.5 + hw);
    EXPECT_GE(area, prev - 1e-12);
    prev = area;
  }
}

TEST(IsobandTest, RegionPiecesStayInsideCell) {
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{2, 3}, {4, 5}}, 1, 9, 4, 7);
  Region region;
  ASSERT_TRUE(CellIsoband(quad, ValueInterval{3, 6}, &region).ok());
  ASSERT_GT(region.NumPieces(), 0u);
  for (const PolygonView piece : region.pieces) {
    for (const Point2& p : piece.vertices) {
      EXPECT_TRUE(quad.Bounds().Contains(p));
    }
  }
}

TEST(IsobandTest, EmptyQueryRejected) {
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 0, 0, 0);
  Region region;
  const StatusOr<size_t> n =
      CellIsoband(quad, ValueInterval::Empty(), &region);
  EXPECT_FALSE(n.ok());
}

// The estimation step as it was before the stack-buffer clip: every
// sub-triangle clipped by chained vector-returning passes.
Status LegacyClipTriangle(Point2 a, double wa, Point2 b, double wb, Point2 c,
                          double wc, const ValueInterval& q,
                          legacy::Pieces* out, size_t* appended) {
  ValueInterval iv = ValueInterval::Empty();
  iv.Extend(wa);
  iv.Extend(wb);
  iv.Extend(wc);
  if (!iv.Intersects(q)) return Status::OK();
  StatusOr<LinearCoeffs> plane = FitTrianglePlane(a, wa, b, wb, c, wc);
  if (!plane.ok()) return plane.status();
  std::vector<Point2> poly = legacy::ClipTriangle(
      Triangle2{{a, b, c}},
      {HalfPlane{{plane->gx, plane->gy}, plane->c - q.min},
       HalfPlane{{-plane->gx, -plane->gy}, q.max - plane->c}});
  if (!poly.empty()) {
    out->push_back(std::move(poly));
    ++*appended;
  }
  return Status::OK();
}

StatusOr<size_t> LegacyCellIsoband(const CellRecord& cell,
                                   const ValueInterval& q,
                                   legacy::Pieces* out) {
  size_t appended = 0;
  if (!cell.Interval().Intersects(q)) return appended;
  if (cell.num_vertices == 3) {
    FIELDDB_RETURN_IF_ERROR(LegacyClipTriangle(
        cell.Vertex(0), cell.w[0], cell.Vertex(1), cell.w[1], cell.Vertex(2),
        cell.w[2], q, out, &appended));
    return appended;
  }
  const Point2 center = cell.Bounds().Center();
  const double wc = (cell.w[0] + cell.w[1] + cell.w[2] + cell.w[3]) / 4.0;
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    FIELDDB_RETURN_IF_ERROR(LegacyClipTriangle(
        cell.Vertex(i), cell.w[i], cell.Vertex(j), cell.w[j], center, wc, q,
        out, &appended));
  }
  return appended;
}

// Vertex values drawn so ties, flat cells and exact band endpoints occur.
double DrawValue(Rng& rng) {
  return rng.NextBounded(4) == 0 ? static_cast<double>(rng.NextBounded(3))
                                 : rng.NextDouble(-0.5, 2.5);
}

// A band mixing random widths with the edge cases: an endpoint equal to a
// vertex value, zero width, a band holding the whole cell, and a miss.
ValueInterval DrawBand(Rng& rng, const CellRecord& cell) {
  const double vertex = cell.w[rng.NextBounded(cell.num_vertices)];
  double lo = rng.NextDouble(-0.5, 2.5);
  double hi = rng.NextDouble(-0.5, 2.5);
  if (lo > hi) std::swap(lo, hi);
  switch (rng.NextBounded(7)) {
    case 0: return {vertex, std::max(vertex, hi)};
    case 1: return {std::min(vertex, lo), vertex};
    case 2: return {vertex, vertex};
    case 3: return {lo, lo};
    case 4: return {cell.Interval().min - 1.0, cell.Interval().max + 1.0};
    case 5: return {cell.Interval().max + 0.5, cell.Interval().max + 1.0};
    default: return {lo, hi};
  }
}

// Triangles, including collinear and near-degenerate ones.
CellRecord DrawTriangle(Rng& rng) {
  const Point2 a{rng.NextDouble(), rng.NextDouble()};
  const Point2 b{rng.NextDouble(), rng.NextDouble()};
  Point2 c{rng.NextDouble(), rng.NextDouble()};
  const uint64_t kind = rng.NextBounded(8);
  if (kind <= 1) {
    // On line ab, optionally nudged off it by a sliver.
    const Point2 along = a + rng.NextDouble(-0.5, 1.5) * (b - a);
    const double nudge = kind == 0 ? 0.0 : rng.NextDouble(1e-11, 1e-6);
    c = along + nudge * Point2{a.y - b.y, b.x - a.x};
  }
  return CellRecord::Triangle(0, a, DrawValue(rng), b, DrawValue(rng), c,
                              DrawValue(rng));
}

CellRecord DrawQuad(Rng& rng) {
  const Point2 lo{rng.NextDouble(-2, 2), rng.NextDouble(-2, 2)};
  const Point2 size{rng.NextDouble(1e-6, 1.0), rng.NextDouble(1e-6, 1.0)};
  const double flat = DrawValue(rng);
  const bool is_flat = rng.NextBounded(10) == 0;
  auto value = [&] { return is_flat ? flat : DrawValue(rng); };
  const double ll = value(), lr = value(), ur = value(), ul = value();
  return CellRecord::Quad(0, Rect2{lo, lo + size}, ll, lr, ur, ul);
}

void ExpectMatchesLegacy(const CellRecord& cell, const ValueInterval& band,
                         size_t* pieces) {
  Region got;
  legacy::Pieces want;
  const StatusOr<size_t> n = CellIsoband(cell, band, &got);
  const StatusOr<size_t> m = LegacyCellIsoband(cell, band, &want);
  ASSERT_EQ(n.ok(), m.ok());
  if (n.ok()) {
    ASSERT_EQ(*n, *m);
  }
  legacy::ExpectSameRegion(got, want);
  *pieces += got.NumPieces();
}

TEST(IsobandTest, BitIdenticalToLegacyClipOnRandomCells) {
  Rng rng(20020325);
  size_t pieces = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const CellRecord tri = DrawTriangle(rng);
    ExpectMatchesLegacy(tri, DrawBand(rng, tri), &pieces);
    const CellRecord quad = DrawQuad(rng);
    ExpectMatchesLegacy(quad, DrawBand(rng, quad), &pieces);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Guard against a vacuous run: most trials must produce pieces.
  EXPECT_GT(pieces, 20000u);
}

TEST(IsobandTest, BitIdenticalToLegacyClipOnEdgeCases) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 2);
  const CellRecord flat =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0.5, 0.5, 0.5, 0.5);
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 2, 1);
  const CellRecord sliver = CellRecord::Triangle(
      0, {0, 0}, 0, {1, 0}, 1, {0.5, 1e-11}, 2);
  const CellRecord collinear =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 1}, 1, {2, 2}, 2);
  const std::vector<ValueInterval> bands = {
      {0, 1}, {1, 1}, {1, 2}, {0.5, 0.5}, {-1, 3}, {2, 2}, {0, 0}, {3, 4}};
  size_t pieces = 0;
  for (const CellRecord& cell : {tri, flat, quad, sliver, collinear}) {
    for (const ValueInterval& band : bands) {
      ExpectMatchesLegacy(cell, band, &pieces);
    }
  }
  EXPECT_GT(pieces, 0u);
}

void AddRect(Region* region, const Rect2& rect) {
  region->pieces.Add(PolygonFromRect(rect).vertices);
}

TEST(RegionTest, AppendAndTotals) {
  Region a, b;
  AddRect(&a, Rect2{{0, 0}, {1, 1}});
  AddRect(&b, Rect2{{2, 2}, {4, 3}});
  a.Append(b);
  EXPECT_EQ(a.NumPieces(), 2u);
  EXPECT_NEAR(a.TotalArea(), 3.0, 1e-12);
  EXPECT_EQ(a.BoundingBox(), (Rect2{{0, 0}, {4, 3}}));
}

Region MakeRegion(std::initializer_list<Rect2> rects) {
  Region r;
  for (const Rect2& rect : rects) AddRect(&r, rect);
  return r;
}

TEST(RegionTest, MoveAppendIntoEmptyTakesPieces) {
  Region src = MakeRegion({Rect2{{0, 0}, {1, 1}}, Rect2{{1, 0}, {2, 1}}});
  const legacy::Pieces want = legacy::PiecesOf(src);
  const Point2* arena = src.pieces.vertices().data();
  Region dst;
  dst.Append(std::move(src));
  ASSERT_EQ(dst.NumPieces(), 2u);
  // The swap path hands over the vertex arena itself, not a copy.
  EXPECT_EQ(dst.pieces.vertices().data(), arena);
  EXPECT_EQ(dst.pieces[0].vertices.data(), arena);
  legacy::ExpectSameRegion(dst, want);
  EXPECT_TRUE(src.IsEmpty());
  EXPECT_EQ(src.pieces.num_vertices(), 0u);
}

TEST(RegionTest, MoveAppendKeepsOrderAndMatchesCopy) {
  const Region a = MakeRegion({Rect2{{0, 0}, {1, 1}}});
  const Region b = MakeRegion({Rect2{{2, 2}, {4, 3}}, Rect2{{5, 5}, {6, 7}}});
  const Region c = MakeRegion({Rect2{{-1, -1}, {0, 0}}});

  Region copied;
  copied.Append(a);
  copied.Append(b);
  copied.Append(c);

  Region moved;
  moved.pieces.reserve(8, 32);  // A reservation survives the first append.
  const Point2* reserved = moved.pieces.vertices().data();
  for (Region part : {a, b, c}) moved.Append(std::move(part));
  EXPECT_GE(moved.pieces.capacity(), 8u);
  EXPECT_GE(moved.pieces.vertex_capacity(), 32u);
  EXPECT_EQ(moved.pieces.vertices().data(), reserved);

  ASSERT_EQ(moved.NumPieces(), 4u);
  legacy::ExpectSameRegion(moved, legacy::PiecesOf(copied));
  EXPECT_TRUE(legacy::SameBits(moved.pieces[1].vertices,
                               b.pieces[0].vertices));
  EXPECT_TRUE(legacy::SameBits(moved.pieces[3].vertices,
                               c.pieces[0].vertices));
}

TEST(RegionTest, MovedFromRegionIsReusable) {
  Region dst = MakeRegion({Rect2{{0, 0}, {1, 1}}});
  Region src = MakeRegion({Rect2{{1, 1}, {2, 2}}});
  dst.Append(std::move(src));  // Non-empty target: copied, offsets rebased.
  EXPECT_EQ(dst.NumPieces(), 2u);
  EXPECT_TRUE(src.IsEmpty());
  EXPECT_DOUBLE_EQ(src.TotalArea(), 0.0);

  AddRect(&src, Rect2{{3, 3}, {5, 5}});
  EXPECT_NEAR(src.TotalArea(), 4.0, 1e-12);
  dst.Append(std::move(src));
  EXPECT_EQ(dst.NumPieces(), 3u);
  EXPECT_NEAR(dst.TotalArea(), 6.0, 1e-12);
  EXPECT_TRUE(src.IsEmpty());
}

// A convex polygon of `n` vertices on a circle about `center`, so pieces
// of different sizes make a wrong offset visible.
std::vector<Point2> Ngon(Point2 center, size_t n) {
  std::vector<Point2> v;
  for (size_t i = 0; i < n; ++i) {
    const double a = 2.0 * 3.141592653589793 * static_cast<double>(i) /
                     static_cast<double>(n);
    v.push_back(center + Point2{std::cos(a), std::sin(a)});
  }
  return v;
}

TEST(RegionTest, AppendRebasesOffsets) {
  // Three parts with 0, 1 and many pieces of varying vertex counts.
  legacy::Pieces parts[3];
  parts[1].push_back(Ngon({0, 0}, 5));
  for (size_t i = 0; i < 40; ++i) {
    parts[2].push_back(Ngon({static_cast<double>(i), 1.0}, 3 + i % 7));
  }
  Region one;  // Every piece built in a single region.
  legacy::Pieces want;
  for (const legacy::Pieces& part : parts) {
    for (const std::vector<Point2>& piece : part) {
      one.pieces.Add(piece);
      want.push_back(piece);
    }
  }
  legacy::ExpectSameRegion(one, want);

  auto build = [](const legacy::Pieces& part) {
    Region r;
    for (const std::vector<Point2>& piece : part) r.pieces.Add(piece);
    return r;
  };
  // Every order of the three parts, by copy and by move, into an empty
  // and into a non-empty target.
  int order[3] = {0, 1, 2};
  do {
    Region copied, moved, copied_after, moved_after;
    AddRect(&copied_after, Rect2{{-2, -2}, {-1, -1}});
    AddRect(&moved_after, Rect2{{-2, -2}, {-1, -1}});
    legacy::Pieces expect;
    legacy::Pieces expect_after = legacy::PiecesOf(copied_after);
    for (const int k : order) {
      const Region part = build(parts[k]);
      copied.Append(part);
      copied_after.Append(part);
      moved.Append(build(parts[k]));
      moved_after.Append(build(parts[k]));
      expect.insert(expect.end(), parts[k].begin(), parts[k].end());
      expect_after.insert(expect_after.end(), parts[k].begin(),
                          parts[k].end());
    }
    legacy::ExpectSameRegion(copied, expect);
    legacy::ExpectSameRegion(moved, expect);
    legacy::ExpectSameRegion(copied_after, expect_after);
    legacy::ExpectSameRegion(moved_after, expect_after);
    EXPECT_EQ(moved.pieces.num_vertices(), one.pieces.num_vertices());
  } while (std::next_permutation(order, order + 3));
  legacy::ExpectSameRegion(one, want);
}

TEST(SvgTest, RejectsEmptyViewportAndBadPath) {
  Region region;
  AddRect(&region, Rect2{{0, 0}, {1, 1}});
  const std::string path = ::testing::TempDir() + "/fielddb_bad.svg";
  EXPECT_FALSE(WriteSvg(path.c_str(), Rect2::Empty(),
                        {SvgLayer{&region.pieces}}));
  EXPECT_FALSE(WriteSvg("/no/such/dir/out.svg", Rect2{{0, 0}, {1, 1}},
                        {SvgLayer{&region.pieces}}));
  std::remove(path.c_str());
}

TEST(SvgTest, WritesFile) {
  Region region;
  AddRect(&region, Rect2{{0, 0}, {1, 1}});
  const std::string path = ::testing::TempDir() + "/fielddb_region.svg";
  ASSERT_TRUE(WriteSvg(path.c_str(), Rect2{{0, 0}, {2, 2}},
                       {SvgLayer{&region.pieces, "#ff0000", "#000000", 0.5}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_NE(std::string(buf).find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fielddb
