#include "vector/vector_index.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "field/interpolation.h"
#include "gen/fractal.h"
#include "legacy_clip.h"
#include "vector/vector_isoband.h"

namespace fielddb {
namespace {

// u = x + y, v = x - y over the unit square: both affine, so queries have
// analytic answers.
VectorGridField MakeAffineVectorField(uint32_t n) {
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      const double x = static_cast<double>(i) / n;
      const double y = static_cast<double>(j) / n;
      su.push_back(x + y);
      sv.push_back(x - y);
    }
  }
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

VectorGridField MakeFractalVectorField(uint32_t size_exp, uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = static_cast<int>(size_exp);
  fo.roughness_h = 0.7;
  fo.seed = seed;
  const std::vector<double> su = DiamondSquare(fo);
  fo.seed = seed + 1;
  const std::vector<double> sv = DiamondSquare(fo);
  const uint32_t n = uint32_t{1} << size_exp;
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

TEST(VectorFieldTest, ComponentsShareGeometry) {
  const VectorGridField field = MakeAffineVectorField(4);
  EXPECT_EQ(field.NumCells(), 16u);
  const CellRecord cu = field.ComponentCell(0, 5);
  const CellRecord cv = field.ComponentCell(1, 5);
  EXPECT_EQ(cu.Bounds(), cv.Bounds());
}

TEST(VectorFieldTest, ValueAtInterpolatesBoth) {
  const VectorGridField field = MakeAffineVectorField(8);
  auto uv = field.ValueAt({0.25, 0.5});
  ASSERT_TRUE(uv.ok());
  EXPECT_NEAR(uv->first, 0.75, 1e-12);
  EXPECT_NEAR(uv->second, -0.25, 1e-12);
}

TEST(VectorFieldTest, CellValueBoxIsPerComponentHull) {
  const VectorGridField field = MakeAffineVectorField(2);
  const Box<2> box = field.CellValueBox(0);  // cell [0,.5]^2
  EXPECT_DOUBLE_EQ(box.lo[0], 0.0);   // u = x + y in [0, 1]
  EXPECT_DOUBLE_EQ(box.hi[0], 1.0);
  EXPECT_DOUBLE_EQ(box.lo[1], -0.5);  // v = x - y in [-0.5, 0.5]
  EXPECT_DOUBLE_EQ(box.hi[1], 0.5);
}

TEST(VectorRecordTest, RoundTripComponents) {
  const VectorGridField field = MakeAffineVectorField(4);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 7);
  const CellRecord cu = rec.Component(0);
  const CellRecord expected = field.ComponentCell(0, 7);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(cu.w[i], expected.w[i]);
  }
  EXPECT_EQ(rec.ValueBox(), field.CellValueBox(7));
}

TEST(VectorIsobandTest, AffineBandsHaveAnalyticArea) {
  // On u = x + y, v = x - y: u in [0.5, 1.5] and v in [-0.25, 0.25] is a
  // rotated square; area = intersection of two diagonal strips. Over the
  // whole unit square with a single cell, the strips u in [0.5, 1.5]
  // (area 3/4... computed piecewise) — use Monte Carlo as reference.
  const VectorGridField field = MakeAffineVectorField(1);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  const VectorBandQuery q{{0.5, 1.5}, {-0.25, 0.25}};
  Region region;
  ASSERT_TRUE(VectorCellIsoband(rec, q, &region).ok());

  Rng rng(5);
  int inside = 0;
  const int samples = 200000;
  for (int s = 0; s < samples; ++s) {
    const double x = rng.NextDouble(), y = rng.NextDouble();
    if (q.u.Contains(x + y) && q.v.Contains(x - y)) ++inside;
  }
  EXPECT_NEAR(region.TotalArea(), static_cast<double>(inside) / samples,
              5e-3);
}

TEST(VectorIsobandTest, FullBandCoversCell) {
  const VectorGridField field = MakeAffineVectorField(2);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  Region region;
  ASSERT_TRUE(
      VectorCellIsoband(rec, {{-10, 10}, {-10, 10}}, &region).ok());
  EXPECT_NEAR(region.TotalArea(), 0.25, 1e-12);
}

TEST(VectorIsobandTest, DisjointBandEmpty) {
  const VectorGridField field = MakeAffineVectorField(2);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  Region region;
  auto n = VectorCellIsoband(rec, {{50, 60}, {-10, 10}}, &region);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

// The vector estimation step as it was before the stack-buffer clip:
// four chained vector-returning passes per sub-triangle.
Status LegacyClipVectorTriangle(Point2 a, double ua, double va, Point2 b,
                                double ub, double vb, Point2 c, double uc,
                                double vc, const VectorBandQuery& q,
                                legacy::Pieces* out, size_t* appended) {
  ValueInterval iu = ValueInterval::Empty(), iv = ValueInterval::Empty();
  iu.Extend(ua); iu.Extend(ub); iu.Extend(uc);
  iv.Extend(va); iv.Extend(vb); iv.Extend(vc);
  if (!iu.Intersects(q.u) || !iv.Intersects(q.v)) return Status::OK();
  StatusOr<LinearCoeffs> pu = FitTrianglePlane(a, ua, b, ub, c, uc);
  if (!pu.ok()) return pu.status();
  StatusOr<LinearCoeffs> pv = FitTrianglePlane(a, va, b, vb, c, vc);
  if (!pv.ok()) return pv.status();
  std::vector<Point2> poly = legacy::ClipTriangle(
      Triangle2{{a, b, c}},
      {HalfPlane{{pu->gx, pu->gy}, pu->c - q.u.min},
       HalfPlane{{-pu->gx, -pu->gy}, q.u.max - pu->c},
       HalfPlane{{pv->gx, pv->gy}, pv->c - q.v.min},
       HalfPlane{{-pv->gx, -pv->gy}, q.v.max - pv->c}});
  if (!poly.empty()) {
    out->push_back(std::move(poly));
    ++*appended;
  }
  return Status::OK();
}

StatusOr<size_t> LegacyVectorCellIsoband(const VectorCellRecord& cell,
                                         const VectorBandQuery& q,
                                         legacy::Pieces* out) {
  size_t appended = 0;
  if (!cell.ValueBox().Intersects(q.AsBox())) return appended;
  if (cell.num_vertices == 3) {
    FIELDDB_RETURN_IF_ERROR(LegacyClipVectorTriangle(
        cell.Vertex(0), cell.u[0], cell.v[0], cell.Vertex(1), cell.u[1],
        cell.v[1], cell.Vertex(2), cell.u[2], cell.v[2], q, out,
        &appended));
    return appended;
  }
  const Point2 center = cell.Bounds().Center();
  const double uc = (cell.u[0] + cell.u[1] + cell.u[2] + cell.u[3]) / 4;
  const double vc = (cell.v[0] + cell.v[1] + cell.v[2] + cell.v[3]) / 4;
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    FIELDDB_RETURN_IF_ERROR(LegacyClipVectorTriangle(
        cell.Vertex(i), cell.u[i], cell.v[i], cell.Vertex(j), cell.u[j],
        cell.v[j], center, uc, vc, q, out, &appended));
  }
  return appended;
}

// Component values drawn so ties, flat components and exact band
// endpoints occur.
double DrawComponent(Rng& rng) {
  return rng.NextBounded(4) == 0 ? static_cast<double>(rng.NextBounded(3))
                                 : rng.NextDouble(-0.5, 2.5);
}

// One component band: random, an endpoint at a vertex sample, zero
// width, or wide enough to hold the whole cell.
ValueInterval DrawComponentBand(Rng& rng, const double* samples,
                                uint32_t n) {
  const double vertex = samples[rng.NextBounded(n)];
  double lo = rng.NextDouble(-0.5, 2.5);
  double hi = rng.NextDouble(-0.5, 2.5);
  if (lo > hi) std::swap(lo, hi);
  switch (rng.NextBounded(5)) {
    case 0: return {vertex, std::max(vertex, hi)};
    case 1: return {vertex, vertex};
    case 2: return {lo, lo};
    case 3: return {-1.0, 3.0};
    default: return {lo, hi};
  }
}

VectorCellRecord DrawVectorCell(Rng& rng) {
  VectorCellRecord cell;
  if (rng.NextBounded(2) == 0) {
    cell.num_vertices = 3;
    for (int i = 0; i < 3; ++i) {
      cell.x[i] = rng.NextDouble();
      cell.y[i] = rng.NextDouble();
    }
    if (rng.NextBounded(4) == 0) {
      // A sliver: the third vertex within a hair of line 01.
      const double t = rng.NextDouble(-0.5, 1.5);
      const double nudge = rng.NextDouble(1e-11, 1e-6);
      cell.x[2] = cell.x[0] + t * (cell.x[1] - cell.x[0]) +
                  nudge * (cell.y[0] - cell.y[1]);
      cell.y[2] = cell.y[0] + t * (cell.y[1] - cell.y[0]) +
                  nudge * (cell.x[1] - cell.x[0]);
    }
  } else {
    cell.num_vertices = 4;
    const Point2 lo{rng.NextDouble(-2, 2), rng.NextDouble(-2, 2)};
    const Point2 hi = lo + Point2{rng.NextDouble(1e-6, 1.0),
                                  rng.NextDouble(1e-6, 1.0)};
    const Point2 corners[4] = {lo, {hi.x, lo.y}, hi, {lo.x, hi.y}};
    for (int i = 0; i < 4; ++i) {
      cell.x[i] = corners[i].x;
      cell.y[i] = corners[i].y;
    }
  }
  const bool flat_u = rng.NextBounded(10) == 0;
  const double u0 = DrawComponent(rng);
  for (uint32_t i = 0; i < cell.num_vertices; ++i) {
    cell.u[i] = flat_u ? u0 : DrawComponent(rng);
    cell.v[i] = DrawComponent(rng);
  }
  return cell;
}

TEST(VectorIsobandTest, BitIdenticalToLegacyClipOnRandomCells) {
  Rng rng(20020326);
  size_t pieces = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const VectorCellRecord cell = DrawVectorCell(rng);
    const VectorBandQuery q{
        DrawComponentBand(rng, cell.u, cell.num_vertices),
        DrawComponentBand(rng, cell.v, cell.num_vertices)};
    Region got;
    legacy::Pieces want;
    const StatusOr<size_t> n = VectorCellIsoband(cell, q, &got);
    const StatusOr<size_t> m = LegacyVectorCellIsoband(cell, q, &want);
    ASSERT_EQ(n.ok(), m.ok()) << "trial " << trial;
    if (n.ok()) {
      ASSERT_EQ(*n, *m) << "trial " << trial;
    }
    legacy::ExpectSameRegion(got, want);
    if (HasFatalFailure()) return;
    pieces += got.NumPieces();
  }
  // Guard against a vacuous run: many trials must produce pieces.
  EXPECT_GT(pieces, 5000u);
}

TEST(VectorSubfieldTest, CostModelPrefersSimilarBoxes) {
  Box<2> range;
  range.lo = {0, 0};
  range.hi = {100, 100};
  const SubfieldCostModelOf<2> model(range, {});
  SubfieldOf<2> sf;
  sf.interval.lo = {10, 10};
  sf.interval.hi = {20, 20};
  sf.sum_interval_sizes = 121.0;
  // Identical box: SI doubles, P unchanged -> cost halves.
  EXPECT_TRUE(model.ShouldAppend(sf, sf.interval));
  // A far-away box: P explodes.
  Box<2> far;
  far.lo = {90, 90};
  far.hi = {95, 95};
  EXPECT_FALSE(model.ShouldAppend(sf, far));
}

TEST(VectorSubfieldTest, PartitionInvariants) {
  Rng rng(9);
  std::vector<Box<2>> boxes(400);
  Box<2> range = Box<2>::Empty();
  double u = 0, v = 0;
  for (auto& b : boxes) {
    u += rng.NextGaussian();
    v += rng.NextGaussian();
    b.lo = {u, v};
    b.hi = {u + rng.NextDouble(), v + rng.NextDouble()};
    range.Extend(b);
  }
  const auto sfs = BuildSubfields(boxes, range, {});
  ASSERT_FALSE(sfs.empty());
  EXPECT_EQ(sfs.front().start, 0u);
  EXPECT_EQ(sfs.back().end, boxes.size());
  for (size_t i = 0; i + 1 < sfs.size(); ++i) {
    EXPECT_EQ(sfs[i].end, sfs[i + 1].start);
  }
  for (const SubfieldOf<2>& sf : sfs) {
    Box<2> hull = Box<2>::Empty();
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      hull.Extend(boxes[pos]);
    }
    EXPECT_EQ(sf.interval, hull);
  }
}

class VectorDbTest : public ::testing::TestWithParam<VectorIndexMethod> {};

TEST_P(VectorDbTest, MatchesLinearScanOnFractal) {
  const VectorGridField field = MakeFractalVectorField(5, 31);
  VectorFieldDatabase::Options scan_options;
  scan_options.method = VectorIndexMethod::kLinearScan;
  auto reference = VectorFieldDatabase::Build(field, scan_options);
  ASSERT_TRUE(reference.ok());

  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());

  Rng rng(41);
  const Box<2> range = field.ValueRangeBox();
  for (int i = 0; i < 25; ++i) {
    const double ul = rng.NextDouble(range.lo[0], range.hi[0]);
    const double vl = rng.NextDouble(range.lo[1], range.hi[1]);
    const VectorBandQuery q{
        {ul, ul + 0.1 * (range.hi[0] - range.lo[0])},
        {vl, vl + 0.1 * (range.hi[1] - range.lo[1])}};
    VectorQueryResult expected, actual;
    ASSERT_TRUE((*reference)->BandQuery(q, &expected).ok());
    ASSERT_TRUE((*db)->BandQuery(q, &actual).ok());
    EXPECT_NEAR(actual.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  }
}

TEST_P(VectorDbTest, AffineFieldAnalyticArea) {
  const VectorGridField field = MakeAffineVectorField(16);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  // u = x + y in [0, 1] covers the lower-left half (area 1/2); v = x - y
  // in [0, 1] covers the lower-right half (area 1/2); conjunction is the
  // bottom quarter "wedge" (area 1/4).
  VectorQueryResult result;
  ASSERT_TRUE((*db)->BandQuery({{0, 1}, {0, 1}}, &result).ok());
  EXPECT_NEAR(result.region.TotalArea(), 0.25, 1e-9);
}

TEST_P(VectorDbTest, RejectsEmptyBand) {
  const VectorGridField field = MakeAffineVectorField(4);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  VectorQueryResult result;
  EXPECT_FALSE(
      (*db)->BandQuery({ValueInterval::Empty(), {0, 1}}, &result).ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, VectorDbTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VectorIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

TEST(VectorDbTest, IHilbertReadsFewerPages) {
  const VectorGridField field = MakeFractalVectorField(7, 55);
  const Box<2> range = field.ValueRangeBox();
  const VectorBandQuery q{
      {range.lo[0] + 0.45 * (range.hi[0] - range.lo[0]),
       range.lo[0] + 0.50 * (range.hi[0] - range.lo[0])},
      {range.lo[1] + 0.45 * (range.hi[1] - range.lo[1]),
       range.lo[1] + 0.50 * (range.hi[1] - range.lo[1])}};

  const auto pages = [&](VectorIndexMethod method) {
    VectorFieldDatabase::Options options;
    options.method = method;
    // This test isolates the index's I/O advantage, so pin the physical
    // plan: under kAuto the cost-based planner is free to (correctly)
    // prefer the fused scan when the band is not selective enough.
    options.planner_mode = PlannerMode::kForceIndex;
    auto db = VectorFieldDatabase::Build(field, options);
    EXPECT_TRUE(db.ok());
    VectorQueryResult result;
    EXPECT_TRUE((*db)->BandQuery(q, &result).ok());
    return result.stats.io.logical_reads;
  };
  EXPECT_LT(2 * pages(VectorIndexMethod::kIHilbert),
            pages(VectorIndexMethod::kLinearScan));
}

}  // namespace
}  // namespace fielddb
