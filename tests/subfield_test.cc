#include "index/subfield.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "gen/fractal.h"
#include "index/i_hilbert.h"
#include "index/subfield_maintenance.h"
#include "legacy_subfields.h"
#include "storage/page_file.h"
#include "vector/vector_index.h"

namespace fielddb {
namespace {

SubfieldCostConfig PaperExampleConfig() {
  // The arithmetic mode of the paper's worked example (Fig. 5): raw
  // interval sizes, no q̄ term.
  SubfieldCostConfig config;
  config.normalize = false;
  config.avg_query_fraction = 0.0;
  return config;
}

TEST(SubfieldCostTest, PaperFig5Example) {
  // Subfield 1 holds cells with intervals of sizes 11, 10, 11, 13 and a
  // hull of size 21. Cost before inserting c5 = 21/45 ≈ 0.466; inserting
  // c5 (interval size 13, growing the hull to size 31) gives
  // 31/58 ≈ 0.534 — so a new subfield starts with c5.
  const SubfieldCostModel model(ValueInterval{0, 100},
                                PaperExampleConfig());
  // Reconstruction matching Fig. 5's arithmetic: cells [20,30], [25,34],
  // [28,38], [28,40]; hull [20,40] has PaperSize 21; then c5 = [10,22]
  // extends the hull to [10,40], PaperSize 31.
  Subfield sf;
  sf.start = 0;
  sf.end = 4;
  sf.interval = ValueInterval{20, 40};
  sf.sum_interval_sizes = 11 + 10 + 11 + 13;

  EXPECT_NEAR(model.Cost(sf.interval, sf.sum_interval_sizes), 21.0 / 45.0,
              1e-12);
  const ValueInterval c5{10, 22};  // PaperSize 13
  const ValueInterval merged = ValueInterval::Hull(sf.interval, c5);
  EXPECT_NEAR(model.Cost(merged, sf.sum_interval_sizes + c5.PaperSize()),
              31.0 / 58.0, 1e-12);
  // Cost increases -> the paper starts Subfield 2 with c5.
  EXPECT_FALSE(model.ShouldAppend(sf, c5));
}

TEST(SubfieldCostTest, SimilarCellLowersCost) {
  const SubfieldCostModel model(ValueInterval{0, 100},
                                PaperExampleConfig());
  Subfield sf;
  sf.interval = ValueInterval{20, 30};
  sf.sum_interval_sizes = 11;
  // An identical interval doubles SI without growing the hull.
  EXPECT_TRUE(model.ShouldAppend(sf, ValueInterval{20, 30}));
}

TEST(SubfieldCostTest, NormalizedModeMatchesScaledRaw) {
  // (L + q̄·R)/SI is scale-free: costs computed on a value range [0, 1]
  // and on [0, 1000] with proportionally scaled intervals order the same
  // way.
  SubfieldCostConfig config;  // normalized, q̄ = 0.5
  const SubfieldCostModel small(ValueInterval{0, 1}, config);
  const SubfieldCostModel large(ValueInterval{0, 1000}, config);
  Subfield sf_small;
  sf_small.interval = ValueInterval{0.2, 0.3};
  sf_small.sum_interval_sizes = (ValueInterval{0.2, 0.3}).PaperSize();
  Subfield sf_large;
  sf_large.interval = ValueInterval{200, 300};
  sf_large.sum_interval_sizes = (ValueInterval{200, 300}).PaperSize();
  EXPECT_EQ(small.ShouldAppend(sf_small, ValueInterval{0.25, 0.35}),
            large.ShouldAppend(sf_large, ValueInterval{250, 350}));
}

TEST(BuildSubfieldsTest, EmptyInput) {
  EXPECT_TRUE(BuildSubfields({}, ValueInterval{0, 1}, {}).empty());
}

TEST(BuildSubfieldsTest, SingleCell) {
  const std::vector<Subfield> sfs =
      BuildSubfields({ValueInterval{1, 2}}, ValueInterval{0, 10}, {});
  ASSERT_EQ(sfs.size(), 1u);
  EXPECT_EQ(sfs[0].start, 0u);
  EXPECT_EQ(sfs[0].end, 1u);
  EXPECT_EQ(sfs[0].interval, (ValueInterval{1, 2}));
}

TEST(BuildSubfieldsTest, PartitionInvariants) {
  Rng rng(8);
  std::vector<ValueInterval> intervals(500);
  double v = 0;
  ValueInterval range = ValueInterval::Empty();
  for (auto& iv : intervals) {
    v += rng.NextGaussian();  // a random walk: spatially correlated values
    iv = ValueInterval::Of(v, v + rng.NextDouble());
    range.Extend(iv);
  }
  const std::vector<Subfield> sfs = BuildSubfields(intervals, range, {});
  ASSERT_FALSE(sfs.empty());

  // Contiguous, ordered, exhaustive.
  EXPECT_EQ(sfs.front().start, 0u);
  EXPECT_EQ(sfs.back().end, intervals.size());
  for (size_t i = 0; i + 1 < sfs.size(); ++i) {
    EXPECT_EQ(sfs[i].end, sfs[i + 1].start);
    EXPECT_LT(sfs[i].start, sfs[i].end);
  }

  // Each subfield's interval is exactly the hull of its members and SI
  // is the sum of member sizes.
  for (const Subfield& sf : sfs) {
    ValueInterval hull = ValueInterval::Empty();
    double si = 0;
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      hull.Extend(intervals[pos]);
      si += intervals[pos].PaperSize();
    }
    EXPECT_EQ(sf.interval, hull);
    EXPECT_NEAR(sf.sum_interval_sizes, si, 1e-9);
  }
}

TEST(BuildSubfieldsTest, SmoothSequenceGroupsAggressively) {
  // Nearly identical intervals should merge into few subfields.
  std::vector<ValueInterval> intervals(1000);
  for (size_t i = 0; i < intervals.size(); ++i) {
    const double base = 50.0 + 0.001 * static_cast<double>(i);
    intervals[i] = ValueInterval{base, base + 1.0};
  }
  const std::vector<Subfield> sfs =
      BuildSubfields(intervals, ValueInterval{0, 100}, {});
  EXPECT_LT(sfs.size(), 20u);
}

TEST(BuildSubfieldsTest, JaggedSequenceSplitsOften) {
  // Alternating far-apart intervals should rarely merge.
  std::vector<ValueInterval> intervals(1000);
  for (size_t i = 0; i < intervals.size(); ++i) {
    const double base = (i % 2 == 0) ? 0.0 : 90.0;
    intervals[i] = ValueInterval{base, base + 1.0};
  }
  SubfieldCostConfig config;
  config.normalize = false;  // raw mode: merging [0,1] with [90,91] is
                             // clearly cost-increasing
  const std::vector<Subfield> jagged =
      BuildSubfields(intervals, ValueInterval{0, 100}, config);

  std::vector<ValueInterval> smooth(1000, ValueInterval{45, 46});
  const std::vector<Subfield> merged =
      BuildSubfields(smooth, ValueInterval{0, 100}, config);
  EXPECT_GT(jagged.size(), 10 * merged.size());
}

TEST(SubfieldContainingTest, BinarySearchOverPartition) {
  std::vector<Subfield> sfs(3);
  sfs[0].start = 0;
  sfs[0].end = 4;
  sfs[1].start = 4;
  sfs[1].end = 5;
  sfs[2].start = 5;
  sfs[2].end = 12;
  EXPECT_EQ(*SubfieldContaining(sfs, 0), 0u);
  EXPECT_EQ(*SubfieldContaining(sfs, 3), 0u);
  EXPECT_EQ(*SubfieldContaining(sfs, 4), 1u);
  EXPECT_EQ(*SubfieldContaining(sfs, 5), 2u);
  EXPECT_EQ(*SubfieldContaining(sfs, 11), 2u);
  // A position no row covers — past the end, or in a gap between rows —
  // is corruption, not an out-of-range index.
  EXPECT_EQ(SubfieldContaining(sfs, 12).status().code(),
            StatusCode::kCorruption);
  sfs[2].start = 6;
  EXPECT_EQ(SubfieldContaining(sfs, 5).status().code(),
            StatusCode::kCorruption);
}

TEST(RefreshSubfieldHullTest, RecomputesHullAndReportsUncoveredSlots) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  ZoneMap<1> zones;
  for (int i = 0; i < 10; ++i) zones.Append(ValueInterval{1.0 * i, i + 0.5});
  // Hand-made partition: [0, 4) and [4, 10).
  std::vector<Subfield> sfs(2);
  sfs[0] = Subfield{0, 4, ValueInterval{0, 3.5}, 6.0};
  sfs[1] = Subfield{4, 10, ValueInterval{4, 9.5}, 9.0};
  for (size_t i = 0; i < sfs.size(); ++i) {
    const RTreeEntry<1> e = SubfieldEntry<1>(i, sfs[i]);
    ASSERT_TRUE(tree->Insert(e.box, e.a, e.b).ok());
  }

  // Slot 2 moves outside its subfield's hull: hull, SI and the tree
  // entry follow.
  zones.Set(2, ValueInterval{-5, -4});
  ASSERT_TRUE(
      RefreshSubfieldHull(zones, &*tree, &sfs, 2, SubfieldEntry<1>).ok());
  EXPECT_EQ(sfs[0].interval, (ValueInterval{-5, 3.5}));
  EXPECT_DOUBLE_EQ(sfs[0].sum_interval_sizes, 3 * 1.5 + 2.0);
  std::vector<RTreeEntry<1>> hits;
  ASSERT_TRUE(tree->Search(BoxFromInterval({-4.5, -4.5}), &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].a, 0u);
  EXPECT_EQ(hits[0].b, 4u);

  // A gap in the partition is corruption, not an out-of-range access.
  sfs[1].start = 5;
  EXPECT_EQ(RefreshSubfieldHull(zones, &*tree, &sfs, 4, SubfieldEntry<1>)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(RefreshSubfieldHull(zones, &*tree, &sfs, 10, SubfieldEntry<1>)
                .code(),
            StatusCode::kCorruption);
}

TEST(BuildSubfieldsTest, LargerQBarGivesFewerSubfields) {
  // A larger assumed query length raises the fixed access cost, which
  // rewards bigger subfields (design-choice ablation #4 in DESIGN.md).
  Rng rng(15);
  std::vector<ValueInterval> intervals(2000);
  double v = 0;
  ValueInterval range = ValueInterval::Empty();
  for (auto& iv : intervals) {
    v += rng.NextGaussian();
    iv = ValueInterval::Of(v, v + 0.5);
    range.Extend(iv);
  }
  SubfieldCostConfig small_q, large_q;
  small_q.avg_query_fraction = 0.05;
  large_q.avg_query_fraction = 0.9;
  const size_t with_small =
      BuildSubfields(intervals, range, small_q).size();
  const size_t with_large =
      BuildSubfields(intervals, range, large_q).size();
  EXPECT_LE(with_large, with_small);
}

// ---------------------------------------------------------------------------
// The templated builder against the pre-template builders
// (legacy_subfields.h): the same partition, bit for bit.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSamePartition(const std::vector<SubfieldOf<2>>& got,
                         const std::vector<legacy::BoxSubfield>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].start, want[i].start) << "subfield " << i;
    ASSERT_EQ(got[i].end, want[i].end) << "subfield " << i;
    for (int d = 0; d < 2; ++d) {
      ASSERT_TRUE(SameBits(got[i].interval.lo[d], want[i].box.lo[d]))
          << "subfield " << i;
      ASSERT_TRUE(SameBits(got[i].interval.hi[d], want[i].box.hi[d]))
          << "subfield " << i;
    }
    ASSERT_TRUE(SameBits(got[i].sum_interval_sizes, want[i].sum_box_sizes))
        << "subfield " << i;
  }
}

void ExpectSamePartition(const std::vector<Subfield>& got,
                         const std::vector<legacy::ScalarSubfield>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].start, want[i].start) << "subfield " << i;
    ASSERT_EQ(got[i].end, want[i].end) << "subfield " << i;
    ASSERT_TRUE(SameBits(got[i].interval.min, want[i].interval.min));
    ASSERT_TRUE(SameBits(got[i].interval.max, want[i].interval.max));
    ASSERT_TRUE(
        SameBits(got[i].sum_interval_sizes, want[i].sum_interval_sizes))
        << "subfield " << i;
  }
}

TEST(SubfieldOracleTest, BoxBuilderMatchesLegacyOnSeededWalk) {
  Rng rng(23);
  std::vector<Box<2>> boxes(24000);
  Box<2> range = Box<2>::Empty();
  double u = 0, v = 0;
  for (Box<2>& b : boxes) {
    u += rng.NextGaussian();
    v += 0.3 * rng.NextGaussian();
    b.lo = {u, v};
    b.hi = {u + rng.NextDouble(), v + 2.0 * rng.NextDouble()};
    range.Extend(b);
  }
  for (const double q : {0.5, 0.05, 3.0}) {
    SubfieldCostConfig config;
    config.avg_query_fraction = q;
    const std::vector<SubfieldOf<2>> got = BuildSubfields(boxes, range, config);
    ExpectSamePartition(got, legacy::BuildBoxSubfields(boxes, range, q));
    EXPECT_GT(got.size(), 50u) << "q " << q;
  }
}

TEST(SubfieldOracleTest, VectorDatabasePartitionMatchesLegacy) {
  // A 256x256 fractal wind field: 65,536 cells in Hilbert order.
  FractalOptions fo;
  fo.size_exp = 8;
  fo.roughness_h = 0.7;
  fo.seed = 77;
  const std::vector<double> su = DiamondSquare(fo);
  fo.seed = 78;
  const std::vector<double> sv = DiamondSquare(fo);
  auto field =
      VectorGridField::Create(256, 256, Rect2{{0, 0}, {1, 1}}, su, sv);
  ASSERT_TRUE(field.ok());
  VectorFieldDatabase::Options options;
  options.pool_pages = 4096;
  auto db = VectorFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<Box<2>> boxes((*db)->num_cells());
  for (uint64_t pos = 0; pos < boxes.size(); ++pos) {
    boxes[pos] = (*db)->zone_map().At(pos);
  }
  ExpectSamePartition((*db)->subfields(),
                      legacy::BuildBoxSubfields(
                          boxes, field->ValueRangeBox(), 0.5));
}

TEST(SubfieldOracleTest, IntervalBuilderMatchesLegacyOnTerrain) {
  FractalOptions fo;
  fo.size_exp = 8;  // 65,536 cells
  fo.roughness_h = 0.5;
  fo.seed = 5;
  auto terrain = MakeFractalField(fo);
  ASSERT_TRUE(terrain.ok());
  const std::vector<CellId> order =
      LinearizeCells(*terrain, *MakeCurve(CurveType::kHilbert, 16));
  std::vector<ValueInterval> intervals(order.size());
  for (uint64_t pos = 0; pos < order.size(); ++pos) {
    intervals[pos] = terrain->GetCell(order[pos]).Interval();
  }
  const ValueInterval range = terrain->ValueRange();
  for (const bool normalize : {true, false}) {
    SubfieldCostConfig config;
    config.normalize = normalize;
    ExpectSamePartition(
        BuildSubfields(intervals, range, config),
        legacy::BuildScalarSubfields(intervals, range,
                                     config.avg_query_fraction, normalize));
  }
}

}  // namespace
}  // namespace fielddb
