#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "gen/fractal.h"
#include "index/i_all.h"
#include "index/i_hilbert.h"
#include "index/interval_quadtree.h"
#include "index/linear_scan.h"
#include "index/row_ip_index.h"
#include "index/zone_map.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

struct IndexFixture {
  std::unique_ptr<MemPageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<ValueIndex> index;
};

IndexFixture BuildIndex(IndexMethod method, const Field& field) {
  IndexFixture fx;
  fx.file = std::make_unique<MemPageFile>();
  fx.pool = std::make_unique<BufferPool>(fx.file.get(), 4096);
  switch (method) {
    case IndexMethod::kLinearScan: {
      auto idx = LinearScanIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIAll: {
      auto idx = IAllIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIHilbert: {
      auto idx = IHilbertIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIntervalQuadtree: {
      auto idx = IntervalQuadtreeIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kRowIp: {
      auto idx = RowIpIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
  }
  return fx;
}

// The invariant the whole vectorized pipeline rests on: every zone entry
// equals the interval recomputed from the slot's record bytes.
void ExpectZoneMapMatchesRecords(const CellStore& store) {
  ASSERT_EQ(store.zone_map().size(), store.size());
  ASSERT_TRUE(store
                  .Scan(0, store.size(),
                        [&](uint64_t pos, const CellRecord& cell) {
                          EXPECT_EQ(store.zone_map().At(pos),
                                    cell.Interval())
                              << "slot " << pos;
                          return true;
                        })
                  .ok());
}

class ZoneMapTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(ZoneMapTest, BuildFillsZoneMapFromRecords) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  ExpectZoneMapMatchesRecords(fx.index->cell_store());
}

TEST_P(ZoneMapTest, UpdateStormKeepsZoneMapConsistent) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  Rng rng(41);
  for (int round = 0; round < 150; ++round) {
    const CellId id =
        static_cast<CellId>(rng.NextBounded(field->NumCells()));
    const double base = rng.NextDouble(-5, 5);
    ASSERT_TRUE(fx.index
                    ->UpdateCellValues(
                        id, {base, base + rng.NextDouble(),
                             base + rng.NextDouble(),
                             base + rng.NextDouble()})
                    .ok());
    // The updated slot must be exact immediately...
    const uint64_t pos = fx.index->cell_store().PositionOf(id);
    CellRecord rec;
    ASSERT_TRUE(fx.index->cell_store().Get(pos, &rec).ok());
    ASSERT_EQ(fx.index->cell_store().zone_map().At(pos), rec.Interval());
  }
  // ...and the whole map exact at the end.
  ExpectZoneMapMatchesRecords(fx.index->cell_store());
}

TEST_P(ZoneMapTest, FilterZoneMapMatchesBruteForce) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  const CellStore& store = fx.index->cell_store();

  Rng rng(43);
  for (int i = 0; i < 20; ++i) {
    const ValueInterval q =
        ValueInterval::Of(rng.NextDouble(-2, 3), rng.NextDouble(-2, 3));
    std::vector<PosRange> ranges;
    store.zone_map().FilterRanges(q, &ranges);
    std::vector<PosRange> expect;
    ASSERT_TRUE(store
                    .Scan(0, store.size(),
                          [&](uint64_t pos, const CellRecord& cell) {
                            if (cell.Interval().Intersects(q)) {
                              AppendPosition(&expect, pos);
                            }
                            return true;
                          })
                    .ok());
    ASSERT_EQ(ranges, expect) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ZoneMapTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ZoneMapAttachTest, AttachRebuildsZoneMap) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto built = CellStore::Build(&pool, *field, {});
  ASSERT_TRUE(built.ok());
  const PageId first = built->first_page();
  const uint64_t n = built->size();

  auto attached = CellStore::Attach(&pool, first, n);
  ASSERT_TRUE(attached.ok());
  const ZoneMap<1>& a = attached->zone_map();
  const ZoneMap<1>& b = built->zone_map();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::vector<double>(a.mins(0), a.mins(0) + a.size()),
            std::vector<double>(b.mins(0), b.mins(0) + b.size()));
  EXPECT_EQ(std::vector<double>(a.maxs(0), a.maxs(0) + a.size()),
            std::vector<double>(b.maxs(0), b.maxs(0) + b.size()));
  ExpectZoneMapMatchesRecords(*attached);
}

// ---------------------------------------------------------------------------
// ZoneMap<D> against brute force, for both value dimensions: random
// summaries (some NaN bounds), queries that touch zone endpoints exactly,
// queries that match nothing, and [begin, end) windows with a base.

/// A random value in [-4, 4] snapped to a grid of quarters, so queries
/// and zones share endpoints often.
double SnappedValue(Rng& rng) {
  return std::round(rng.NextDouble(-4, 4) * 4.0) / 4.0;
}

template <int D>
ValueSummary<D> RandomSummary(Rng& rng, bool allow_nan) {
  ValueSummary<D> s;
  for (int d = 0; d < D; ++d) {
    const ValueInterval iv =
        ValueInterval::Of(SnappedValue(rng), SnappedValue(rng));
    double lo = iv.min;
    double hi = iv.max;
    if (allow_nan && rng.NextBounded(16) == 0) {
      (rng.NextBounded(2) == 0 ? lo : hi) =
          std::numeric_limits<double>::quiet_NaN();
    }
    if constexpr (D == 1) {
      s = ValueInterval{lo, hi};
    } else {
      s.lo[d] = lo;
      s.hi[d] = hi;
    }
  }
  return s;
}

/// The kernels' predicate, written out per component.
template <int D>
bool Matches(const ValueSummary<D>& zone, const ValueSummary<D>& q) {
  for (int d = 0; d < D; ++d) {
    if (!(SummaryLo(zone, d) <= SummaryHi(q, d) &&
          SummaryHi(zone, d) >= SummaryLo(q, d))) {
      return false;
    }
  }
  return true;
}

template <int D>
void CheckZoneMapAgainstBruteForce(uint64_t seed) {
  Rng rng(seed);
  const uint64_t n = 3000;
  std::vector<ValueSummary<D>> zones(n);
  ZoneMap<D> map;
  map.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    zones[i] = RandomSummary<D>(rng, /*allow_nan=*/true);
    map.Append(zones[i]);
  }
  // Set keeps the planes in step with the reference.
  for (int i = 0; i < 200; ++i) {
    const uint64_t pos = rng.NextBounded(n);
    zones[pos] = RandomSummary<D>(rng, true);
    map.Set(pos, zones[pos]);
  }
  ASSERT_EQ(map.size(), n);

  int nonempty = 0;
  int empty = 0;
  for (int iter = 0; iter < 300; ++iter) {
    ValueSummary<D> q;
    switch (iter % 3) {
      case 0:  // random box
        q = RandomSummary<D>(rng, false);
        break;
      case 1:  // exactly a zone's own bounds: touching endpoints
        q = zones[rng.NextBounded(n)];
        break;
      default: {  // beyond every value: the empty answer
        q = RandomSummary<D>(rng, false);
        if constexpr (D == 1) {
          q = ValueInterval{10.0, 11.0};
        } else {
          q.lo[iter % 2] = 10.0;
          q.hi[iter % 2] = 11.0;
        }
      }
    }
    bool has_nan = false;
    for (int d = 0; d < D; ++d) {
      has_nan = has_nan || std::isnan(SummaryLo(q, d)) ||
                std::isnan(SummaryHi(q, d));
    }
    if (has_nan) continue;  // a zone drawn with NaN bounds
    const uint64_t begin = iter % 4 == 0 ? 0 : rng.NextBounded(n);
    const uint64_t end =
        iter % 4 == 0 ? n : begin + rng.NextBounded(n - begin + 1);

    std::vector<PosRange> expect;
    for (uint64_t pos = begin; pos < end; ++pos) {
      if (Matches<D>(zones[pos], q)) AppendPosition(&expect, pos);
    }
    std::vector<PosRange> got;
    map.FilterRanges(q, begin, end, &got);
    ASSERT_EQ(got, expect) << "D=" << D << " iter " << iter;
    ++(expect.empty() ? empty : nonempty);

    if (begin == 0 && end == n) {
      std::vector<PosRange> whole;
      map.FilterRanges(q, &whole);
      EXPECT_EQ(whole, expect);
      // Stride 1 sees every slot: counts equal the exact filter's.
      const ZoneProbe probe = map.Probe(q, 1);
      EXPECT_EQ(probe.sampled, n);
      EXPECT_EQ(probe.matched, TotalRangeLength(expect));
      EXPECT_EQ(probe.run_starts, expect.size());
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(nonempty, 50);
  EXPECT_GT(empty, 50);

  // At() reads back what was stored, NaN bounds included.
  for (uint64_t pos = 0; pos < n; pos += 7) {
    const ValueSummary<D> back = map.At(pos);
    for (int d = 0; d < D; ++d) {
      const double lo = SummaryLo(zones[pos], d);
      const double hi = SummaryHi(zones[pos], d);
      EXPECT_TRUE(SummaryLo(back, d) == lo ||
                  (std::isnan(lo) && std::isnan(SummaryLo(back, d))));
      EXPECT_TRUE(SummaryHi(back, d) == hi ||
                  (std::isnan(hi) && std::isnan(SummaryHi(back, d))));
    }
  }
}

TEST(ZoneMapDimTest, IntervalZonesMatchBruteForce) {
  CheckZoneMapAgainstBruteForce<1>(61);
}

TEST(ZoneMapDimTest, BoxZonesMatchBruteForce) {
  CheckZoneMapAgainstBruteForce<2>(67);
}

TEST(IntersectRangesTest, NestedAbuttingAndDisjointRuns) {
  const auto intersect = [](const std::vector<PosRange>& a,
                            const std::vector<PosRange>& b) {
    std::vector<PosRange> out;
    IntersectRanges(a, b, &out);
    return out;
  };
  using V = std::vector<PosRange>;
  // Nested: the inner run survives, either side outer.
  EXPECT_EQ(intersect({{0, 100}}, {{10, 20}, {30, 40}}),
            (V{{10, 20}, {30, 40}}));
  EXPECT_EQ(intersect({{10, 20}, {30, 40}}, {{0, 100}}),
            (V{{10, 20}, {30, 40}}));
  // Abutting half-open runs share no slot.
  EXPECT_EQ(intersect({{0, 10}}, {{10, 20}}), V{});
  EXPECT_EQ(intersect({{0, 10}, {20, 30}}, {{10, 20}, {30, 40}}), V{});
  // Disjoint lists.
  EXPECT_EQ(intersect({{0, 5}, {50, 60}}, {{10, 20}, {70, 80}}), V{});
  // Partial overlaps, one run on one side spanning several on the other.
  EXPECT_EQ(intersect({{0, 15}, {25, 50}}, {{10, 30}, {40, 45}, {49, 70}}),
            (V{{10, 15}, {25, 30}, {40, 45}, {49, 50}}));
  // Empty inputs.
  EXPECT_EQ(intersect({}, {{0, 10}}), V{});
  EXPECT_EQ(intersect({{0, 10}}, {}), V{});

  // Against per-slot brute force on random run lists.
  Rng rng(71);
  const auto random_runs = [&](uint64_t n) {
    std::vector<PosRange> runs;
    uint64_t pos = rng.NextBounded(5);
    while (pos < n) {
      const uint64_t end = std::min(n, pos + 1 + rng.NextBounded(12));
      runs.push_back(PosRange{pos, end});
      pos = end + rng.NextBounded(8);  // 0 leaves the runs abutting
    }
    return runs;
  };
  for (int iter = 0; iter < 200; ++iter) {
    const uint64_t n = 300;
    const std::vector<PosRange> a = random_runs(n);
    const std::vector<PosRange> b = random_runs(n);
    std::vector<bool> in_a(n, false), in_b(n, false);
    for (const PosRange& r : a) {
      for (uint64_t p = r.begin; p < r.end; ++p) in_a[p] = true;
    }
    for (const PosRange& r : b) {
      for (uint64_t p = r.begin; p < r.end; ++p) in_b[p] = true;
    }
    std::vector<bool> got_slots(n, false);
    const std::vector<PosRange> got = intersect(a, b);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_LT(got[i].begin, got[i].end);
      if (i > 0) {
        ASSERT_LE(got[i - 1].end, got[i].begin);
      }
      for (uint64_t p = got[i].begin; p < got[i].end; ++p) {
        got_slots[p] = true;
      }
    }
    for (uint64_t p = 0; p < n; ++p) {
      ASSERT_EQ(got_slots[p], in_a[p] && in_b[p]) << "slot " << p;
    }
  }
}

TEST(ScanRangesFilteredTest, VisitsExactlyMatchingSlotsAndCountsSkips) {
  FractalOptions fo;
  fo.size_exp = 5;  // 1024 cells
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto store = CellStore::Build(&pool, *field, {});
  ASSERT_TRUE(store.ok());

  Rng rng(47);
  for (int iter = 0; iter < 10; ++iter) {
    // Disjoint ascending runs over the store, random query band.
    std::vector<PosRange> ranges;
    uint64_t cursor = 0;
    while (cursor + 8 < store->size()) {
      const uint64_t begin = cursor + rng.NextBounded(40);
      const uint64_t end =
          std::min<uint64_t>(begin + 1 + rng.NextBounded(120),
                             store->size());
      if (begin >= end) break;
      ranges.push_back(PosRange{begin, end});
      cursor = end + 1 + rng.NextBounded(30);
    }
    const ValueInterval q =
        ValueInterval::Of(rng.NextDouble(-2, 3), rng.NextDouble(-2, 3));

    // Ground truth from an unfiltered walk of the same runs.
    std::set<uint64_t> expect_visited;
    uint64_t total_slots = 0;
    uint64_t expect_pages = 0;
    for (const PosRange& r : ranges) {
      total_slots += r.length();
      expect_pages += (r.end - 1) / store->cells_per_page() -
                      r.begin / store->cells_per_page() + 1;
      ASSERT_TRUE(store
                      ->Scan(r.begin, r.end,
                             [&](uint64_t pos, const CellRecord& cell) {
                               if (cell.Interval().Intersects(q)) {
                                 expect_visited.insert(pos);
                               }
                               return true;
                             })
                      .ok());
    }

    std::set<uint64_t> visited;
    uint64_t skipped = 0;
    const IoStats before = pool.stats();
    ASSERT_TRUE(store
                    ->ScanRangesFiltered(
                        ranges.data(), ranges.size(), q, &skipped,
                        [&](uint64_t pos, const CellRecord& cell) {
                          EXPECT_TRUE(cell.Interval().Intersects(q));
                          EXPECT_TRUE(visited.insert(pos).second);
                          return true;
                        })
                    .ok());
    const IoStats delta = pool.stats() - before;

    EXPECT_EQ(visited, expect_visited) << "iter " << iter;
    EXPECT_EQ(skipped, total_slots - expect_visited.size())
        << "iter " << iter;
    // Every page of every run is fetched exactly once — the zone map
    // skips record deserialization, never page reads.
    EXPECT_EQ(delta.logical_reads, expect_pages) << "iter " << iter;
  }
}

TEST(ScanRangesTest, ReadaheadPreservesIoTotals) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  // Two pools over the same file contents: one walks runs with the
  // readahead path, the other with the plain per-page scan. Their
  // logical and physical totals must agree exactly.
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto store = CellStore::Build(&pool, *field, {});
  ASSERT_TRUE(store.ok());

  const std::vector<PosRange> runs = {{3, 200}, {450, 700}, {900, 1024}};

  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  uint64_t seen_ranges = 0;
  ASSERT_TRUE(store
                  ->ScanRanges(runs.data(), runs.size(),
                               [&](uint64_t, const CellRecord&) {
                                 ++seen_ranges;
                                 return true;
                               })
                  .ok());
  const IoStats with_readahead = pool.stats();

  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  uint64_t seen_scan = 0;
  for (const PosRange& r : runs) {
    ASSERT_TRUE(store
                    ->Scan(r.begin, r.end,
                           [&](uint64_t, const CellRecord&) {
                             ++seen_scan;
                             return true;
                           })
                    .ok());
  }
  const IoStats plain = pool.stats();

  EXPECT_EQ(seen_ranges, seen_scan);
  EXPECT_EQ(with_readahead.logical_reads, plain.logical_reads);
  EXPECT_EQ(with_readahead.physical_reads, plain.physical_reads);
  // Readahead turns the run's reads into sequential ones; it must never
  // read a page the plain scan would not have.
  EXPECT_GE(with_readahead.sequential_reads, plain.sequential_reads);
}

}  // namespace
}  // namespace fielddb
