// Micro-benchmarks (google-benchmark) for the substrates: space-filling
// curve encoding, R*-tree insert/search, subfield construction, and the
// isoband estimation step. These are not paper figures; they document
// the constant factors underneath them.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "curve/curves.h"
#include "field/isoband.h"
#include "gen/fractal.h"
#include "index/subfield.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

void BM_CurveEncode(benchmark::State& state) {
  const auto curve =
      MakeCurve(static_cast<CurveType>(state.range(0)), 16);
  Rng rng(1);
  uint32_t x = 0, y = 0;
  for (auto _ : state) {
    x = (x + 12345) & 0xFFFF;
    y = (y + 54321) & 0xFFFF;
    benchmark::DoNotOptimize(curve->Encode(x, y));
  }
  state.SetLabel(CurveTypeName(curve->type()));
}
BENCHMARK(BM_CurveEncode)
    ->Arg(static_cast<int>(CurveType::kHilbert))
    ->Arg(static_cast<int>(CurveType::kZOrder))
    ->Arg(static_cast<int>(CurveType::kGrayCode))
    ->Arg(static_cast<int>(CurveType::kRowMajor));

void BM_RTreeInsert1D(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    MemPageFile file;
    BufferPool pool(&file, 4096);
    auto tree = RStarTree<1>::Create(&pool);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      const double lo = rng.NextDouble();
      Box<1> b;
      b.lo = {lo};
      b.hi = {lo + 0.01};
      benchmark::DoNotOptimize(tree->Insert(b, i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert1D)->Arg(1000)->Arg(10000);

void BM_RTreeBulkLoad1D(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  std::vector<RTreeEntry<1>> entries(n);
  for (int64_t i = 0; i < n; ++i) {
    const double lo = rng.NextDouble();
    entries[i].box.lo = {lo};
    entries[i].box.hi = {lo + 0.01};
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) {
              return x.box.lo[0] < y.box.lo[0];
            });
  for (auto _ : state) {
    MemPageFile file;
    BufferPool pool(&file, 4096);
    benchmark::DoNotOptimize(RStarTree<1>::BulkLoad(&pool, entries));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeBulkLoad1D)->Arg(10000)->Arg(100000);

void BM_RTreeSearch1D(benchmark::State& state) {
  Rng rng(4);
  const int64_t n = state.range(0);
  MemPageFile file;
  BufferPool pool(&file, 1 << 20);
  std::vector<RTreeEntry<1>> entries(n);
  for (int64_t i = 0; i < n; ++i) {
    const double lo = rng.NextDouble();
    entries[i].box.lo = {lo};
    entries[i].box.hi = {lo + 0.001};
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) {
              return x.box.lo[0] < y.box.lo[0];
            });
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  uint64_t found = 0;
  for (auto _ : state) {
    const double lo = rng.NextDouble() * 0.95;
    Box<1> q;
    q.lo = {lo};
    q.hi = {lo + 0.02};
    tree->Search(q, [&](const RTreeEntry<1>&) {
      ++found;
      return true;
    });
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_RTreeSearch1D)->Arg(100000)->Arg(1000000);

void BM_BuildSubfields(benchmark::State& state) {
  Rng rng(5);
  const int64_t n = state.range(0);
  std::vector<ValueInterval> intervals(n);
  ValueInterval range = ValueInterval::Empty();
  double v = 0;
  for (auto& iv : intervals) {
    v += rng.NextGaussian();
    iv = ValueInterval::Of(v, v + rng.NextDouble());
    range.Extend(iv);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSubfields(intervals, range, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildSubfields)->Arg(10000)->Arg(1000000);

void BM_CellIsoband(benchmark::State& state) {
  Rng rng(6);
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
      rng.NextDouble(), rng.NextDouble());
  for (auto _ : state) {
    Region region;
    benchmark::DoNotOptimize(
        CellIsoband(quad, ValueInterval{0.4, 0.6}, &region));
  }
}
BENCHMARK(BM_CellIsoband);

// The estimate layer over a 10k-quad band (100 x 100 unit quads, seeded
// corner values, band [0.3, 0.7]): Arg(0) estimates into a fresh Region
// per pass, so the vertex arena and offsets grow from empty; Arg(1)
// clears and reuses one Region, so after the first pass no allocation
// is left and only clipping and the arena copies are timed.
void BM_CellIsobandBand(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  Rng rng(16);
  std::vector<CellRecord> cells;
  for (int j = 0; j < 100; ++j) {
    for (int i = 0; i < 100; ++i) {
      const Point2 lo{static_cast<double>(i), static_cast<double>(j)};
      const double ll = rng.NextDouble(), lr = rng.NextDouble();
      const double ur = rng.NextDouble(), ul = rng.NextDouble();
      cells.push_back(CellRecord::Quad(static_cast<CellId>(cells.size()),
                                       Rect2{lo, lo + Point2{1, 1}}, ll, lr,
                                       ur, ul));
    }
  }
  const ValueInterval band{0.3, 0.7};
  Region reused;
  for (auto _ : state) {
    Region fresh;
    Region* region = reuse ? &reused : &fresh;
    region->pieces.clear();
    for (const CellRecord& cell : cells) {
      benchmark::DoNotOptimize(CellIsoband(cell, band, region));
    }
    benchmark::DoNotOptimize(region->NumPieces());
  }
  state.SetItemsProcessed(state.iterations() * cells.size());
  state.SetLabel(reuse ? "reused region" : "fresh region");
}
BENCHMARK(BM_CellIsobandBand)->Arg(0)->Arg(1);

void BM_DiamondSquare(benchmark::State& state) {
  FractalOptions options;
  options.size_exp = static_cast<int>(state.range(0));
  options.roughness_h = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiamondSquare(options));
  }
}
BENCHMARK(BM_DiamondSquare)->Arg(8)->Arg(10);

}  // namespace
}  // namespace fielddb

BENCHMARK_MAIN();
