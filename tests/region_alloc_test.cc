// Pins the estimation step's allocation behaviour: appending a piece to a
// Region copies its vertices into the region's arena, so estimating into
// a region whose buffers are already large enough allocates nothing, and
// estimating into an empty one allocates only as the arena and offsets
// grow (O(log pieces) times), never once per piece.
//
// This binary replaces the global operator new with a counting one, so it
// must stay a test executable of its own.

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stats.h"
#include "field/isoband.h"
#include "field/region.h"
#include "plan/operators.h"
#include "vector/vector_isoband.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never sees a new-expression's pointer
// reach std::free and warn of a mismatched deallocation.
__attribute__((noinline)) void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace fielddb {
namespace {

size_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr size_t kSide = 100;  // kSide x kSide = 10,000 quads

// A 100 x 100 grid of unit quads with seeded corner values in [0, 1];
// most of them meet the band [0.3, 0.7] and yield several pieces.
std::vector<CellRecord> BandQuads() {
  Rng rng(16);
  std::vector<CellRecord> cells;
  cells.reserve(kSide * kSide);
  for (size_t j = 0; j < kSide; ++j) {
    for (size_t i = 0; i < kSide; ++i) {
      const Point2 lo{static_cast<double>(i), static_cast<double>(j)};
      const double ll = rng.NextDouble(), lr = rng.NextDouble();
      const double ur = rng.NextDouble(), ul = rng.NextDouble();
      cells.push_back(CellRecord::Quad(static_cast<CellId>(cells.size()),
                                       Rect2{lo, lo + Point2{1, 1}}, ll, lr,
                                       ur, ul));
    }
  }
  return cells;
}

const ValueInterval kBand{0.3, 0.7};

// Estimates every cell into `region`; returns the allocations it made.
size_t EstimateAll(const std::vector<CellRecord>& cells, Region* region) {
  const size_t before = Allocations();
  for (const CellRecord& cell : cells) {
    const StatusOr<size_t> n = CellIsoband(cell, kBand, region);
    if (!n.ok()) ADD_FAILURE() << n.status().ToString();
  }
  return Allocations() - before;
}

// Doubling growth of two buffers: at most bit_width(n) + 1 allocations
// each for the arena and the offsets.
size_t GrowthBound(const Region& region) {
  return std::bit_width(region.pieces.num_vertices()) +
         std::bit_width(region.NumPieces()) + 2;
}

TEST(RegionAllocTest, CounterSeesAllocations) {
  // Guards the other tests against a counter that never moves.
  const size_t before = Allocations();
  std::vector<int>* volatile v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(Allocations() - before, 2u);
}

TEST(RegionAllocTest, PreReservedRegionMakesNoAllocation) {
  const std::vector<CellRecord> cells = BandQuads();
  Region sized;
  EstimateAll(cells, &sized);
  ASSERT_GT(sized.NumPieces(), cells.size());

  Region reserved;
  reserved.pieces.reserve(sized.NumPieces(), sized.pieces.num_vertices());
  EXPECT_EQ(EstimateAll(cells, &reserved), 0u);
  EXPECT_EQ(reserved.NumPieces(), sized.NumPieces());

  // A cleared region keeps its buffers: reuse allocates nothing either.
  sized.pieces.clear();
  EXPECT_EQ(EstimateAll(cells, &sized), 0u);
  EXPECT_EQ(sized.NumPieces(), reserved.NumPieces());
}

TEST(RegionAllocTest, EmptyRegionAllocatesLogarithmically) {
  const std::vector<CellRecord> cells = BandQuads();
  Region region;
  const size_t allocations = EstimateAll(cells, &region);
  ASSERT_GT(region.NumPieces(), cells.size());
  EXPECT_LE(allocations, GrowthBound(region))
      << allocations << " allocations for " << region.NumPieces()
      << " pieces";
}

TEST(RegionAllocTest, EstimateOpIntoReservedRegionMakesNoAllocation) {
  const std::vector<CellRecord> cells = BandQuads();
  Region region;
  QueryStats stats;
  EstimateOp warm(kBand, &region, &stats, /*count_candidates=*/true);
  for (const CellRecord& cell : cells) ASSERT_TRUE(warm(0, cell));
  const uint64_t pieces = stats.region_pieces;
  ASSERT_EQ(pieces, region.NumPieces());

  region.pieces.clear();
  stats = QueryStats{};
  const size_t before = Allocations();
  EstimateOp estimate(kBand, &region, &stats, /*count_candidates=*/true);
  for (const CellRecord& cell : cells) ASSERT_TRUE(estimate(0, cell));
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_TRUE(estimate.status().ok());
  EXPECT_EQ(stats.region_pieces, pieces);
}

TEST(RegionAllocTest, VectorBandAllocatesOnlyToGrow) {
  std::vector<VectorCellRecord> cells;
  for (const CellRecord& q : BandQuads()) {
    VectorCellRecord cell;
    cell.id = q.id;
    cell.num_vertices = 4;
    for (uint32_t v = 0; v < 4; ++v) {
      cell.x[v] = q.x[v];
      cell.y[v] = q.y[v];
      cell.u[v] = q.w[v];
      cell.v[v] = -q.w[v];
    }
    cells.push_back(cell);
  }
  const VectorBandQuery band{ValueInterval{0.2, 0.8},
                             ValueInterval{-0.8, -0.2}};
  auto estimate = [&](Region* region) {
    const size_t before = Allocations();
    for (const VectorCellRecord& cell : cells) {
      if (!VectorCellIsoband(cell, band, region).ok()) ADD_FAILURE();
    }
    return Allocations() - before;
  };
  Region region;
  const size_t growing = estimate(&region);
  ASSERT_GT(region.NumPieces(), cells.size());
  EXPECT_LE(growing, GrowthBound(region));
  region.pieces.clear();
  EXPECT_EQ(estimate(&region), 0u);
}

}  // namespace
}  // namespace fielddb
