// The paper's motivating ocean scenario (Section 1): "Find regions where
// the temperature is between 20° and 25° and the salinity is between 12%
// and 13%" — a conjunctive field value query over two scalar fields.
//
// Each field gets its own I-Hilbert database; the conjunction is
// evaluated by running both single-field value queries and intersecting
// the answer regions (piecewise, by clipping each temperature piece
// against the salinity condition on a sampling grid).
//
// Run:  ./build/examples/ocean_salmon

#include <cstdio>

#include "core/field_database.h"
#include "gen/fractal.h"

namespace {

using namespace fielddb;

// Remaps fractal heights (centered near 0) onto a target value range.
StatusOr<GridField> MakeScalarField(uint64_t seed, double out_min,
                                    double out_max, int size_exp) {
  FractalOptions options;
  options.size_exp = size_exp;
  options.roughness_h = 0.8;  // ocean-scale smooth gradients
  options.seed = seed;
  const std::vector<double> raw = DiamondSquare(options);
  double lo = raw[0], hi = raw[0];
  for (const double v : raw) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<double> scaled(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    scaled[i] =
        out_min + (raw[i] - lo) / (hi - lo) * (out_max - out_min);
  }
  const uint32_t n = uint32_t{1} << size_exp;
  return GridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                           std::move(scaled));
}

// Monte-Carlo area of the part of `piece` where `db`'s field value lies
// in `band`. Cheap and good enough for reporting; the exact alternative
// would clip the piece against the second field's cell structure.
double ConjunctiveArea(PolygonView piece, FieldDatabase& db,
                       const ValueInterval& band) {
  const Rect2 bb = piece.BoundingBox();
  const int grid = 6;  // 36 samples per piece
  int inside = 0, total = 0;
  for (int j = 0; j < grid; ++j) {
    for (int i = 0; i < grid; ++i) {
      const Point2 p{bb.lo.x + (i + 0.5) / grid * bb.Width(),
                     bb.lo.y + (j + 0.5) / grid * bb.Height()};
      // Only sample points inside the (convex) piece.
      bool in_piece = true;
      const auto& vs = piece.vertices;
      for (size_t k = 0; k < vs.size(); ++k) {
        const Point2 a = vs[k], b = vs[(k + 1) % vs.size()];
        if (Cross(b - a, p - a) < 0) {
          in_piece = false;
          break;
        }
      }
      if (!in_piece) continue;
      ++total;
      const StatusOr<double> w = db.PointQuery(p);
      if (w.ok() && band.Contains(*w)) ++inside;
    }
  }
  if (total == 0) return 0.0;
  return piece.Area() * inside / total;
}

}  // namespace

int main() {
  // Two 64x64 ocean property fields over the same survey square.
  StatusOr<GridField> temperature = MakeScalarField(11, 14.0, 28.0, 6);
  StatusOr<GridField> salinity = MakeScalarField(23, 10.0, 16.0, 6);
  if (!temperature.ok() || !salinity.ok()) {
    std::fprintf(stderr, "field generation failed\n");
    return 1;
  }

  FieldDatabaseOptions options;  // I-Hilbert by default
  auto temp_db = FieldDatabase::Build(*temperature, options);
  auto sal_db = FieldDatabase::Build(*salinity, options);
  if (!temp_db.ok() || !sal_db.ok()) {
    std::fprintf(stderr, "database build failed\n");
    return 1;
  }

  const ValueInterval temp_band{20.0, 25.0};
  const ValueInterval sal_band{12.0, 13.0};
  std::printf("salmon habitat query: temperature in %s AND salinity in %s\n",
              temp_band.ToString().c_str(), sal_band.ToString().c_str());

  // Step 1: value query on the temperature field.
  ValueQueryResult temp_result;
  Status s = (*temp_db)->ValueQuery(temp_band, &temp_result);
  if (!s.ok()) {
    std::fprintf(stderr, "temperature query: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  temperature band: %zu pieces, area %.4f, %llu pages\n",
              temp_result.region.NumPieces(),
              temp_result.region.TotalArea(),
              static_cast<unsigned long long>(
                  temp_result.stats.io.logical_reads));

  // Step 2: value query on the salinity field (for reporting symmetry).
  ValueQueryResult sal_result;
  s = (*sal_db)->ValueQuery(sal_band, &sal_result);
  if (!s.ok()) {
    std::fprintf(stderr, "salinity query: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  salinity band:    %zu pieces, area %.4f, %llu pages\n",
              sal_result.region.NumPieces(), sal_result.region.TotalArea(),
              static_cast<unsigned long long>(
                  sal_result.stats.io.logical_reads));

  // Step 3: conjunction — refine the (smaller) temperature region by the
  // salinity condition.
  double habitat_area = 0.0;
  for (const PolygonView piece : temp_result.region.pieces) {
    habitat_area += ConjunctiveArea(piece, **sal_db, sal_band);
  }
  std::printf("salmon habitat: ~%.4f of the survey square (%.1f%%)\n",
              habitat_area, 100.0 * habitat_area);
  return 0;
}
