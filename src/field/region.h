#ifndef FIELDDB_FIELD_REGION_H_
#define FIELDDB_FIELD_REGION_H_

#include <utility>
#include <vector>

#include "common/geometry.h"

namespace fielddb {

/// The answer of a field value query: a set of convex polygon pieces
/// (one or more per contributing cell) whose union is the exact region
/// where the query condition holds under the piecewise-linear
/// interpretation of the field. The pieces live in one flat PolygonList
/// (a vertex arena plus per-piece end offsets), so estimating a piece
/// allocates nothing once the list has grown to the answer's size.
struct Region {
  PolygonList pieces;

  bool IsEmpty() const { return pieces.empty(); }
  size_t NumPieces() const { return pieces.size(); }

  /// Sum of piece areas. Pieces produced by the estimation step do not
  /// overlap (each lives inside its own cell / sub-triangle), so this is
  /// the area of the union.
  double TotalArea() const;

  Rect2 BoundingBox() const;

  /// Appends copies of `other`'s pieces.
  void Append(const Region& other) { pieces.Append(other.pieces); }

  /// Appends `other`'s pieces and leaves `other` empty and reusable. An
  /// empty target takes `other`'s buffers whole unless it already holds
  /// larger ones (a caller's reservation).
  void Append(Region&& other) { pieces.Append(std::move(other.pieces)); }
};

/// Writes polygon layers (an answer's pieces, plus optional context such
/// as cell outlines) as a standalone SVG file, used by the examples and
/// the CLI to visualize answers and subfield maps. A layer points at its
/// polygons, which must outlive the WriteSvg call.
struct SvgLayer {
  const PolygonList* polygons = nullptr;
  const char* fill = "#4477aa";
  const char* stroke = "#223355";
  double fill_opacity = 0.6;
};

/// Returns false if the file cannot be written or the viewport is empty.
bool WriteSvg(const char* path, const Rect2& viewport,
              const std::vector<SvgLayer>& layers, int pixel_width = 800);

}  // namespace fielddb

#endif  // FIELDDB_FIELD_REGION_H_
