#include "field/region.h"

#include <cstdio>

namespace fielddb {

double Region::TotalArea() const {
  double area = 0.0;
  for (const PolygonView piece : pieces) area += piece.Area();
  return area;
}

Rect2 Region::BoundingBox() const {
  Rect2 r = Rect2::Empty();
  // The union of the pieces' boxes is the box of the whole arena.
  for (const Point2& p : pieces.vertices()) r.Extend(p);
  return r;
}

bool WriteSvg(const char* path, const Rect2& viewport,
              const std::vector<SvgLayer>& layers, int pixel_width) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const double w = viewport.Width();
  const double h = viewport.Height();
  if (w <= 0 || h <= 0) {
    std::fclose(f);
    return false;
  }
  const double scale = pixel_width / w;
  const int pixel_height = static_cast<int>(h * scale + 0.5);
  std::fprintf(f,
               "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
               "height=\"%d\" viewBox=\"0 0 %d %d\">\n",
               pixel_width, pixel_height, pixel_width, pixel_height);
  for (const SvgLayer& layer : layers) {
    if (layer.polygons == nullptr) continue;
    for (const PolygonView poly : *layer.polygons) {
      if (poly.vertices.empty()) continue;
      std::fprintf(f, "<polygon points=\"");
      for (const Point2& p : poly.vertices) {
        // Flip y: SVG's origin is top-left.
        std::fprintf(f, "%.2f,%.2f ", (p.x - viewport.lo.x) * scale,
                     (viewport.hi.y - p.y) * scale);
      }
      std::fprintf(f,
                   "\" fill=\"%s\" fill-opacity=\"%.2f\" stroke=\"%s\" "
                   "stroke-width=\"0.5\"/>\n",
                   layer.fill, layer.fill_opacity, layer.stroke);
    }
  }
  std::fprintf(f, "</svg>\n");
  std::fclose(f);
  return true;
}

}  // namespace fielddb
