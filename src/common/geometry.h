#ifndef FIELDDB_COMMON_GEOMETRY_H_
#define FIELDDB_COMMON_GEOMETRY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace fielddb {

/// Tolerance for geometric predicates on normalized coordinates.
inline constexpr double kGeomEpsilon = 1e-12;

/// A point in the 2-D spatial domain of a field.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Point2& other) const = default;
};

inline Point2 operator+(Point2 a, Point2 b) { return {a.x + b.x, a.y + b.y}; }
inline Point2 operator-(Point2 a, Point2 b) { return {a.x - b.x, a.y - b.y}; }
inline Point2 operator*(double s, Point2 p) { return {s * p.x, s * p.y}; }

/// Dot product of two 2-D vectors.
inline double Dot(Point2 a, Point2 b) { return a.x * b.x + a.y * b.y; }

/// Z-component of the cross product (signed parallelogram area).
inline double Cross(Point2 a, Point2 b) { return a.x * b.y - a.y * b.x; }

/// Euclidean distance between two points.
inline double Distance(Point2 a, Point2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// An axis-aligned rectangle; the 2-D MBR used throughout the spatial layer.
/// An "empty" rect has lo > hi on some axis (see Empty()).
struct Rect2 {
  Point2 lo;
  Point2 hi;

  /// A rect that contains nothing and acts as the identity for Extend.
  static Rect2 Empty() {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return Rect2{{inf, inf}, {-inf, -inf}};
  }

  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }

  bool Contains(Point2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  bool Intersects(const Rect2& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y &&
           o.lo.y <= hi.y;
  }

  /// Grows this rect to cover `p`.
  void Extend(Point2 p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Grows this rect to cover `o`.
  void Extend(const Rect2& o) {
    if (o.IsEmpty()) return;
    Extend(o.lo);
    Extend(o.hi);
  }

  Point2 Center() const {
    return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0};
  }

  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }

  bool operator==(const Rect2& other) const = default;
};

/// A triangle given by its three vertices (counter-clockwise preferred but
/// not required; predicates handle either orientation).
struct Triangle2 {
  std::array<Point2, 3> v;

  /// Signed area: positive when the vertices are counter-clockwise.
  double SignedArea() const {
    return 0.5 * Cross(v[1] - v[0], v[2] - v[0]);
  }

  double Area() const { return std::abs(SignedArea()); }

  Point2 Centroid() const {
    return {(v[0].x + v[1].x + v[2].x) / 3.0,
            (v[0].y + v[1].y + v[2].y) / 3.0};
  }

  Rect2 BoundingBox() const {
    Rect2 r = Rect2::Empty();
    for (const Point2& p : v) r.Extend(p);
    return r;
  }

  /// Barycentric coordinates of `p` with respect to this triangle.
  /// Returns {l0, l1, l2} with l0 + l1 + l2 == 1. Any coordinate may be
  /// negative when `p` lies outside. Degenerate triangles return NaNs.
  std::array<double, 3> Barycentric(Point2 p) const;

  /// True when `p` is inside the triangle or on its boundary
  /// (within kGeomEpsilon on barycentric coordinates).
  bool Contains(Point2 p) const;
};

/// A read-only view of one convex polygon's vertices (counter-clockwise)
/// stored elsewhere: a ConvexPolygon, or one piece of a PolygonList.
struct PolygonView {
  std::span<const Point2> vertices;

  bool IsEmpty() const { return vertices.size() < 3; }

  /// Area by the shoelace formula (vertices assumed CCW; returns the
  /// absolute value so CW input is also handled).
  double Area() const;

  Point2 Centroid() const;

  Rect2 BoundingBox() const;
};

/// A simple convex polygon that owns its vertices (counter-clockwise).
struct ConvexPolygon {
  std::vector<Point2> vertices;

  PolygonView View() const { return {vertices}; }
  bool IsEmpty() const { return View().IsEmpty(); }
  double Area() const { return View().Area(); }
  Point2 Centroid() const { return View().Centroid(); }
  Rect2 BoundingBox() const { return View().BoundingBox(); }
};

/// Convex polygons stored flat: every vertex in one arena, polygon after
/// polygon, plus each polygon's end offset into the arena (polygon i
/// spans [ends[i-1], ends[i]), with ends[-1] = 0). Adding a polygon
/// costs no allocation once both buffers are reserved, and amortized
/// O(log n) reallocations for n polygons otherwise. This is how the
/// estimation step stores the pieces of an answer region.
class PolygonList {
 public:
  /// Walks the polygons in order, yielding a PolygonView of each (what
  /// range-for needs; not a full standard iterator).
  class Iterator {
   public:
    PolygonView operator*() const {
      return {{base_ + begin_, *end_ - begin_}};
    }
    Iterator& operator++() {
      begin_ = *end_++;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return end_ == other.end_;
    }

   private:
    friend class PolygonList;
    Iterator(const Point2* base, const size_t* end)
        : base_(base), end_(end) {}

    const Point2* base_ = nullptr;
    const size_t* end_ = nullptr;
    size_t begin_ = 0;
  };

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  PolygonView operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {{vertices_.data() + begin, ends_[i] - begin}};
  }
  Iterator begin() const { return {vertices_.data(), ends_.data()}; }
  Iterator end() const {
    return {vertices_.data(), ends_.data() + ends_.size()};
  }

  /// The arena: every polygon's vertices back to back, in order.
  std::span<const Point2> vertices() const { return vertices_; }
  size_t num_vertices() const { return vertices_.size(); }

  /// Capacities of the offsets and of the arena.
  size_t capacity() const { return ends_.capacity(); }
  size_t vertex_capacity() const { return vertices_.capacity(); }

  /// Removes every polygon; keeps both buffers for reuse.
  void clear() {
    vertices_.clear();
    ends_.clear();
  }

  /// Reserves room for `polygons` polygons holding `vertices` vertices.
  void reserve(size_t polygons, size_t vertices) {
    ends_.reserve(polygons);
    vertices_.reserve(vertices);
  }

  /// Appends one polygon, its vertices copied into the arena. `polygon`
  /// must not view this list's own arena.
  void Add(std::span<const Point2> polygon) {
    vertices_.insert(vertices_.end(), polygon.begin(), polygon.end());
    ends_.push_back(vertices_.size());
  }

  /// Appends copies of `other`'s polygons, rebasing their offsets past
  /// this list's vertices. `other` must be a different list.
  void Append(const PolygonList& other);

  /// Appends `other`'s polygons and leaves `other` empty and reusable.
  /// An empty list takes each of `other`'s two buffers whole unless it
  /// already holds a larger one (a caller's reservation); otherwise the
  /// polygons are copied as by Append(const PolygonList&).
  void Append(PolygonList&& other);

 private:
  std::vector<Point2> vertices_;
  std::vector<size_t> ends_;
};

/// The half-plane `Dot(n, p) + c >= 0`; `n` need not be unit length.
struct HalfPlane {
  Point2 n;
  double c = 0.0;
};

/// One Sutherland–Hodgman pass: clips the `count` vertices at `in`
/// against the half-plane `Dot(n, p) + c >= 0` and writes the survivors
/// to `out`, returning their number — 0 when fewer than 3 survive.
/// Every input vertex emits itself and/or one edge crossing, so `out`
/// must hold 2 * count vertices: for convex input the exact answer has at
/// most count + 1, but rounding can make a near-degenerate piece cross
/// the line more than twice. `in` and `out` must not overlap. This is the
/// only clip implementation; every other clip routine calls it.
size_t ClipHalfPlane(const Point2* in, size_t count, Point2 n, double c,
                     Point2* out);

/// Clips a convex polygon against the half-plane `Dot(n, p) + c >= 0`.
/// The result is convex (possibly empty).
ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, Point2 n, double c);

/// Convenience: clips against `a*x + b*y + c >= 0`.
inline ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, double a,
                                   double b, double c) {
  return ClipHalfPlane(poly, Point2{a, b}, c);
}

/// The triangle's vertices in counter-clockwise order, starting at
/// v[0] (a zero-area triangle keeps its order).
inline std::array<Point2, 3> CcwVertices(const Triangle2& t) {
  if (t.SignedArea() >= 0) return t.v;
  return {t.v[0], t.v[2], t.v[1]};
}

/// Builds a polygon from a triangle, normalizing orientation to CCW.
ConvexPolygon PolygonFromTriangle(const Triangle2& t);

/// Clips a triangle (oriented as PolygonFromTriangle does) against the
/// half-planes in order, ping-ponging between two stack buffers sized by
/// the 2n bound of ClipHalfPlane (3 -> 6 -> 12 -> ... vertices), and
/// appends a surviving piece to `out` as one polygon. Returns false,
/// leaving `*out` untouched, when nothing survives. Bit-identical to
/// chaining the ConvexPolygon ClipHalfPlane over PolygonFromTriangle(t).
template <size_t K>
bool ClipTriangle(const Triangle2& t, const std::array<HalfPlane, K>& planes,
                  PolygonList* out) {
  static_assert(K >= 1 && K <= 4,
                "1 to 4 half-planes (at most 2 x 48 stack vertices)");
  const std::array<Point2, 3> v = CcwVertices(t);
  // A triangle with every vertex inside every half-plane survives whole:
  // each pass would emit its vertices unchanged and find no crossing.
  bool inside = true;
  for (const HalfPlane& h : planes) {
    for (const Point2& p : v) inside &= Dot(h.n, p) + h.c >= 0;
  }
  if (inside) {
    out->Add(v);
    return true;
  }
  constexpr size_t kCapacity = size_t{3} << K;
  Point2 buf[2][kCapacity];
  std::copy(v.begin(), v.end(), buf[0]);
  size_t count = v.size();
  size_t cur = 0;
  for (const HalfPlane& h : planes) {
    count = ClipHalfPlane(buf[cur], count, h.n, h.c, buf[cur ^ 1]);
    if (count == 0) return false;
    cur ^= 1;
  }
  out->Add({buf[cur], count});
  return true;
}

/// Builds a polygon from an axis-aligned rectangle (CCW).
ConvexPolygon PolygonFromRect(const Rect2& r);

}  // namespace fielddb

#endif  // FIELDDB_COMMON_GEOMETRY_H_
