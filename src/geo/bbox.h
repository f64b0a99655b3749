// Axis-aligned bounding box used by the grid index and the city models.

#ifndef COMX_GEO_BBOX_H_
#define COMX_GEO_BBOX_H_

#include <limits>

#include "geo/point.h"

namespace comx {

/// Axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
///
/// A default-constructed box is empty (inverted bounds); Extend() grows it
/// to cover points.
class BBox {
 public:
  /// Empty (inverted) box.
  BBox();

  /// Box with explicit corners. Requires min <= max on both axes.
  BBox(Point min_corner, Point max_corner);

  /// True when no point was ever added and no corners set.
  bool empty() const;

  /// Grows the box to include `p`.
  void Extend(const Point& p);

  /// Grows the box by `margin` km on all sides. No-op on an empty box.
  void Inflate(double margin);

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;

  Point min_corner() const { return min_; }
  Point max_corner() const { return max_; }
  double width() const { return max_.x - min_.x; }
  double height() const { return max_.y - min_.y; }

 private:
  Point min_;
  Point max_;
};

}  // namespace comx

#endif  // COMX_GEO_BBOX_H_
