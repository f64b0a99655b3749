#include "geo/distance.h"

#include <cmath>

namespace comx {

double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

double EuclideanDistance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

bool WithinRadius(const Point& a, const Point& b, double radius_km) {
  return SquaredDistance(a, b) <= radius_km * radius_km;
}

}  // namespace comx
