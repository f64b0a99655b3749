#include "geo/bbox.h"

#include <algorithm>
#include <cassert>

namespace comx {

BBox::BBox()
    : min_(std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()) {}

BBox::BBox(Point min_corner, Point max_corner)
    : min_(min_corner), max_(max_corner) {
  assert(min_.x <= max_.x && min_.y <= max_.y);
}

bool BBox::empty() const { return min_.x > max_.x || min_.y > max_.y; }

void BBox::Extend(const Point& p) {
  min_.x = std::min(min_.x, p.x);
  min_.y = std::min(min_.y, p.y);
  max_.x = std::max(max_.x, p.x);
  max_.y = std::max(max_.y, p.y);
}

void BBox::Inflate(double margin) {
  if (empty()) return;
  min_.x -= margin;
  min_.y -= margin;
  max_.x += margin;
  max_.y += margin;
}

bool BBox::Contains(const Point& p) const {
  return p.x >= min_.x && p.x <= max_.x && p.y >= min_.y && p.y <= max_.y;
}

}  // namespace comx
