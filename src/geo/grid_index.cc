#include "geo/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace comx {

namespace internal {

void RecordGridProbe(size_t hits) {
  static obs::Counter* const queries =
      obs::MetricsRegistry::Global().GetCounter(
          "comx_geo_grid_queries_total",
          "Radius probes answered by the grid index");
  static obs::Counter* const hit_count =
      obs::MetricsRegistry::Global().GetCounter(
          "comx_geo_grid_hits_total",
          "Points returned by grid-index radius probes");
  queries->Inc();
  hit_count->Inc(static_cast<int64_t>(hits));
}

}  // namespace internal

GridIndex::GridIndex(double cell_size_km) : cell_size_(cell_size_km) {
  assert(cell_size_km > 0.0);
}

int32_t GridIndex::CellCoordX(double x) const {
  return static_cast<int32_t>(std::floor(x / cell_size_));
}

int32_t GridIndex::CellCoordY(double y) const {
  return static_cast<int32_t>(std::floor(y / cell_size_));
}

GridIndex::CellKey GridIndex::PackCell(int32_t cx, int32_t cy) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(cy));
}

GridIndex::CellKey GridIndex::KeyFor(const Point& p) const {
  return PackCell(CellCoordX(p.x), CellCoordY(p.y));
}

GridIndex::CellSpan GridIndex::SpanFor(const Point& lo, const Point& hi) const {
  return CellSpan{CellCoordX(lo.x), CellCoordX(hi.x), CellCoordY(lo.y),
                  CellCoordY(hi.y)};
}

Status GridIndex::Insert(int64_t id, const Point& location) {
  auto [it, inserted] = locations_.try_emplace(id, location);
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("grid index already holds id %lld",
                  static_cast<long long>(id)));
  }
  Cell& cell = cells_[KeyFor(location)];
  cell.ids.push_back(id);
  cell.xs.push_back(location.x);
  cell.ys.push_back(location.y);
  return Status::OK();
}

Status GridIndex::Remove(int64_t id) {
  const auto it = locations_.find(id);
  if (it == locations_.end()) {
    return Status::NotFound(
        StrFormat("grid index has no id %lld", static_cast<long long>(id)));
  }
  // The two lookups below are internal-consistency checks: a located id
  // must sit in exactly the bucket its point hashes to. They used to be
  // assert-only, so an NDEBUG build would dereference end() / pop from the
  // wrong bucket and silently corrupt the index — fail loudly instead.
  const CellKey key = KeyFor(it->second);
  auto cell_it = cells_.find(key);
  if (cell_it == cells_.end()) {
    return Status::Internal(
        StrFormat("grid index corrupt: id %lld located but its cell is "
                  "missing",
                  static_cast<long long>(id)));
  }
  Cell& cell = cell_it->second;
  const auto pos = std::find(cell.ids.begin(), cell.ids.end(), id);
  if (pos == cell.ids.end()) {
    return Status::Internal(
        StrFormat("grid index corrupt: id %lld located but absent from its "
                  "bucket",
                  static_cast<long long>(id)));
  }
  // Swap-and-pop on all three parallel arrays: bucket order is unspecified.
  const size_t i = static_cast<size_t>(pos - cell.ids.begin());
  cell.ids[i] = cell.ids.back();
  cell.xs[i] = cell.xs.back();
  cell.ys[i] = cell.ys.back();
  cell.ids.pop_back();
  cell.xs.pop_back();
  cell.ys.pop_back();
  if (cell.ids.empty()) cells_.erase(cell_it);
  locations_.erase(it);
  return Status::OK();
}

bool GridIndex::Contains(int64_t id) const { return locations_.count(id) > 0; }

std::vector<int64_t> GridIndex::QueryRadius(const Point& center,
                                            double radius) const {
  std::vector<int64_t> out;
  if (radius < 0) {
    if (obs::CollectionEnabled()) [[unlikely]] internal::RecordGridProbe(0);
    return out;
  }
  const CellSpan span = SpanFor(Point(center.x - radius, center.y - radius),
                                Point(center.x + radius, center.y + radius));
  size_t candidates = 0;
  for (int32_t cx = span.cx_lo; cx <= span.cx_hi; ++cx) {
    for (int32_t cy = span.cy_lo; cy <= span.cy_hi; ++cy) {
      const auto it = cells_.find(PackCell(cx, cy));
      if (it != cells_.end()) candidates += it->second.ids.size();
    }
  }
  out.reserve(candidates);
  const double r2 = radius * radius;
  size_t hits = 0;
  for (int32_t cx = span.cx_lo; cx <= span.cx_hi; ++cx) {
    for (int32_t cy = span.cy_lo; cy <= span.cy_hi; ++cy) {
      const auto it = cells_.find(PackCell(cx, cy));
      if (it == cells_.end()) continue;
      hits += ScanCell(it->second, center, r2,
                       [&out](int64_t id, double /*d2*/) { out.push_back(id); });
    }
  }
  if (obs::CollectionEnabled()) [[unlikely]] internal::RecordGridProbe(hits);
  return out;
}

void GridIndex::Clear() {
  cells_.clear();
  locations_.clear();
}

}  // namespace comx
