// Uniform-grid spatial index mapping int64 ids to points.
//
// A hashed grid over an unbounded plane with O(1) insert/remove and
// near-constant-time radius probes when the cell size is close to the
// query radius. Its users are the paths that index a fixed point set once
// and probe it many times:
//   - roadnet/RoadGraph snaps planar points to road nodes (snap_index_);
//   - core/SolveOffline builds the offline bipartite graph (worker-covers-
//     request edges).
// The simulator's candidate lookup does not use it: sim/WorkerPool keeps a
// per-platform dense grid of its own (see worker_pool.h), and its
// differential test keeps a GridIndex lookup as the referee.
//
// Cell buckets are stored SoA (parallel id / x / y arrays), so a radius
// probe scores a whole bucket with one batched kernel call
// (kernels::FilterInRange — AVX2 or scalar behind runtime dispatch) instead
// of a per-point map lookup. Survivor order is ascending bucket position in
// every backend, keeping probe results bit-identical to the historical
// scalar loop.

#ifndef COMX_GEO_GRID_INDEX_H_
#define COMX_GEO_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/point.h"
#include "kernels/geo_kernels.h"
#include "obs/metrics_registry.h"
#include "util/status.h"

namespace comx {

namespace internal {
/// Books one grid radius probe and its hit count into the metrics registry
/// (comx_geo_grid_queries_total / comx_geo_grid_hits_total). Out-of-line so
/// the header does not pin the counter lookups; callers skip the call
/// entirely while collection is disabled.
void RecordGridProbe(size_t hits);
}  // namespace internal

/// Spatial hash grid over an unbounded plane (cells are hashed, so points
/// outside any pre-declared area are fine).
class GridIndex {
 public:
  /// Creates an index with the given cell edge length in km (must be > 0).
  explicit GridIndex(double cell_size_km = 1.0);

  /// Inserts id at the given location. Errors with AlreadyExists if the id
  /// is present.
  Status Insert(int64_t id, const Point& location);

  /// Removes an id. Errors with NotFound when absent and Internal when the
  /// index detects bucket corruption (checked in every build, not
  /// assert-only — a corrupt spatial index must never fail silently).
  Status Remove(int64_t id);

  /// True when the id is currently indexed.
  bool Contains(int64_t id) const;

  /// All ids whose point lies within `radius` of `center` (inclusive).
  /// Order is unspecified. The result vector is reserved up front from the
  /// candidate cells' population counts (dense cells used to realloc
  /// several times per probe).
  std::vector<int64_t> QueryRadius(const Point& center, double radius) const;

  /// Like QueryRadius but invokes `fn(id, distance_km_squared)` per hit;
  /// returns the number of hits. Avoids allocation on hot paths.
  template <typename Fn>
  size_t ForEachInRadius(const Point& center, double radius, Fn&& fn) const;

  /// Number of indexed points.
  size_t size() const { return locations_.size(); }

  /// True when empty.
  bool empty() const { return locations_.empty(); }

  /// Cell edge length in km.
  double cell_size() const { return cell_size_; }

  /// Removes everything.
  void Clear();

 private:
  using CellKey = uint64_t;

  /// One bucket, SoA: ids[i] sits at (xs[i], ys[i]). The parallel
  /// coordinate arrays are the per-cell snapshot the batched kernels scan.
  struct Cell {
    std::vector<int64_t> ids;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  /// Inclusive cell-coordinate span covered by a probe's bounding square.
  struct CellSpan {
    int32_t cx_lo, cx_hi, cy_lo, cy_hi;
  };
  CellSpan SpanFor(const Point& lo, const Point& hi) const;

  CellKey KeyFor(const Point& p) const;
  static CellKey PackCell(int32_t cx, int32_t cy);

  int32_t CellCoordX(double x) const;
  int32_t CellCoordY(double y) const;

  /// Batched scan of one bucket: kernel-filters positions against r2 in
  /// fixed-size chunks (stack scratch — queries stay allocation-free and
  /// shareable across sweep threads), invoking fn(id, d2) per survivor in
  /// ascending bucket order.
  template <typename Fn>
  static size_t ScanCell(const Cell& cell, const Point& center, double r2,
                         Fn&& fn);

  double cell_size_;
  std::unordered_map<CellKey, Cell> cells_;
  std::unordered_map<int64_t, Point> locations_;
};

template <typename Fn>
size_t GridIndex::ScanCell(const Cell& cell, const Point& center, double r2,
                           Fn&& fn) {
  constexpr size_t kChunk = 256;
  int32_t idx[kChunk];
  double d2[kChunk];
  size_t hits = 0;
  const size_t total = cell.ids.size();
  for (size_t base = 0; base < total; base += kChunk) {
    const size_t n = std::min(kChunk, total - base);
    const size_t m = kernels::FilterInRange(
        cell.xs.data() + base, cell.ys.data() + base, /*radius2=*/nullptr, n,
        center.x, center.y, r2, idx, d2);
    for (size_t j = 0; j < m; ++j) {
      fn(cell.ids[base + static_cast<size_t>(idx[j])], d2[j]);
    }
    hits += m;
  }
  return hits;
}

template <typename Fn>
size_t GridIndex::ForEachInRadius(const Point& center, double radius,
                                  Fn&& fn) const {
  if (radius < 0) {
    if (obs::CollectionEnabled()) [[unlikely]] internal::RecordGridProbe(0);
    return 0;
  }
  size_t hits = 0;
  const CellSpan span = SpanFor(Point(center.x - radius, center.y - radius),
                                Point(center.x + radius, center.y + radius));
  const double r2 = radius * radius;
  for (int32_t cx = span.cx_lo; cx <= span.cx_hi; ++cx) {
    for (int32_t cy = span.cy_lo; cy <= span.cy_hi; ++cy) {
      const auto it = cells_.find(PackCell(cx, cy));
      if (it == cells_.end()) continue;
      hits += ScanCell(it->second, center, r2, fn);
    }
  }
  if (obs::CollectionEnabled()) [[unlikely]] internal::RecordGridProbe(hits);
  return hits;
}

}  // namespace comx

#endif  // COMX_GEO_GRID_INDEX_H_
