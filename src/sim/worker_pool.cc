#include "sim/worker_pool.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "geo/grid_index.h"
#include "kernels/geo_kernels.h"
#include "obs/metrics_registry.h"
#include "util/string_util.h"

namespace comx {

WorkerPool::WorkerPool(const Instance& instance, const DistanceMetric* metric)
    : instance_(&instance),
      metric_(metric != nullptr ? metric : &DefaultMetric()),
      euclidean_(false) {
  const size_t n = instance.workers().size();
  soa_.Reset(n);
  for (const Worker& w : instance.workers()) {
    max_radius_ = std::max(max_radius_, w.radius);
    const size_t i = static_cast<size_t>(w.id);
    soa_.SetStatic(i, w.radius);
    soa_.SetPosition(i, w.location.x, w.location.y);
    // A handful of platforms: a linear scan beats sorting |W| ids.
    if (std::find(layer_platform_.begin(), layer_platform_.end(),
                  w.platform) == layer_platform_.end()) {
      layer_platform_.push_back(w.platform);
    }
  }
  euclidean_ = metric_->name() == "euclidean";

  std::sort(layer_platform_.begin(), layer_platform_.end());
  layer_of_.resize(n);
  for (const Worker& w : instance.workers()) {
    layer_of_[static_cast<size_t>(w.id)] = static_cast<uint32_t>(
        std::lower_bound(layer_platform_.begin(), layer_platform_.end(),
                         w.platform) -
        layer_platform_.begin());
  }

  // Box over the (finite) request locations. Without one every point
  // clamps into a single cell, which is still exact.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_x = kInf, min_y = kInf, max_x = -kInf, max_y = -kInf;
  for (const Request& r : instance.requests()) {
    const double x = r.location.x;
    const double y = r.location.y;
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  }
  edge_ = std::isfinite(max_radius_) && max_radius_ > 0.0 ? max_radius_ : 1.0;
  const double width = max_x - min_x;
  const double height = max_y - min_y;
  if (std::isfinite(width) && std::isfinite(height)) {
    origin_x_ = min_x;
    origin_y_ = min_y;
    const double limit =
        static_cast<double>(std::max<size_t>(1, n + instance.requests().size()));
    auto cells_along = [this](double extent) {
      return std::floor(extent / edge_) + 1.0;
    };
    while (cells_along(width) * cells_along(height) > limit) edge_ *= 2.0;
    nx_ = static_cast<int32_t>(cells_along(width));
    ny_ = static_cast<int32_t>(cells_along(height));
  }
  buckets_.resize(layer_platform_.size() * static_cast<size_t>(nx_) *
                  static_cast<size_t>(ny_));
  bucket_of_.resize(n);
  slot_of_.resize(n);
  marks_.resize((n + 63) / 64);
  mark_summary_.resize((marks_.size() + 63) / 64);
}

int32_t WorkerPool::CellCoord(double v, double origin, double edge,
                              int32_t n) {
  const double c = std::floor((v - origin) / edge);
  // Written so NaN lands in cell 0 instead of an undefined int cast.
  if (!(c > 0.0)) return 0;
  if (c >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int32_t>(c);
}

size_t WorkerPool::BucketFor(size_t layer, const Point& p) const {
  const size_t cx = static_cast<size_t>(CellCoord(p.x, origin_x_, edge_, nx_));
  const size_t cy = static_cast<size_t>(CellCoord(p.y, origin_y_, edge_, ny_));
  return (layer * static_cast<size_t>(ny_) + cy) * static_cast<size_t>(nx_) +
         cx;
}

Status WorkerPool::OnArrival(WorkerId w, const Point& location, Timestamp t) {
  if (!InRange(w)) {
    return Status::OutOfRange(
        StrFormat("worker id %lld outside [0, %zu)",
                  static_cast<long long>(w), soa_.size()));
  }
  const size_t i = static_cast<size_t>(w);
  if (soa_.available()[i] != 0) {
    return Status::AlreadyExists("worker already in waiting list");
  }
  const size_t b = BucketFor(layer_of_[i], location);
  Bucket& bucket = buckets_[b];
  bucket_of_[i] = b;
  slot_of_[i] = bucket.ids.size();
  bucket.ids.push_back(w);
  bucket.xs.push_back(location.x);
  bucket.ys.push_back(location.y);
  bucket.r2.push_back(soa_.radius2()[i]);
  soa_.OnArrival(i, location.x, location.y, t);
  ++available_;
  return Status::OK();
}

Status WorkerPool::MarkOccupied(WorkerId w) {
  if (!InRange(w)) {
    return Status::OutOfRange(
        StrFormat("worker id %lld outside [0, %zu)",
                  static_cast<long long>(w), soa_.size()));
  }
  const size_t i = static_cast<size_t>(w);
  if (soa_.available()[i] == 0) {
    return Status::NotFound("worker not in waiting list");
  }
  // Swap-and-pop on all four parallel arrays; the worker moved into the
  // freed slot gets its slot_of_ entry rewritten.
  Bucket& bucket = buckets_[bucket_of_[i]];
  const size_t slot = slot_of_[i];
  const WorkerId moved = bucket.ids.back();
  bucket.ids[slot] = moved;
  bucket.xs[slot] = bucket.xs.back();
  bucket.ys[slot] = bucket.ys.back();
  bucket.r2[slot] = bucket.r2.back();
  bucket.ids.pop_back();
  bucket.xs.pop_back();
  bucket.ys.pop_back();
  bucket.r2.pop_back();
  slot_of_[static_cast<size_t>(moved)] = slot;
  soa_.OnOccupied(i);
  --available_;
  return Status::OK();
}

size_t WorkerPool::ScanLayer(size_t layer, const Request& r,
                             size_t* marked) const {
  const double radius = max_radius_;
  const int32_t cx_lo = CellCoord(r.location.x - radius, origin_x_, edge_, nx_);
  const int32_t cx_hi = CellCoord(r.location.x + radius, origin_x_, edge_, nx_);
  const int32_t cy_lo = CellCoord(r.location.y - radius, origin_y_, edge_, ny_);
  const int32_t cy_hi = CellCoord(r.location.y + radius, origin_y_, edge_, ny_);
  const double range2 = radius * radius;
  const double* since = soa_.available_since();
  constexpr size_t kChunk = 256;
  int32_t idx[kChunk];
  double d2[kChunk];
  size_t hits = 0;
  for (int32_t cy = cy_lo; cy <= cy_hi; ++cy) {
    const size_t row = (layer * static_cast<size_t>(ny_) +
                        static_cast<size_t>(cy)) *
                       static_cast<size_t>(nx_);
    for (int32_t cx = cx_lo; cx <= cx_hi; ++cx) {
      const Bucket& bucket = buckets_[row + static_cast<size_t>(cx)];
      const size_t total = bucket.ids.size();
      for (size_t base = 0; base < total; base += kChunk) {
        const size_t n = std::min(kChunk, total - base);
        // Fused range + per-worker radius filter: the cached radius² compare
        // *is* the Euclidean WithinRange test (same d2, same radius*radius
        // product), so under the Euclidean metric no further range check is
        // needed; other metrics still confirm against true travel distance.
        const size_t m = kernels::FilterInRange(
            bucket.xs.data() + base, bucket.ys.data() + base,
            bucket.r2.data() + base, n, r.location.x, r.location.y, range2,
            idx, d2);
        hits += m;
        for (size_t j = 0; j < m; ++j) {
          const size_t i = static_cast<size_t>(
              bucket.ids[base + static_cast<size_t>(idx[j])]);
          // Time constraint against the *current* availability episode,
          // applied without a branch: a failing worker marks nothing.
          bool keep = since[i] <= r.time;
          if (!euclidean_) {
            keep = keep && metric_->WithinRange(
                               CurrentLocation(static_cast<WorkerId>(i)),
                               r.location, instance_->worker(i).radius);
          }
          const uint64_t bit = static_cast<uint64_t>(keep);
          marks_[i / 64] |= bit << (i % 64);
          mark_summary_[i / 4096] |= bit << (i / 64 % 64);
          *marked += bit;
        }
      }
    }
  }
  return hits;
}

std::vector<WorkerId> WorkerPool::FeasibleWorkers(const Request& r,
                                                  PlatformId platform,
                                                  bool inner) const {
  size_t marked = 0;
  size_t hits = 0;
  for (size_t layer = 0; layer < layer_platform_.size(); ++layer) {
    if ((layer_platform_[layer] == platform) == inner) {
      hits += ScanLayer(layer, r, &marked);
    }
  }
  if (obs::CollectionEnabled()) [[unlikely]] internal::RecordGridProbe(hits);
  // Buckets are unordered (swap-and-pop) and matchers expect id order: read
  // the marked ids back in ascending order, clearing the marks as we go.
  // The summary word skips the all-zero mark words, so the walk costs
  // O(marked + |W| / 4096) instead of a comparison sort's mispredicted
  // branches.
  std::vector<WorkerId> out(marked);
  size_t k = 0;
  for (size_t s = 0; k < marked && s < mark_summary_.size(); ++s) {
    uint64_t summary = mark_summary_[s];
    mark_summary_[s] = 0;
    while (summary != 0) {
      const size_t word =
          s * 64 + static_cast<size_t>(std::countr_zero(summary));
      summary &= summary - 1;
      uint64_t bits = marks_[word];
      marks_[word] = 0;
      while (bits != 0) {
        out[k++] = static_cast<WorkerId>(
            word * 64 + static_cast<size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }
  return out;
}

void WorkerPool::BatchDistances(const std::vector<WorkerId>& ids,
                                const Point& target,
                                std::vector<double>* out) const {
  const size_t n = ids.size();
  out->resize(n);
  if (!euclidean_) {
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = metric_->Distance(CurrentLocation(ids[i]), target);
    }
    return;
  }
  constexpr size_t kChunk = 256;
  double xs[kChunk];
  double ys[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    soa_.GatherXY(ids.data() + base, m, xs, ys);
    kernels::BatchSquaredDistance(xs, ys, m, target.x, target.y,
                                  out->data() + base);
    for (size_t j = 0; j < m; ++j) {
      (*out)[base + j] = std::sqrt((*out)[base + j]);
    }
  }
}

}  // namespace comx
