// Shared pool of currently-available workers across all platforms — the
// union of every platform's waiting list. A worker matched by any platform
// is removed everywhere at once (the paper: "an outer crowd worker being
// assigned to any request would be deleted from all its waiting lists over
// all platforms"). Workers that recycle re-enter at their drop-off point.
//
// Candidate lookup runs on a dense uniform grid split by platform: one
// flat cell array per platform, buckets_[platform][cy][cx]. COM's
// inner-first rule asks "which of *my* idle workers cover r" and "which of
// my *partners'* idle workers do", so a probe scans only the requested
// side's platform layers. Geometry, fixed at construction:
//   - cell edge = the instance's largest worker radius, so a probe is the
//     3×3 cells of each scanned layer;
//   - the box is the bounding box of the request locations (drop-offs are
//     request locations, so re-arrivals land inside it); when it would
//     exceed |W| + |R| cells per layer the edge doubles until it fits;
//   - points outside the box clamp into the edge cells. clamp∘floor is
//     monotone, so every point within the probe radius of a centre still
//     falls inside the clamped query span — no second code path.
// Each bucket is SoA (id / x / y / radius²), scored by one fused
// kernels::FilterInRange pass (range and per-worker radius together, the
// same d2 expression the historical GridIndex scan used). Dense
// bucket_of_ / slot_of_ vectors make arrival a push and occupation a
// swap-and-pop, with no hash lookup. Survivors of the time (and, off the
// Euclidean metric, the WithinRange) check are marked in an id bitmap and
// read back in ascending id order, so a lookup returns exactly what the
// old GridIndex scan + filter + std::sort returned, without the sort.
//
// Per-worker state also lives in a kernels::WorkerSoA mirror (coordinate /
// radius² / platform / availability arrays indexed by id) for the time
// check, the batched distance path and engine checkpoints.

#ifndef COMX_SIM_WORKER_POOL_H_
#define COMX_SIM_WORKER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/distance_metric.h"
#include "kernels/worker_soa.h"
#include "model/instance.h"
#include "model/request.h"
#include "util/status.h"

namespace comx {

/// Dynamic availability state of every worker in an Instance.
class WorkerPool {
 public:
  /// Starts with every worker unavailable (they arrive via events).
  /// `metric` realizes the range constraint (nullptr = Euclidean); the
  /// grid always pre-filters with the sound Euclidean lower bound.
  explicit WorkerPool(const Instance& instance,
                      const DistanceMetric* metric = nullptr);

  /// Makes worker `w` available at `location` from time `t` on. Errors with
  /// OutOfRange when `w` is not a worker of the instance and AlreadyExists
  /// when the worker is already available.
  Status OnArrival(WorkerId w, const Point& location, Timestamp t);

  /// Marks worker `w` occupied (removed from every waiting list). Errors
  /// with OutOfRange when `w` is not a worker of the instance and NotFound
  /// when the worker is not available — a double assignment therefore
  /// surfaces as NotFound, never as silent corruption.
  Status MarkOccupied(WorkerId w);

  /// True when the worker currently sits in the waiting lists. Out-of-range
  /// ids are simply not available.
  bool IsAvailable(WorkerId w) const {
    return InRange(w) && soa_.available()[static_cast<size_t>(w)] != 0;
  }

  /// Current location (drop-off point after recycling). Valid whenever the
  /// worker has arrived at least once.
  Point CurrentLocation(WorkerId w) const {
    return Point(soa_.x()[static_cast<size_t>(w)],
                 soa_.y()[static_cast<size_t>(w)]);
  }

  /// Time the worker last became available.
  Timestamp AvailableSince(WorkerId w) const {
    return soa_.available_since()[static_cast<size_t>(w)];
  }

  /// Available workers that can serve `r` under the time + range
  /// constraints, restricted to the given platform side: `inner` selects
  /// workers of `platform`, otherwise workers of every other platform.
  /// Ascending id order. Uses per-pool scratch: concurrent lookups on one
  /// pool are not allowed (the pool is single-threaded like its engine).
  std::vector<WorkerId> FeasibleWorkers(const Request& r, PlatformId platform,
                                        bool inner) const;

  /// Travel distances from each worker in `ids` to `target`, in order.
  /// Under the Euclidean metric the coordinates are gathered from the SoA
  /// mirror and scored by the batched squared-distance kernel (sqrt applied
  /// per element afterwards, so each value is bit-identical to
  /// EuclideanDistance); other metrics fall back to a per-worker loop.
  void BatchDistances(const std::vector<WorkerId>& ids, const Point& target,
                      std::vector<double>* out) const;

  /// Number of currently available workers.
  size_t available_count() const { return available_; }

  /// The metric realizing the range constraint.
  const DistanceMetric& metric() const { return *metric_; }

  /// The SoA mirror (read-only; batch staging for kernels).
  const kernels::WorkerSoA& soa() const { return soa_; }

 private:
  /// One grid cell of one platform layer, SoA: ids[i] sits at
  /// (xs[i], ys[i]) with squared service radius r2[i].
  struct Bucket {
    std::vector<WorkerId> ids;
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> r2;
  };

  bool InRange(WorkerId w) const {
    return w >= 0 && static_cast<size_t>(w) < soa_.size();
  }

  /// Clamped cell coordinate of a position along one axis.
  static int32_t CellCoord(double v, double origin, double edge, int32_t n);

  /// Flat index of the bucket holding `p` in platform layer `layer`.
  size_t BucketFor(size_t layer, const Point& p) const;

  /// Marks every worker of `layer` that passes the range, time and metric
  /// checks for `r` in marks_, adding their number to `*marked`. Returns
  /// the number of workers the fused range + radius filter kept.
  size_t ScanLayer(size_t layer, const Request& r, size_t* marked) const;

  const Instance* instance_;
  const DistanceMetric* metric_;
  kernels::WorkerSoA soa_;
  double max_radius_ = 0.0;
  bool euclidean_ = false;

  // Grid geometry: cell (cx, cy) spans
  // [origin + c * edge, origin + (c + 1) * edge) on each axis.
  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double edge_ = 1.0;
  int32_t nx_ = 1;
  int32_t ny_ = 1;

  /// Platform id of each layer: the distinct worker platforms, ascending.
  std::vector<PlatformId> layer_platform_;
  /// Layer of each worker, by id.
  std::vector<uint32_t> layer_of_;
  /// buckets_[(layer * ny_ + cy) * nx_ + cx].
  std::vector<Bucket> buckets_;
  /// Bucket and slot of each available worker, by id.
  std::vector<size_t> bucket_of_;
  std::vector<size_t> slot_of_;
  size_t available_ = 0;

  /// Lookup scratch, all-zero between calls: bit w % 64 of marks_[w / 64]
  /// flags a candidate, bit k % 64 of mark_summary_[k / 64] a non-zero
  /// marks_[k]. Makes a lookup's result come out in id order without a
  /// sort; it is also why concurrent lookups on one pool are not allowed.
  mutable std::vector<uint64_t> marks_;
  mutable std::vector<uint64_t> mark_summary_;
};

}  // namespace comx

#endif  // COMX_SIM_WORKER_POOL_H_
