// Differential test of WorkerPool's per-platform dense-grid candidate lookup
// against a referee that keeps the historical lookup: one mixed-platform
// GridIndex with 1 km hashed cells, a platform / time / radius filter per
// probe hit, then std::sort. Every lookup is compared with ==, so the two
// must agree on the set *and* the order of the returned ids.

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/scenario_gen.h"
#include "geo/grid_index.h"
#include "roadnet/road_generator.h"
#include "roadnet/road_metric.h"
#include "sim/sim_engine.h"
#include "sim/worker_pool.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;

/// The historical WorkerPool lookup, kept as the referee.
class RefereePool {
 public:
  RefereePool(const Instance& instance, const DistanceMetric* metric)
      : instance_(&instance),
        metric_(metric != nullptr ? metric : &DefaultMetric()),
        index_(/*cell_size_km=*/1.0),
        x_(instance.workers().size()),
        y_(instance.workers().size()),
        since_(instance.workers().size()) {
    for (const Worker& w : instance.workers()) {
      max_radius_ = std::max(max_radius_, w.radius);
    }
  }

  void OnArrival(WorkerId w, const Point& p, Timestamp t) {
    ASSERT_TRUE(index_.Insert(w, p).ok());
    x_[static_cast<size_t>(w)] = p.x;
    y_[static_cast<size_t>(w)] = p.y;
    since_[static_cast<size_t>(w)] = t;
  }

  void MarkOccupied(WorkerId w) { ASSERT_TRUE(index_.Remove(w).ok()); }

  size_t size() const { return index_.size(); }

  std::vector<WorkerId> FeasibleWorkers(const Request& r, PlatformId platform,
                                        bool inner) const {
    std::vector<WorkerId> out;
    index_.ForEachInRadius(
        r.location, max_radius_, [&](int64_t id, double d2) {
          const Worker& w = instance_->worker(id);
          if (inner != (w.platform == platform)) return;
          if (since_[static_cast<size_t>(id)] > r.time) return;
          if (d2 > w.radius * w.radius) return;
          const Point at(x_[static_cast<size_t>(id)],
                         y_[static_cast<size_t>(id)]);
          if (metric_->name() != "euclidean" &&
              !metric_->WithinRange(at, r.location, w.radius)) {
            return;
          }
          out.push_back(id);
        });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const Instance* instance_;
  const DistanceMetric* metric_;
  GridIndex index_;
  std::vector<double> x_, y_, since_;
  double max_radius_ = 0.0;
};

/// A WorkerPool and its referee fed the same arrival / occupation stream.
class Mirror {
 public:
  explicit Mirror(const Instance& instance,
                  const DistanceMetric* metric = nullptr)
      : instance_(&instance), pool_(instance, metric), ref_(instance, metric) {}

  void Arrive(WorkerId w, const Point& p, Timestamp t) {
    ASSERT_TRUE(pool_.OnArrival(w, p, t).ok());
    ref_.OnArrival(w, p, t);
    ASSERT_EQ(pool_.available_count(), ref_.size());
  }

  void Occupy(WorkerId w) {
    ASSERT_TRUE(pool_.MarkOccupied(w).ok());
    ref_.MarkOccupied(w);
    ASSERT_EQ(pool_.available_count(), ref_.size());
  }

  /// Compares the inner and outer lookup of every platform (plus one id no
  /// worker carries) at `r`. Returns the number of ids the pool returned.
  size_t CheckAll(const Request& r) {
    size_t returned = 0;
    const PlatformId platforms = std::max<PlatformId>(
        instance_->PlatformCount(), r.platform + 1);
    for (PlatformId p = 0; p <= platforms; ++p) {
      for (const bool inner : {true, false}) {
        const std::vector<WorkerId> got = pool_.FeasibleWorkers(r, p, inner);
        EXPECT_EQ(got, ref_.FeasibleWorkers(r, p, inner))
            << "platform " << p << (inner ? " inner" : " outer") << " at ("
            << r.location.x << ", " << r.location.y << ") t=" << r.time;
        returned += got.size();
        ++lookups_;
      }
    }
    return returned;
  }

  const WorkerPool& pool() const { return pool_; }
  int64_t lookups() const { return lookups_; }

 private:
  const Instance* instance_;
  WorkerPool pool_;
  RefereePool ref_;
  int64_t lookups_ = 0;
};

/// Decorates a matcher: before each decision, checks every lookup of the
/// mirror and that the engine's own inner lookup agrees with the mirror.
class ProbingMatcher : public OnlineMatcher {
 public:
  ProbingMatcher(std::unique_ptr<OnlineMatcher> inner, Mirror* mirror)
      : inner_(std::move(inner)), mirror_(mirror) {}

  void Reset(const Instance& instance, PlatformId platform,
             uint64_t seed) override {
    platform_ = platform;
    inner_->Reset(instance, platform, seed);
  }

  Decision OnRequest(const Request& r, const PlatformView& view) override {
    returned_ += mirror_->CheckAll(r);
    EXPECT_EQ(view.FeasibleInnerWorkers(r),
              mirror_->pool().FeasibleWorkers(r, platform_, true));
    return inner_->OnRequest(r, view);
  }

  std::string name() const override { return inner_->name(); }

  size_t returned() const { return returned_; }

 private:
  std::unique_ptr<OnlineMatcher> inner_;
  Mirror* mirror_;
  PlatformId platform_ = -1;
  size_t returned_ = 0;
};

TEST(WorkerPoolLookupDifferentialTest, DrawnScenariosThroughTheEngine) {
  constexpr int kScenarios = 300;
  int64_t lookups = 0;
  size_t returned = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const check::Scenario scenario = check::DrawScenario(2020, i);
    auto built = check::BuildScenarioInstance(scenario);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Instance instance = std::move(built).value();
    for (const check::MatcherKind kind : check::kAllMatcherKinds) {
      Mirror mirror(instance);
      std::vector<std::unique_ptr<ProbingMatcher>> owned;
      std::vector<OnlineMatcher*> matchers;
      for (PlatformId p = 0; p < instance.PlatformCount(); ++p) {
        owned.push_back(std::make_unique<ProbingMatcher>(
            check::MakeMatcher(kind), &mirror));
        matchers.push_back(owned.back().get());
      }
      SimEngine engine;
      ASSERT_TRUE(engine
                      .Init(instance, matchers,
                            scenario.MakeSimConfig(/*trace=*/nullptr),
                            scenario.sim_seed)
                      .ok());
      StepRecord rec;
      while (!engine.Done()) {
        ASSERT_TRUE(engine.Step(&rec).ok()) << scenario.Describe();
        if (rec.kind == StepRecord::Kind::kArrival) {
          mirror.Arrive(rec.worker, Point(rec.x, rec.y), rec.time);
        } else if (rec.kind == StepRecord::Kind::kDecision &&
                   rec.worker != kInvalidId) {
          mirror.Occupy(rec.worker);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "scenario " << i << " " << check::MatcherKindName(kind)
                 << ": " << scenario.Describe();
        }
      }
      (void)engine.Finish();
      lookups += mirror.lookups();
      for (const auto& m : owned) returned += m->returned();
    }
  }
  // The sweep must actually exercise non-empty lookups.
  EXPECT_GT(lookups, 100000);
  EXPECT_GT(returned, 20000u);
}

/// Drives `mirror` with a seeded random stream of arrivals, occupations and
/// re-arrivals at `spots` (plus uniform points in `lo..hi`), checking every
/// lookup at every spot after each event.
void Churn(const Instance& ins, Mirror* mirror, const std::vector<Point>& spots,
           double lo, double hi, uint64_t seed, int events = 400) {
  Rng rng(seed);
  const size_t n = ins.workers().size();
  auto pick_point = [&]() {
    if (!spots.empty() && rng.Uniform(0, 1) < 0.6) {
      return spots[static_cast<size_t>(rng.Uniform(0, 1) * spots.size()) %
                   spots.size()];
    }
    return Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi));
  };
  for (int e = 0; e < events; ++e) {
    const WorkerId w =
        static_cast<WorkerId>(static_cast<size_t>(rng.Uniform(0, 1) * n) % n);
    const double t = rng.Uniform(0, 10);
    if (mirror->pool().IsAvailable(w)) {
      mirror->Occupy(w);
    } else {
      mirror->Arrive(w, e < static_cast<int>(n) ? ins.worker(w).location
                                                 : pick_point(),
                     t);
    }
    for (const Point& s : spots) {
      mirror->CheckAll(MakeRequest(0, rng.Uniform(0, 12), s.x, s.y, 1.0));
    }
    mirror->CheckAll(MakeRequest(0, 11.0, pick_point().x, pick_point().y, 1));
    if (::testing::Test::HasFailure()) {
      FAIL() << "event " << e;
    }
  }
}

Instance BuildEventsOf(Instance ins) {
  ins.BuildEvents();
  return ins;
}

TEST(WorkerPoolLookupDifferentialTest, PointsOnCellEdges) {
  // Requests span [0, 4]²; max radius 1 → cell edge 1 with origin (0, 0).
  // Workers and probes sit on integer (cell-edge) coordinates, exactly one
  // radius apart, and at half-cells.
  Instance ins;
  std::vector<Point> spots;
  for (int x = 0; x <= 4; ++x) {
    for (int y = 0; y <= 4; ++y) spots.emplace_back(x, y);
  }
  for (const Point& p : spots) ins.AddRequest(MakeRequest(0, 1, p.x, p.y, 1));
  for (int i = 0; i < 40; ++i) {
    ins.AddWorker(MakeWorker(i % 2, 0, (i % 9) * 0.5, (i / 9) * 1.0,
                             i % 3 == 0 ? 1.0 : 0.5));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  Churn(built, &mirror, spots, -1.0, 5.0, 11);
}

TEST(WorkerPoolLookupDifferentialTest, NegativeCoordinates) {
  Instance ins;
  std::vector<Point> spots = {{-3.0, -3.0}, {-0.5, -2.5}, {-1, -1}, {0, 0}};
  for (const Point& p : spots) ins.AddRequest(MakeRequest(1, 1, p.x, p.y, 1));
  for (int i = 0; i < 30; ++i) {
    ins.AddWorker(MakeWorker(i % 2, 0, -0.1 * i, -0.07 * i, 1.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  Churn(built, &mirror, spots, -4.0, 1.0, 12);
}

TEST(WorkerPoolLookupDifferentialTest, RequestAndWorkersOutsideTheBox) {
  // The box is [0, 4]² (4×4 one-km cells); the workers start and relocate
  // far outside it, on every side, and probes go there too.
  Instance ins;
  ins.AddRequest(MakeRequest(0, 1, 0.0, 0.0, 1));
  ins.AddRequest(MakeRequest(1, 1, 4.0, 4.0, 1));
  const std::vector<Point> spots = {{0, 0},   {25, 0},   {-25, 3},
                                    {7, -40}, {60, 60},  {-60, -61},
                                    {0.9, 0}, {-0.9, 0.4}};
  for (int i = 0; i < 24; ++i) {
    const Point& s = spots[static_cast<size_t>(i) % spots.size()];
    ins.AddWorker(MakeWorker(i % 2, 0, s.x + 0.1 * (i % 5), s.y, 1.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  Churn(built, &mirror, spots, -70.0, 70.0, 13);
}

TEST(WorkerPoolLookupDifferentialTest, UnreachableWorkerFarAway) {
  // A worker 10 000 km away must neither blow up the grid nor be returned.
  Instance ins;
  for (int i = 0; i < 20; ++i) {
    ins.AddRequest(MakeRequest(i % 2, 1, i * 0.3, 0, 1));
    ins.AddWorker(MakeWorker(i % 2, 0, i * 0.3, 0.2, 1.0));
  }
  ins.AddWorker(MakeWorker(0, 0, 10000.0, 10000.0, 1.0));
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  for (const Worker& w : built.workers()) mirror.Arrive(w.id, w.location, 0);
  for (const Request& r : built.requests()) mirror.CheckAll(r);
  mirror.CheckAll(MakeRequest(0, 1, 10000.0, 10000.5, 1));
  EXPECT_EQ(mirror.pool().FeasibleWorkers(
                MakeRequest(0, 1, 10000.0, 10000.5, 1), 0, true),
            (std::vector<WorkerId>{20}));
}

TEST(WorkerPoolLookupDifferentialTest, ZeroRadiusWorkers) {
  Instance ins;
  const std::vector<Point> spots = {{0, 0}, {1, 1}, {2.5, 0.5}};
  for (const Point& p : spots) ins.AddRequest(MakeRequest(0, 1, p.x, p.y, 1));
  for (int i = 0; i < 12; ++i) {
    const Point& s = spots[static_cast<size_t>(i) % spots.size()];
    ins.AddWorker(MakeWorker(i % 2, 0, s.x, s.y, 0.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  for (const Worker& w : built.workers()) mirror.Arrive(w.id, w.location, 0);
  // A zero-radius worker covers exactly its own location.
  EXPECT_EQ(mirror.pool().FeasibleWorkers(MakeRequest(0, 1, 0, 0, 1), 0, true),
            (std::vector<WorkerId>{0, 6}));
  Churn(built, &mirror, spots, -1.0, 3.0, 14);
}

TEST(WorkerPoolLookupDifferentialTest, ThreePlatforms) {
  Instance ins;
  std::vector<Point> spots;
  for (int i = 0; i < 15; ++i) {
    spots.emplace_back(0.4 * i, 0.25 * (i % 4));
    ins.AddRequest(MakeRequest(i % 3, 1, spots.back().x, spots.back().y, 1));
  }
  for (int i = 0; i < 45; ++i) {
    ins.AddWorker(MakeWorker(i % 3, 0, 0.13 * i, 0.05 * (i % 7), 1.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  Churn(built, &mirror, spots, -1.0, 7.0, 15, /*events=*/600);
}

TEST(WorkerPoolLookupDifferentialTest, InstanceWithoutRequests) {
  Instance ins;
  for (int i = 0; i < 16; ++i) {
    ins.AddWorker(MakeWorker(i % 2, 0, 0.5 * (i % 4), -0.5 * (i / 4), 1.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built);
  Churn(built, &mirror, {{0, 0}, {1, -1}, {5, 5}}, -3.0, 3.0, 16);
}

TEST(WorkerPoolLookupDifferentialTest, RoadNetworkMetric) {
  RoadGridConfig config;
  config.rows = 11;
  config.cols = 11;
  config.spacing_km = 0.5;
  config.seed = 3;
  const RoadGraph city = std::move(GenerateGridCity(config)).value();
  const RoadNetworkMetric metric(&city);
  Instance ins;
  std::vector<Point> spots;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    spots.emplace_back(rng.Uniform(-2, 2), rng.Uniform(-2, 2));
    ins.AddRequest(MakeRequest(i % 2, 1, spots.back().x, spots.back().y, 1));
  }
  for (int i = 0; i < 30; ++i) {
    ins.AddWorker(MakeWorker(i % 2, 0, rng.Uniform(-2, 2),
                             rng.Uniform(-2, 2), i % 2 == 0 ? 1.5 : 1.0));
  }
  const Instance built = BuildEventsOf(std::move(ins));
  Mirror mirror(built, &metric);
  Churn(built, &mirror, spots, -2.5, 2.5, 17, /*events=*/200);
}

}  // namespace
}  // namespace comx
