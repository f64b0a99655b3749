#include "sim/worker_pool.h"

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"
#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

Instance PoolInstance() {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0.0, 0.0, 1.0));   // inner
  ins.AddWorker(MakeWorker(0, 2, 0.5, 0.0, 1.0));   // inner
  ins.AddWorker(MakeWorker(1, 1, 0.2, 0.0, 1.0));   // outer
  ins.BuildEvents();
  return ins;
}

TEST(WorkerPoolTest, StartsEmpty) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  EXPECT_EQ(pool.available_count(), 0u);
  EXPECT_FALSE(pool.IsAvailable(0));
}

TEST(WorkerPoolTest, ArrivalMakesAvailable) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, ins.worker(0).location, 1.0).ok());
  EXPECT_TRUE(pool.IsAvailable(0));
  EXPECT_EQ(pool.available_count(), 1u);
  EXPECT_EQ(pool.AvailableSince(0), 1.0);
}

TEST(WorkerPoolTest, DoubleArrivalFails) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, Point(0, 0), 1.0).ok());
  EXPECT_EQ(pool.OnArrival(0, Point(0, 0), 2.0).code(),
            StatusCode::kAlreadyExists);
}

TEST(WorkerPoolTest, OccupyRemovesEverywhere) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(2, Point(0.2, 0), 1.0).ok());
  const Request r = MakeRequest(0, 2.0, 0.0, 0.0, 5.0);
  EXPECT_EQ(pool.FeasibleWorkers(r, 0, /*inner=*/false).size(), 1u);
  ASSERT_TRUE(pool.MarkOccupied(2).ok());
  EXPECT_TRUE(pool.FeasibleWorkers(r, 0, false).empty());
  EXPECT_TRUE(pool.FeasibleWorkers(r, 1, true).empty());
}

TEST(WorkerPoolTest, OccupyUnavailableFails) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  EXPECT_EQ(pool.MarkOccupied(0).code(), StatusCode::kNotFound);
}

TEST(WorkerPoolTest, FeasibleSplitsInnerAndOuter) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(pool.OnArrival(w.id, w.location, w.time).ok());
  }
  const Request r = MakeRequest(0, 5.0, 0.1, 0.0, 5.0);
  const auto inner = pool.FeasibleWorkers(r, 0, true);
  const auto outer = pool.FeasibleWorkers(r, 0, false);
  EXPECT_EQ(inner, (std::vector<WorkerId>{0, 1}));
  EXPECT_EQ(outer, (std::vector<WorkerId>{2}));
  // From platform 1's perspective the split flips.
  EXPECT_EQ(pool.FeasibleWorkers(r, 1, true), (std::vector<WorkerId>{2}));
  EXPECT_EQ(pool.FeasibleWorkers(r, 1, false),
            (std::vector<WorkerId>{0, 1}));
}

TEST(WorkerPoolTest, TimeConstraintUsesAvailabilityEpisode) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, Point(0, 0), 10.0).ok());  // re-arrival late
  const Request early = MakeRequest(0, 5.0, 0.0, 0.0, 5.0);
  EXPECT_TRUE(pool.FeasibleWorkers(early, 0, true).empty());
  const Request late = MakeRequest(0, 11.0, 0.0, 0.0, 5.0);
  EXPECT_EQ(pool.FeasibleWorkers(late, 0, true).size(), 1u);
}

TEST(WorkerPoolTest, RangeUsesPerWorkerRadius) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0.0, 0.0, 0.5));  // small radius
  ins.AddWorker(MakeWorker(0, 1, 0.0, 0.0, 3.0));  // big radius
  ins.BuildEvents();
  WorkerPool pool(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(pool.OnArrival(w.id, w.location, w.time).ok());
  }
  const Request r = MakeRequest(0, 5.0, 1.0, 0.0, 5.0);
  EXPECT_EQ(pool.FeasibleWorkers(r, 0, true), (std::vector<WorkerId>{1}));
}

TEST(WorkerPoolTest, RearrivalAtNewLocation) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, Point(0, 0), 1.0).ok());
  ASSERT_TRUE(pool.MarkOccupied(0).ok());
  ASSERT_TRUE(pool.OnArrival(0, Point(5, 5), 7.0).ok());
  EXPECT_EQ(pool.CurrentLocation(0), Point(5, 5));
  const Request near_new = MakeRequest(0, 8.0, 5.2, 5.0, 5.0);
  EXPECT_EQ(pool.FeasibleWorkers(near_new, 0, true).size(), 1u);
  const Request near_old = MakeRequest(0, 8.0, 0.0, 0.0, 5.0);
  EXPECT_TRUE(pool.FeasibleWorkers(near_old, 0, true).empty());
}

TEST(WorkerPoolTest, OutOfRangeWorkerIdsAreErrorsNotUb) {
  const Instance ins = PoolInstance();  // workers 0..2
  WorkerPool pool(ins);
  EXPECT_EQ(pool.OnArrival(-1, Point(0, 0), 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(pool.OnArrival(3, Point(0, 0), 1.0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(pool.MarkOccupied(-1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool.MarkOccupied(99).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(pool.IsAvailable(-1));
  EXPECT_FALSE(pool.IsAvailable(99));
}

TEST(WorkerPoolTest, DoubleAssignmentIsAnError) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, Point(0, 0), 1.0).ok());
  ASSERT_TRUE(pool.MarkOccupied(0).ok());
  // The worker is already serving: a second assignment must surface as a
  // Status, never silently corrupt the pool.
  EXPECT_EQ(pool.MarkOccupied(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.available_count(), 0u);
}

TEST(WorkerPoolTest, ResultsAreSortedById) {
  Instance ins;
  for (int i = 0; i < 10; ++i) {
    ins.AddWorker(MakeWorker(0, 1, 0.01 * i, 0.0, 2.0));
  }
  ins.BuildEvents();
  WorkerPool pool(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(pool.OnArrival(w.id, w.location, w.time).ok());
  }
  const auto ids = pool.FeasibleWorkers(MakeRequest(0, 5, 0, 0, 1), 0, true);
  ASSERT_EQ(ids.size(), 10u);
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
}

TEST(WorkerPoolTest, AvailableCountTracksArrivalsAndOccupations) {
  const Instance ins = PoolInstance();
  WorkerPool pool(ins);
  ASSERT_TRUE(pool.OnArrival(0, Point(0, 0), 1.0).ok());
  ASSERT_TRUE(pool.OnArrival(1, Point(0.5, 0), 1.0).ok());
  ASSERT_TRUE(pool.OnArrival(2, Point(0.2, 0), 1.0).ok());
  EXPECT_EQ(pool.available_count(), 3u);
  ASSERT_TRUE(pool.MarkOccupied(1).ok());
  EXPECT_EQ(pool.available_count(), 2u);
  // Failed calls leave the count alone.
  EXPECT_FALSE(pool.MarkOccupied(1).ok());
  EXPECT_FALSE(pool.OnArrival(0, Point(0, 0), 2.0).ok());
  EXPECT_FALSE(pool.OnArrival(7, Point(0, 0), 2.0).ok());
  EXPECT_EQ(pool.available_count(), 2u);
  ASSERT_TRUE(pool.OnArrival(1, Point(3, 3), 4.0).ok());
  EXPECT_EQ(pool.available_count(), 3u);
}

TEST(WorkerPoolTest, OccupyTheWorkerASwapPopJustMoved) {
  // Four workers of one platform in one cell: occupying the first moves
  // the last into its slot; that moved worker must still be removable and
  // every other worker must stay findable.
  Instance ins;
  for (int i = 0; i < 4; ++i) ins.AddWorker(MakeWorker(0, 1, 0.1 * i, 0, 1));
  ins.BuildEvents();
  WorkerPool pool(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(pool.OnArrival(w.id, w.location, w.time).ok());
  }
  const Request r = MakeRequest(0, 5, 0, 0, 1);
  ASSERT_TRUE(pool.MarkOccupied(0).ok());  // 3 moves into slot 0
  ASSERT_TRUE(pool.MarkOccupied(3).ok());  // the moved worker
  EXPECT_EQ(pool.FeasibleWorkers(r, 0, true), (std::vector<WorkerId>{1, 2}));
  ASSERT_TRUE(pool.MarkOccupied(1).ok());  // 2 moves into slot 0
  EXPECT_EQ(pool.FeasibleWorkers(r, 0, true), (std::vector<WorkerId>{2}));
  ASSERT_TRUE(pool.OnArrival(3, Point(0.05, 0), 6).ok());
  ASSERT_TRUE(pool.MarkOccupied(2).ok());  // 3 moves into slot 0
  ASSERT_TRUE(pool.MarkOccupied(3).ok());
  EXPECT_TRUE(pool.FeasibleWorkers(r, 0, true).empty());
  EXPECT_EQ(pool.available_count(), 0u);
}

TEST(WorkerPoolTest, RearrivalIntoADifferentCell) {
  // Requests spread over 20 km make a multi-cell grid (edge = 1 km radius).
  Instance ins;
  ins.AddRequest(MakeRequest(0, 1, 0, 0, 1));
  ins.AddRequest(MakeRequest(0, 1, 20, 20, 1));
  ins.AddWorker(MakeWorker(0, 1, 0.2, 0.2, 1));
  ins.AddWorker(MakeWorker(0, 1, 0.4, 0.2, 1));
  ins.BuildEvents();
  WorkerPool pool(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(pool.OnArrival(w.id, w.location, w.time).ok());
  }
  const Request near_old = MakeRequest(0, 9, 0, 0, 1);
  const Request near_new = MakeRequest(0, 9, 15.5, 12.0, 1);
  EXPECT_EQ(pool.FeasibleWorkers(near_old, 0, true),
            (std::vector<WorkerId>{0, 1}));
  ASSERT_TRUE(pool.MarkOccupied(0).ok());
  ASSERT_TRUE(pool.OnArrival(0, Point(15.0, 12.0), 8).ok());
  EXPECT_EQ(pool.FeasibleWorkers(near_old, 0, true),
            (std::vector<WorkerId>{1}));
  EXPECT_EQ(pool.FeasibleWorkers(near_new, 0, true),
            (std::vector<WorkerId>{0}));
  // Moving back to the old cell, then out of the request box entirely.
  ASSERT_TRUE(pool.MarkOccupied(0).ok());
  ASSERT_TRUE(pool.OnArrival(0, Point(-30.0, 40.0), 8).ok());
  EXPECT_EQ(pool.FeasibleWorkers(near_old, 0, true),
            (std::vector<WorkerId>{1}));
  EXPECT_TRUE(pool.FeasibleWorkers(near_new, 0, true).empty());
  EXPECT_EQ(pool.FeasibleWorkers(MakeRequest(0, 9, -30.5, 40, 1), 0, true),
            (std::vector<WorkerId>{0}));
}

TEST(WorkerPoolTest, RebuildFromAvailabilitySetMatchesTheLivePool) {
  // SimEngine::RestoreState rebuilds a fresh pool by replaying the saved
  // availability set (id ascending, current location, available-since);
  // every lookup of the rebuilt pool must equal the live one's.
  Instance ins;
  for (int i = 0; i < 12; ++i) {
    ins.AddRequest(MakeRequest(i % 2, 1, 0.7 * i, 0.3 * (i % 3), 1));
    ins.AddWorker(MakeWorker(i % 2, 1, 0.6 * i, 0.2 * (i % 4), 1.2));
  }
  ins.BuildEvents();
  WorkerPool live(ins);
  for (const Worker& w : ins.workers()) {
    ASSERT_TRUE(live.OnArrival(w.id, w.location, w.time).ok());
  }
  for (WorkerId w : {0, 3, 4, 9}) ASSERT_TRUE(live.MarkOccupied(w).ok());
  ASSERT_TRUE(live.OnArrival(3, Point(5.1, 0.4), 6.0).ok());
  ASSERT_TRUE(live.OnArrival(9, Point(-2.0, 9.0), 7.0).ok());

  WorkerPool rebuilt(ins);
  const kernels::WorkerSoA& soa = live.soa();
  for (size_t w = 0; w < soa.size(); ++w) {
    if (soa.available()[w] == 0) continue;
    ASSERT_TRUE(rebuilt
                    .OnArrival(static_cast<WorkerId>(w),
                               Point(soa.x()[w], soa.y()[w]),
                               soa.available_since()[w])
                    .ok());
  }
  EXPECT_EQ(rebuilt.available_count(), live.available_count());
  for (double x = -3.0; x <= 9.0; x += 0.5) {
    for (double y = -1.0; y <= 10.0; y += 0.5) {
      const Request r = MakeRequest(0, 8.0, x, y, 1);
      for (PlatformId p = 0; p < 2; ++p) {
        for (bool inner : {true, false}) {
          EXPECT_EQ(rebuilt.FeasibleWorkers(r, p, inner),
                    live.FeasibleWorkers(r, p, inner));
        }
      }
    }
  }
}

TEST(WorkerPoolTest, LookupsFeedTheGridProbeCounters) {
  obs::Counter* queries = obs::MetricsRegistry::Global().GetCounter(
      "comx_geo_grid_queries_total");
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("comx_geo_grid_hits_total");
  const int64_t queries_before = queries->Value();
  const int64_t hits_before = hits->Value();
  const Instance ins = PaperExample();
  DemCom m0, m1;
  SimConfig config;
  config.measure_response_time = false;
  obs::SetCollectionEnabled(true);
  auto result = RunSimulation(ins, {&m0, &m1}, config, 5);
  obs::SetCollectionEnabled(false);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->metrics.TotalRevenue(), 0.0);
  EXPECT_GT(queries->Value(), queries_before);
  EXPECT_GT(hits->Value(), hits_before);
}

}  // namespace
}  // namespace comx
