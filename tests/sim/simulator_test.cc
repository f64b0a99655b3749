#include "sim/simulator.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "core/tota_greedy.h"
#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

SimConfig NoRecycle() {
  SimConfig c;
  c.workers_recycle = false;
  c.measure_response_time = false;
  return c;
}

TEST(SimulatorTest, RejectsWrongMatcherCount) {
  const Instance ins = PaperExample();  // 2 platforms
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t}, NoRecycle(), 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, RejectsNullMatcher) {
  const Instance ins = PaperExample();
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t, nullptr}, NoRecycle(), 1);
  EXPECT_FALSE(r.ok());
}

TEST(SimulatorTest, RejectsNonPhysicalServiceParameters) {
  const Instance ins = PaperExample();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  struct Row {
    double speed_kmh;
    double base_service_seconds;
    double service_seconds_per_value;
  };
  for (const Row& row : {Row{0.0, 300.0, 30.0}, Row{-30.0, 300.0, 30.0},
                         Row{inf, 300.0, 30.0}, Row{nan, 300.0, 30.0},
                         Row{30.0, -1.0, 30.0}, Row{30.0, inf, 30.0},
                         Row{30.0, nan, 30.0}, Row{30.0, 300.0, -1.0},
                         Row{30.0, 300.0, inf}, Row{30.0, 300.0, nan}}) {
    SimConfig config = NoRecycle();
    config.speed_kmh = row.speed_kmh;
    config.base_service_seconds = row.base_service_seconds;
    config.service_seconds_per_value = row.service_seconds_per_value;
    TotaGreedy a, b;
    auto r = RunSimulation(ins, {&a, &b}, config, 1);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << row.speed_kmh << " " << row.base_service_seconds << " "
        << row.service_seconds_per_value;
  }
}

// Returns one scripted decision for every request, feasible or not.
class RogueMatcher : public OnlineMatcher {
 public:
  explicit RogueMatcher(Decision decision) : decision_(std::move(decision)) {}
  void Reset(const Instance&, PlatformId, uint64_t) override {}
  Decision OnRequest(const Request&, const PlatformView&) override {
    return decision_;
  }
  std::string name() const override { return "Rogue"; }

 private:
  Decision decision_;
};

TEST(SimulatorTest, CommitGuardsRejectInfeasibleDecisions) {
  // w0: inner, in range. w1: outer (platform 1), in range. w2: inner, far
  // away. w3: inner, in range, arriving after r0's recorded time (below).
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1.0, 0.0, 0.0, 1.0));
  ins.AddWorker(MakeWorker(1, 1.0, 0.5, 0.0, 1.0, {3.0}));
  ins.AddWorker(MakeWorker(0, 1.0, 50.0, 50.0, 1.0));
  ins.AddWorker(MakeWorker(0, 1.5, 0.0, 0.0, 1.0));
  ins.AddRequest(MakeRequest(0, 2.0, 0.0, 0.0, 5.0));  // r0, v = 5
  ins.AddRequest(MakeRequest(0, 3.0, 0.0, 0.0, 5.0));  // r1
  ins.BuildEvents();
  // r0 is still dispatched at t = 2, after w3 arrived, but it now claims
  // to have arrived at t = 1.2: only the time guard can catch w3.
  ins.mutable_request(0)->time = 1.2;

  struct Row {
    const char* name;
    Decision decision;
    const char* message;
  };
  const Row rows[] = {
      {"invalid worker id", Decision::Inner(99), "invalid worker id"},
      // r0 takes w0, then r1 is handed the same (now busy) worker.
      {"occupied worker", Decision::Inner(0), "occupied worker"},
      {"wrong inner/outer label", Decision::Inner(1), "mislabelled"},
      {"out of range", Decision::Inner(2), "range constraint"},
      {"arrived after the request", Decision::Inner(3), "time constraint"},
      {"outer payment 0", Decision::Outer(1, 0.0), "outer payment"},
      {"outer payment above v", Decision::Outer(1, 6.0), "outer payment"},
  };
  for (const Row& row : rows) {
    RogueMatcher rogue(row.decision);
    TotaGreedy partner;
    auto r = RunSimulation(ins, {&rogue, &partner}, NoRecycle(), 1);
    ASSERT_FALSE(r.ok()) << row.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << row.name;
    const std::string& message = r.status().message();
    EXPECT_EQ(message.rfind("Rogue ", 0), 0u) << row.name << ": " << message;
    EXPECT_NE(message.find(row.message), std::string::npos)
        << row.name << ": " << message;
  }
}

TEST(SimulatorTest, EmptyInstanceRuns) {
  Instance ins;
  ins.BuildEvents();
  auto r = RunSimulation(ins, {}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->matching.assignments.empty());
}

TEST(SimulatorTest, MetricsAddUpToRequestCount) {
  const Instance ins = PaperExample();
  TotaGreedy a, b;
  auto r = RunSimulation(ins, {&a, &b}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  const auto& m = r->metrics.per_platform[0];
  EXPECT_EQ(m.completed + m.rejected, 5);
  EXPECT_EQ(m.completed, m.completed_inner + m.completed_outer);
}

TEST(SimulatorTest, RevenueMatchesAssignments) {
  const Instance ins = PaperExample();
  DemCom a, b;
  auto r = RunSimulation(ins, {&a, &b}, NoRecycle(), 5);
  ASSERT_TRUE(r.ok());
  double total = 0.0;
  for (const Assignment& asg : r->matching.assignments) total += asg.revenue;
  EXPECT_NEAR(total, r->metrics.TotalRevenue(), 1e-9);
  EXPECT_NEAR(total, r->matching.total_revenue, 1e-9);
}

TEST(SimulatorTest, NoRecycleMeansEachWorkerServesOnce) {
  Instance ins;
  // One worker, two sequential requests in range.
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddRequest(MakeRequest(0, 2, 0.1, 0, 5.0));
  ins.AddRequest(MakeRequest(0, 3, 0.2, 0, 5.0));
  ins.BuildEvents();
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.per_platform[0].completed, 1);
  EXPECT_EQ(r->metrics.per_platform[0].rejected, 1);
}

TEST(SimulatorTest, RecyclingLetsWorkerServeAgain) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddRequest(MakeRequest(0, 10.0, 0.1, 0, 1.0));
  // Second request arrives well after the first service ends.
  ins.AddRequest(MakeRequest(0, 100'000.0, 0.2, 0, 1.0));
  ins.BuildEvents();
  SimConfig recycle;
  recycle.workers_recycle = true;
  recycle.measure_response_time = false;
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t}, recycle, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.per_platform[0].completed, 2);
  EXPECT_TRUE(AuditSimResult(ins, recycle, *r).ok());
}

TEST(SimulatorTest, RecycledWorkerWaitsOutServiceDuration) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddRequest(MakeRequest(0, 10.0, 0.1, 0, 1.0));
  // Second request arrives 1 second after the first: worker still busy.
  ins.AddRequest(MakeRequest(0, 11.0, 0.2, 0, 1.0));
  ins.BuildEvents();
  SimConfig recycle;
  recycle.workers_recycle = true;
  recycle.measure_response_time = false;
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t}, recycle, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.per_platform[0].completed, 1);
  EXPECT_EQ(r->metrics.per_platform[0].rejected, 1);
}

TEST(SimulatorTest, RecycledWorkerServesFromDropOffLocation) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 1.0));
  // First request drags the worker to (5, 0) — outside the original
  // coverage. A later request near (5, 0) is only servable post-recycle.
  Request far = MakeRequest(0, 10.0, 0.9, 0, 1.0);
  far.location = Point(0.9, 0.0);
  ins.AddRequest(far);
  ins.AddRequest(MakeRequest(0, 100'000.0, 1.5, 0.0, 1.0));
  ins.BuildEvents();
  SimConfig recycle;
  recycle.workers_recycle = true;
  recycle.measure_response_time = false;
  TotaGreedy t;
  auto r = RunSimulation(ins, {&t}, recycle, 1);
  ASSERT_TRUE(r.ok());
  // Second request at (1.5, 0) is within 1 km of the drop-off (0.9, 0)
  // but NOT within 1 km of the original (0, 0).
  EXPECT_EQ(r->metrics.per_platform[0].completed, 2);
}

TEST(SimulatorTest, ResponseTimeMeasuredWhenEnabled) {
  const Instance ins = PaperExample();
  SimConfig c = NoRecycle();
  c.measure_response_time = true;
  TotaGreedy a, b;
  auto r = RunSimulation(ins, {&a, &b}, c, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.per_platform[0].response_time_us.count(), 5);
  EXPECT_GT(r->metrics.per_platform[0].response_time_us.mean(), 0.0);
}

TEST(SimulatorTest, MemoryAccountingPositive) {
  const Instance ins = PaperExample();
  TotaGreedy a, b;
  auto r = RunSimulation(ins, {&a, &b}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->metrics.logical_bytes, 0);
  EXPECT_GT(r->metrics.rss_bytes, 0);
  EXPECT_GE(r->metrics.wall_seconds, 0.0);
}

TEST(SimulatorTest, AuditCatchesTamperedRevenue) {
  const Instance ins = PaperExample();
  TotaGreedy a, b;
  auto r = RunSimulation(ins, {&a, &b}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  SimResult tampered = *r;
  ASSERT_FALSE(tampered.matching.assignments.empty());
  tampered.matching.assignments[0].revenue += 1.0;
  EXPECT_FALSE(AuditSimResult(ins, NoRecycle(), tampered).ok());
}

TEST(SimulatorTest, AuditCatchesDoubleServedRequest) {
  const Instance ins = PaperExample();
  TotaGreedy a, b;
  auto r = RunSimulation(ins, {&a, &b}, NoRecycle(), 1);
  ASSERT_TRUE(r.ok());
  SimResult tampered = *r;
  ASSERT_GE(tampered.matching.assignments.size(), 2u);
  tampered.matching.assignments[1].request =
      tampered.matching.assignments[0].request;
  EXPECT_FALSE(AuditSimResult(ins, NoRecycle(), tampered).ok());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const Instance ins = PaperExample();
  auto run = [&] {
    DemCom a, b;
    SimConfig c = NoRecycle();
    auto r = RunSimulation(ins, {&a, &b}, c, 77);
    EXPECT_TRUE(r.ok());
    return r->metrics.TotalRevenue();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace comx
