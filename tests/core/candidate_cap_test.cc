// Tests of the nearest-K candidate cap (production latency knob) on the
// cooperative matchers.

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "core/ram_com.h"
#include "datagen/synthetic.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "testing/fake_view.h"

namespace comx {
namespace {

using testing_fixtures::FakeView;
using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;

Instance ManyOuterWorkers(int n) {
  Instance ins;
  for (int i = 0; i < n; ++i) {
    // Outer workers at increasing distance; all eager to accept anything.
    ins.AddWorker(MakeWorker(1, 1, 0.1 * (i + 1), 0, 3.0, {0.01}));
  }
  ins.BuildEvents();
  return ins;
}

TEST(KeepNearestTest, NoopBelowCap) {
  const Instance ins = ManyOuterWorkers(3);
  FakeView view(ins, 0);
  const Request r = MakeRequest(0, 2, 0, 0, 10.0);
  std::vector<WorkerId> candidates{0, 1, 2};
  KeepNearest(&candidates, r, view, 5);
  EXPECT_EQ(candidates.size(), 3u);
  KeepNearest(&candidates, r, view, 0);  // 0 = unlimited
  EXPECT_EQ(candidates.size(), 3u);
}

TEST(KeepNearestTest, KeepsTheNearestByDistance) {
  const Instance ins = ManyOuterWorkers(6);
  FakeView view(ins, 0);
  const Request r = MakeRequest(0, 2, 0, 0, 10.0);
  std::vector<WorkerId> candidates{5, 3, 1, 0, 4, 2};  // shuffled
  KeepNearest(&candidates, r, view, 2);
  // Workers 0 and 1 are nearest to the origin; output sorted by id.
  EXPECT_EQ(candidates, (std::vector<WorkerId>{0, 1}));
}

TEST(KeepNearestTest, DeterministicOnTies) {
  Instance ins;
  ins.AddWorker(MakeWorker(1, 1, 1.0, 0, 3.0, {0.01}));
  ins.AddWorker(MakeWorker(1, 1, -1.0, 0, 3.0, {0.01}));  // same distance
  ins.AddWorker(MakeWorker(1, 1, 0.0, 1.0, 3.0, {0.01})); // same distance
  ins.BuildEvents();
  FakeView view(ins, 0);
  const Request r = MakeRequest(0, 2, 0, 0, 10.0);
  std::vector<WorkerId> a{0, 1, 2}, b{2, 1, 0};
  KeepNearest(&a, r, view, 2);
  KeepNearest(&b, r, view, 2);
  EXPECT_EQ(a.size(), 2u);
  // Equal-distance ties may resolve by input order inside nth_element, but
  // repeated runs on the same input are stable.
  std::vector<WorkerId> a2{0, 1, 2};
  KeepNearest(&a2, r, view, 2);
  EXPECT_EQ(a, a2);
}

TEST(CandidateCapTest, CappedDemComStillBorrows) {
  const Instance ins = ManyOuterWorkers(10);
  FakeView view(ins, 0);
  DemCom capped({}, /*max_outer_candidates=*/2);
  capped.Reset(ins, 0, 3);
  const Decision d = capped.OnRequest(MakeRequest(0, 2, 0, 0, 10.0), view);
  ASSERT_EQ(d.kind, Decision::Kind::kOuter);
  EXPECT_LE(d.worker, 1);  // only the two nearest were considered
}

TEST(CandidateCapTest, CappedRamComStillBorrows) {
  Instance ins = ManyOuterWorkers(10);
  ins.AddRequest(MakeRequest(0, 2, 50, 50, 1000.0));  // raise theta
  ins.BuildEvents();
  FakeView view(ins, 0);
  RamCom capped(/*fixed_exponent=*/8, /*max_outer_candidates=*/3);
  capped.Reset(ins, 0, 3);
  const Decision d = capped.OnRequest(MakeRequest(0, 2, 0, 0, 10.0), view);
  ASSERT_EQ(d.kind, Decision::Kind::kOuter);
  EXPECT_LE(d.worker, 2);
}

TEST(CandidateCapTest, CapReducesWorkWithoutBreakingInvariants) {
  SyntheticConfig config;
  config.requests_per_platform = {300};
  config.workers_per_platform = {120};
  config.radius_km = 2.5;  // many candidates per request
  config.seed = 41;
  auto ins = GenerateSynthetic(config);
  ASSERT_TRUE(ins.ok());
  SimConfig sim;
  sim.measure_response_time = false;
  DemCom uncapped0, uncapped1;
  DemCom capped0({}, 4), capped1({}, 4);
  auto a = RunSimulation(*ins, {&uncapped0, &uncapped1}, sim, 1);
  auto b = RunSimulation(*ins, {&capped0, &capped1}, sim, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AuditSimResult(*ins, sim, *b).ok());
  // The cap restricts choice, so it cannot create revenue from nothing;
  // allow a small stochastic wobble from different acceptance draws.
  EXPECT_GT(b->metrics.TotalRevenue(), 0.0);
  EXPECT_LT(b->metrics.TotalRevenue(), a->metrics.TotalRevenue() * 1.25);
}

}  // namespace
}  // namespace comx
