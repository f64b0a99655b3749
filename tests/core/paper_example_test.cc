// End-to-end checks of the paper's running example (Example 1, Fig. 3,
// Tables I-II) across TOTA, DemCOM, RamCOM and OFF via the full simulator.

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "sim/simulator.h"
#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::PaperExample;

SimConfig TheoryConfig() {
  SimConfig c;
  c.workers_recycle = false;
  c.measure_response_time = false;
  return c;
}

TEST(PaperExampleTest, TotaOnlineEarnsSixteen) {
  const Instance ins = PaperExample();
  TotaGreedy t0, t1;
  auto result = RunSimulation(ins, {&t0, &t1}, TheoryConfig(), 1);
  ASSERT_TRUE(result.ok());
  // Online greedy: r1<-w1 (4), r2<-w2 (9), r3 rejected, r4<-w4 (3),
  // r5 rejected.
  EXPECT_DOUBLE_EQ(result->metrics.per_platform[0].revenue, 16.0);
  EXPECT_EQ(result->metrics.per_platform[0].completed, 3);
  EXPECT_EQ(result->metrics.per_platform[0].rejected, 2);
  EXPECT_EQ(result->metrics.per_platform[0].completed_outer, 0);
}

TEST(PaperExampleTest, OfflineTotaOptimumIsEighteen) {
  OfflineConfig config;
  config.allow_outer = false;
  auto sol = SolveOffline(PaperExample(), 0, config);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->matching.total_revenue, 18.0);
  EXPECT_EQ(sol->solver, "incremental_km");
}

TEST(PaperExampleTest, OfflineComOptimumIsTwentyOne) {
  auto sol = SolveOffline(PaperExample(), 0, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->matching.total_revenue, 21.0);
  EXPECT_EQ(sol->solver, "incremental_km");
}

TEST(PaperExampleTest, DemComNeverWorseThanTotaHere) {
  // On this instance DemCOM's inner decisions coincide with TOTA and outer
  // borrowing can only add revenue, whatever the acceptance draws do.
  const Instance ins = PaperExample();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    DemCom d0, d1;
    auto dem = RunSimulation(ins, {&d0, &d1}, TheoryConfig(), seed);
    ASSERT_TRUE(dem.ok());
    EXPECT_GE(dem->metrics.per_platform[0].revenue, 16.0) << "seed " << seed;
    EXPECT_LE(dem->metrics.per_platform[0].revenue, 21.0 + 1e-9);
  }
}

TEST(PaperExampleTest, DemComBorrowingAddsRevenueForSomeSeed) {
  // The pristine fixture gives w3/w5 single-valued (step) histories, under
  // which Algorithm 2's bisection provably quotes *below* the step and the
  // acceptance draw always fails — the degenerate extreme of the paper's
  // own Section III-D observation that DemCOM's minimum payments are often
  // rejected. With a richer history (values both below and above the
  // step), borrowing succeeds for some seeds.
  Instance ins = PaperExample();
  ins.mutable_worker(2)->history = {1.0, 2.0, 3.0, 4.0};
  ins.mutable_worker(4)->history = {0.5, 1.0, 2.0, 3.0};
  bool borrowed = false;
  for (uint64_t seed = 0; seed < 50 && !borrowed; ++seed) {
    DemCom d0, d1;
    auto dem = RunSimulation(ins, {&d0, &d1}, TheoryConfig(), seed);
    ASSERT_TRUE(dem.ok());
    borrowed = dem->metrics.per_platform[0].completed_outer > 0;
  }
  EXPECT_TRUE(borrowed)
      << "DemCOM never borrowed an outer worker across 50 seeds";
}

TEST(PaperExampleTest, RamComBoundedByOffline) {
  const Instance ins = PaperExample();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RamCom r0, r1;
    auto ram = RunSimulation(ins, {&r0, &r1}, TheoryConfig(), seed);
    ASSERT_TRUE(ram.ok());
    EXPECT_LE(ram->metrics.per_platform[0].revenue, 21.0 + 1e-9);
    EXPECT_TRUE(AuditSimResult(ins, TheoryConfig(), *ram).ok());
  }
}

TEST(PaperExampleTest, AllAlgorithmsPassTheAudit) {
  const Instance ins = PaperExample();
  {
    TotaGreedy a, b;
    auto r = RunSimulation(ins, {&a, &b}, TheoryConfig(), 2);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(AuditSimResult(ins, TheoryConfig(), *r).ok());
  }
  {
    DemCom a, b;
    auto r = RunSimulation(ins, {&a, &b}, TheoryConfig(), 2);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(AuditSimResult(ins, TheoryConfig(), *r).ok());
  }
  {
    RamCom a, b;
    auto r = RunSimulation(ins, {&a, &b}, TheoryConfig(), 2);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(AuditSimResult(ins, TheoryConfig(), *r).ok());
  }
}

TEST(PaperExampleTest, CooperationNeverServesForeignRequestsHere) {
  // All requests belong to platform 0; platform 1's metrics must be empty.
  const Instance ins = PaperExample();
  DemCom a, b;
  auto r = RunSimulation(ins, {&a, &b}, TheoryConfig(), 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.per_platform[1].completed, 0);
  EXPECT_EQ(r->metrics.per_platform[1].rejected, 0);
  EXPECT_EQ(r->metrics.per_platform[1].revenue, 0.0);
}

}  // namespace
}  // namespace comx
