// Parameterized invariant sweeps: every algorithm on random workloads of
// varying shape must produce audited-feasible matchings with consistent
// accounting, whatever the seed.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dem_com.h"
#include "core/greedy_rt.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "datagen/synthetic.h"
#include "matching/hungarian.h"
#include "sim/simulator.h"

namespace comx {
namespace {

struct SweepCase {
  const char* name;
  int64_t requests;
  int64_t workers;
  double radius;
  double imbalance;
  bool recycle;
};

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class InvariantSweep : public testing::TestWithParam<SweepCase> {
 protected:
  Instance MakeInstance(uint64_t seed) {
    const SweepCase& c = GetParam();
    SyntheticConfig config;
    config.requests_per_platform = {c.requests};
    config.workers_per_platform = {c.workers};
    config.radius_km = c.radius;
    config.imbalance = c.imbalance;
    config.seed = seed;
    auto ins = GenerateSynthetic(config);
    EXPECT_TRUE(ins.ok());
    return std::move(ins).value();
  }

  SimConfig Config() const {
    SimConfig s;
    s.workers_recycle = GetParam().recycle;
    s.measure_response_time = false;
    return s;
  }

  template <typename Matcher>
  void CheckMatcher(const Instance& ins, uint64_t seed) {
    Matcher m0, m1;
    auto r = RunSimulation(ins, {&m0, &m1}, Config(), seed);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(AuditSimResult(ins, Config(), *r).ok());
    // Metrics identities.
    const PlatformMetrics agg = r->metrics.Aggregate();
    EXPECT_EQ(agg.completed, agg.completed_inner + agg.completed_outer);
    EXPECT_EQ(agg.completed + agg.rejected,
              static_cast<int64_t>(ins.requests().size()));
    EXPECT_GE(agg.completed_outer, 0);
    EXPECT_LE(agg.completed_outer, agg.outer_offers);
    EXPECT_GE(agg.revenue, 0.0);
    EXPECT_EQ(r->matching.assignments.size(),
              static_cast<size_t>(agg.completed));
    // Each payment rate term is in (0, 1].
    if (agg.completed_outer > 0) {
      EXPECT_GT(agg.payment_rate_sum, 0.0);
      EXPECT_LE(agg.payment_rate_sum,
                static_cast<double>(agg.completed_outer) + 1e-9);
    }
  }
};

TEST_P(InvariantSweep, Tota) {
  const Instance ins = MakeInstance(100);
  CheckMatcher<TotaGreedy>(ins, 1);
}

TEST_P(InvariantSweep, GreedyRt) {
  const Instance ins = MakeInstance(101);
  CheckMatcher<GreedyRt>(ins, 2);
}

TEST_P(InvariantSweep, DemCom) {
  const Instance ins = MakeInstance(102);
  CheckMatcher<DemCom>(ins, 3);
}

TEST_P(InvariantSweep, RamCom) {
  const Instance ins = MakeInstance(103);
  CheckMatcher<RamCom>(ins, 4);
}

// SolveOffline (incremental KM) against the dense Hungarian referee on the
// very graph SolveOffline builds.
TEST_P(InvariantSweep, OfflineSolversAgreeOnSmallInstances) {
  const Instance ins = MakeInstance(104);
  const OfflineConfig config;
  for (PlatformId p = 0; p < 2; ++p) {
    auto solved = SolveOffline(ins, p, config);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(solved->solver, "incremental_km");
    std::vector<RequestId> request_ids;
    std::vector<double> payments;
    auto graph =
        BuildOfflineGraph(ins, p, config, &request_ids, &payments);
    ASSERT_TRUE(graph.ok());
    auto referee = HungarianMaxWeight(*graph);
    ASSERT_TRUE(referee.ok());
    EXPECT_NEAR(solved->matching.total_revenue, referee->total_weight,
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InvariantSweep,
    testing::Values(
        SweepCase{"tiny_sparse", 50, 10, 1.0, 0.7, false},
        SweepCase{"tiny_recycle", 50, 10, 1.0, 0.7, true},
        SweepCase{"supply_rich", 100, 200, 1.0, 0.5, false},
        SweepCase{"supply_starved", 300, 10, 1.0, 0.8, true},
        SweepCase{"wide_radius", 150, 30, 2.5, 0.7, true},
        SweepCase{"narrow_radius", 150, 30, 0.5, 0.7, true},
        SweepCase{"balanced_city", 150, 30, 1.0, 0.0, true},
        SweepCase{"full_imbalance", 150, 30, 1.0, 1.0, true},
        SweepCase{"mid_size", 600, 120, 1.0, 0.7, true}),
    [](const testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

TEST(InvariantExtraTest, ThreePlatformCooperation) {
  SyntheticConfig config;
  config.platforms = 3;
  config.requests_per_platform = {120};
  config.workers_per_platform = {25};
  config.seed = 55;
  auto ins = GenerateSynthetic(config);
  ASSERT_TRUE(ins.ok());
  DemCom m0, m1, m2;
  SimConfig sim;
  sim.measure_response_time = false;
  auto r = RunSimulation(*ins, {&m0, &m1, &m2}, sim, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(AuditSimResult(*ins, sim, *r).ok());
  EXPECT_EQ(r->metrics.per_platform.size(), 3u);
}

TEST(InvariantExtraTest, NoWorkersMeansAllRejected) {
  SyntheticConfig config;
  config.requests_per_platform = {50};
  config.workers_per_platform = {0};
  config.seed = 56;
  auto ins = GenerateSynthetic(config);
  ASSERT_TRUE(ins.ok());
  RamCom m0, m1;
  SimConfig sim;
  sim.measure_response_time = false;
  auto r = RunSimulation(*ins, {&m0, &m1}, sim, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.Aggregate().completed, 0);
  EXPECT_EQ(r->metrics.Aggregate().rejected, 100);
}

TEST(InvariantExtraTest, NoRequestsMeansNoRevenue) {
  SyntheticConfig config;
  config.requests_per_platform = {0};
  config.workers_per_platform = {20};
  config.seed = 57;
  auto ins = GenerateSynthetic(config);
  ASSERT_TRUE(ins.ok());
  DemCom m0, m1;
  SimConfig sim;
  auto r = RunSimulation(*ins, {&m0, &m1}, sim, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->metrics.TotalRevenue(), 0.0);
}

}  // namespace
}  // namespace comx
