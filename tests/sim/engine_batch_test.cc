// Batch-mode engine tests: the window=0 differential guarantee (bit
// identity with the online WindowGreedy matcher), windowed feasibility
// under AuditSimResult with waits bounded by the window, determinism, the
// paper example served in full, and the mode's refusal surface.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/window_greedy.h"
#include "datagen/synthetic.h"
#include "fault/fault_plan.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

// A small random 2-platform instance with cross-platform coverage so both
// inner and outer assignments (and their acceptance draws) occur.
Instance RandomInstance(Rng* rng) {
  Instance ins;
  const int workers = static_cast<int>(rng->UniformInt(4, 14));
  const int requests = static_cast<int>(rng->UniformInt(4, 24));
  for (int i = 0; i < workers; ++i) {
    const PlatformId p = static_cast<PlatformId>(rng->UniformInt(0, 1));
    std::vector<double> history;
    const int h = static_cast<int>(rng->UniformInt(1, 4));
    for (int k = 0; k < h; ++k) history.push_back(rng->Uniform(1.0, 8.0));
    ins.AddWorker(MakeWorker(p, rng->Uniform(0.0, 50.0),
                             rng->Uniform(0.0, 4.0), rng->Uniform(0.0, 4.0),
                             rng->Uniform(1.0, 5.0), std::move(history)));
  }
  for (int i = 0; i < requests; ++i) {
    const PlatformId p = static_cast<PlatformId>(rng->UniformInt(0, 1));
    ins.AddRequest(MakeRequest(p, rng->Uniform(0.0, 200.0),
                               rng->Uniform(0.0, 4.0), rng->Uniform(0.0, 4.0),
                               rng->Uniform(1.0, 10.0)));
  }
  ins.BuildEvents();
  return ins;
}

SimConfig BaseConfig() {
  SimConfig c;
  c.measure_response_time = false;
  return c;
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.matching.assignments.size(), b.matching.assignments.size());
  for (size_t i = 0; i < a.matching.assignments.size(); ++i) {
    const Assignment& x = a.matching.assignments[i];
    const Assignment& y = b.matching.assignments[i];
    EXPECT_EQ(x.request, y.request) << "assignment " << i;
    EXPECT_EQ(x.worker, y.worker) << "assignment " << i;
    EXPECT_EQ(x.is_outer, y.is_outer) << "assignment " << i;
    // Bitwise: the same candidate pricing and the same RNG draws.
    EXPECT_EQ(x.outer_payment, y.outer_payment) << "assignment " << i;
    EXPECT_EQ(x.revenue, y.revenue) << "assignment " << i;
  }
  EXPECT_EQ(a.metrics.TotalRevenue(), b.metrics.TotalRevenue());
  ASSERT_EQ(a.metrics.per_platform.size(), b.metrics.per_platform.size());
  for (size_t p = 0; p < a.metrics.per_platform.size(); ++p) {
    const PlatformMetrics& x = a.metrics.per_platform[p];
    const PlatformMetrics& y = b.metrics.per_platform[p];
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.completed_inner, y.completed_inner);
    EXPECT_EQ(x.completed_outer, y.completed_outer);
    EXPECT_EQ(x.rejected, y.rejected);
    EXPECT_EQ(x.outer_offers, y.outer_offers);
    EXPECT_EQ(x.revenue, y.revenue);
  }
}

// The tentpole differential: window=0 batch dispatch is the WindowGreedy
// online matcher, decision for decision and RNG draw for RNG draw.
TEST(EngineBatchTest, Window0BitIdenticalToWindowGreedyOver200Seeds) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(9000 + seed);
    const Instance ins = RandomInstance(&rng);
    const bool recycle = (seed % 3) != 0;
    const uint64_t sim_seed = 77 + seed;

    SimConfig online = BaseConfig();
    online.workers_recycle = recycle;
    if (seed % 4 == 0) {
      online.acceptance_mode = AcceptanceMode::kReservation;
      online.reservation_seed = seed;
    }
    WindowGreedy g0, g1;
    std::vector<OnlineMatcher*> matchers = {&g0, &g1};
    auto base = RunSimulation(ins, matchers, online, sim_seed);
    ASSERT_TRUE(base.ok()) << base.status().message() << " seed " << seed;

    SimConfig batch = online;
    batch.batch_mode = true;
    batch.batch_window_seconds = 0.0;
    auto batched = RunSimulation(ins, matchers, batch, sim_seed);
    ASSERT_TRUE(batched.ok())
        << batched.status().message() << " seed " << seed;
    ExpectSameResult(*base, *batched);
  }
}

TEST(EngineBatchTest, WindowedRunsPassTheAuditAcrossAlgos) {
  for (BatchAlgo algo : {BatchAlgo::kGreedy, BatchAlgo::kIncrementalKm}) {
    Rng rng(314);
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Instance ins = RandomInstance(&rng);
      SimConfig config = BaseConfig();
      config.batch_mode = true;
      config.batch_window_seconds = 30.0;
      config.batch.algo = algo;
      config.workers_recycle = (seed % 2) == 0;
      // Batch mode records the simulated wait (window close - arrival).
      config.measure_response_time = true;
      WindowGreedy g0, g1;
      auto result = RunSimulation(ins, {&g0, &g1}, config, seed);
      ASSERT_TRUE(result.ok())
          << result.status().message() << " algo "
          << BatchAlgoName(algo) << " seed " << seed;
      EXPECT_TRUE(AuditSimResult(ins, config, *result).ok())
          << AuditSimResult(ins, config, *result).message() << " algo "
          << BatchAlgoName(algo) << " seed " << seed;
      // Nobody waits longer than one window: every request is decided at
      // the close of the window it arrived in.
      const auto wait_us = result->metrics.Aggregate().response_time_us;
      EXPECT_GE(wait_us.min(), 0.0);
      EXPECT_LE(wait_us.max(), config.batch_window_seconds * 1e6 + 1.0)
          << " algo " << BatchAlgoName(algo) << " seed " << seed;
    }
  }
}

TEST(EngineBatchTest, WindowedRunIsDeterministic) {
  Rng rng(500);
  const Instance ins = RandomInstance(&rng);
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 45.0;
  WindowGreedy a0, a1, b0, b1;
  auto first = RunSimulation(ins, {&a0, &a1}, config, 9);
  auto second = RunSimulation(ins, {&b0, &b1}, config, 9);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second);
}

TEST(EngineBatchTest, StepRecordsAccountForEveryRequest) {
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 4.0;
  WindowGreedy g0, g1;
  SimEngine engine;
  ASSERT_TRUE(engine.Init(ins, {&g0, &g1}, config, 3).ok());
  int64_t enqueued = 0;
  int64_t flushed_requests = 0;
  int64_t flushes = 0;
  StepRecord record;
  while (!engine.Done()) {
    ASSERT_TRUE(engine.Step(&record).ok());
    if (record.kind == StepRecord::Kind::kBatchEnqueue) {
      ++enqueued;
      EXPECT_GE(record.request, 0);
    } else if (record.kind == StepRecord::Kind::kBatchFlush) {
      ++flushes;
      for (const StepRecord::BatchPlatformDelta& d : record.batch_deltas) {
        flushed_requests += d.requests;
        EXPECT_EQ(d.requests, d.inner + d.outer + d.rejected);
      }
    }
  }
  EXPECT_EQ(enqueued, 5);
  EXPECT_EQ(flushed_requests, 5);
  EXPECT_GT(flushes, 1);  // the paper example spans several 4s windows
  const SimResult result = engine.Finish();
  EXPECT_TRUE(AuditSimResult(ins, config, result).ok());
}

// The batch dispatcher's end-to-end cases, run on engine batch mode.
TEST(BatchSimulatorTest, ServesPaperExampleCompletely) {
  // With 4-second windows and borrowing, every request is matched; the
  // single-step outer histories give MER payments exactly at the step, so
  // acceptance is sure.
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.batch_window_seconds = 4.0;
  config.workers_recycle = false;
  WindowGreedy g0, g1;
  auto r = RunSimulation(ins, {&g0, &g1}, config, 1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(AuditSimResult(ins, config, *r).ok());
  const PlatformMetrics agg = r->metrics.Aggregate();
  EXPECT_EQ(agg.completed, 5);
  EXPECT_EQ(agg.completed_outer, 2);
  // Revenue equals the offline COM optimum here: 21 (Fig. 3(c)).
  EXPECT_DOUBLE_EQ(agg.revenue, 21.0);
}

TEST(BatchSimulatorTest, LatencyBoundedByWaitWindows) {
  SyntheticConfig synthetic;
  synthetic.requests_per_platform = {100};
  synthetic.workers_per_platform = {25};
  synthetic.seed = 33;
  auto ins = GenerateSynthetic(synthetic);
  ASSERT_TRUE(ins.ok());
  SimConfig config;
  config.batch_mode = true;
  config.batch_window_seconds = 120.0;
  // Batch mode records the simulated wait (window close - arrival).
  config.measure_response_time = true;
  WindowGreedy g0, g1;
  auto r = RunSimulation(*ins, {&g0, &g1}, config, 4);
  ASSERT_TRUE(r.ok()) << r.status();
  const PlatformMetrics agg = r->metrics.Aggregate();
  EXPECT_GT(agg.completed, 0);
  // Every request is decided at the close of the window it arrived in.
  EXPECT_LE(agg.response_time_us.max(),
            config.batch_window_seconds * 1e6 + 1.0);
  EXPECT_GE(agg.response_time_us.min(), 0.0);
}

TEST(EngineBatchTest, InitRefusesFaultPlans) {
  const Instance ins = PaperExample();
  fault::FaultPlan plan;  // even a trivial plan is refused in batch mode
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  config.fault_plan = &plan;
  WindowGreedy g0, g1;
  SimEngine engine;
  EXPECT_EQ(engine.Init(ins, {&g0, &g1}, config, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineBatchTest, InitRefusesBadWindows) {
  const Instance ins = PaperExample();
  WindowGreedy g0, g1;
  for (double bad : {-1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    SimConfig config = BaseConfig();
    config.batch_mode = true;
    config.batch_window_seconds = bad;
    SimEngine engine;
    EXPECT_EQ(engine.Init(ins, {&g0, &g1}, config, 1).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(EngineBatchTest, SaveStateRefusedInBatchMode) {
  const Instance ins = PaperExample();
  SimConfig config = BaseConfig();
  config.batch_mode = true;
  WindowGreedy g0, g1;
  SimEngine engine;
  ASSERT_TRUE(engine.Init(ins, {&g0, &g1}, config, 1).ok());
  ByteWriter out;
  EXPECT_EQ(engine.SaveState(&out).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace comx
