#include "matching/batch_matcher.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::RandomGraph;

std::vector<WorkerId> IdentityColumns(int32_t right, WorkerId base = 0) {
  std::vector<WorkerId> ids;
  for (int32_t j = 0; j < right; ++j) ids.push_back(base + j);
  return ids;
}

TEST(BatchAlgoTest, NameParseRoundTrip) {
  for (BatchAlgo algo : {BatchAlgo::kGreedy, BatchAlgo::kIncrementalKm}) {
    auto parsed = ParseBatchAlgo(BatchAlgoName(algo));
    ASSERT_TRUE(parsed.ok()) << BatchAlgoName(algo);
    EXPECT_EQ(*parsed, algo);
  }
  // Only the two backends parse; any other name is an error.
  for (const char* name : {"auto", "hungarian", "auction", "hungry"}) {
    EXPECT_EQ(ParseBatchAlgo(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(BatchMatcherTest, RejectsColumnMapSizeMismatch) {
  BatchMatcher matcher;
  BipartiteGraph g(1, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  EXPECT_EQ(matcher.SolveWindow(g, IdentityColumns(1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchMatcherTest, ExactBackendsAgreeWithHungarianPerWindow) {
  Rng rng(2020);
  for (int trial = 0; trial < 40; ++trial) {
    const int32_t left = static_cast<int32_t>(rng.UniformInt(0, 16));
    const int32_t right = static_cast<int32_t>(rng.UniformInt(1, 16));
    const BipartiteGraph g = RandomGraph(left, right, 0.5, &rng);
    auto reference = HungarianMaxWeight(g);
    ASSERT_TRUE(reference.ok());
    BatchMatcher matcher;  // the default backend is the exact one
    auto got = matcher.SolveWindow(g, IdentityColumns(right));
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(got->total_weight, reference->total_weight, 1e-9)
        << "trial " << trial;
  }
}

// Satellite: the dual-feasibility invariant (u_i + v_j <= c_ij) must hold
// after every warm-started window, and warm starting must never change the
// per-window optimum.
TEST(BatchMatcherTest, WarmStartedWindowsStayOptimalAndDualFeasible) {
  Rng rng(31337);
  BatchMatchConfig config;
  config.algo = BatchAlgo::kIncrementalKm;
  BatchMatcher matcher(config);
  // A rolling fleet: consecutive windows share most of their workers, so
  // the carried duals actually hit.
  for (int window = 0; window < 30; ++window) {
    const int32_t left = static_cast<int32_t>(rng.UniformInt(1, 10));
    const int32_t right = static_cast<int32_t>(rng.UniformInt(1, 10));
    const BipartiteGraph g = RandomGraph(left, right, 0.6, &rng);
    std::vector<WorkerId> workers;
    for (int32_t j = 0; j < right; ++j) {
      // Ids drawn from a small pool to force heavy reuse across windows.
      workers.push_back(rng.UniformInt(0, 14));
    }
    auto got = matcher.SolveWindow(g, workers);
    ASSERT_TRUE(got.ok()) << "window " << window;
    EXPECT_LE(matcher.last_dual_gap(), 1e-9) << "window " << window;
    auto reference = HungarianMaxWeight(g);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(got->total_weight, reference->total_weight, 1e-9)
        << "window " << window;
  }
  matcher.ResetWarmState();
  const BipartiteGraph g = RandomGraph(4, 4, 0.8, &rng);
  auto after_reset = matcher.SolveWindow(g, IdentityColumns(4));
  ASSERT_TRUE(after_reset.ok());
  auto reference = HungarianMaxWeight(g);
  ASSERT_TRUE(reference.ok());
  EXPECT_NEAR(after_reset->total_weight, reference->total_weight, 1e-9);
}

TEST(BatchMatcherTest, ColdIncrementalMatchesWarmIncremental) {
  // Warm starting is a performance lever, not a semantic one: the same
  // window sequence solved cold (duals dropped before every window) must
  // produce the same totals.
  Rng rng_a(55), rng_b(55);
  BatchMatchConfig config;
  config.algo = BatchAlgo::kIncrementalKm;
  BatchMatcher warm(config), cold(config);
  for (int window = 0; window < 20; ++window) {
    const BipartiteGraph g = RandomGraph(6, 6, 0.5, &rng_a);
    const BipartiteGraph h = RandomGraph(6, 6, 0.5, &rng_b);
    auto a = warm.SolveWindow(g, IdentityColumns(6));
    cold.ResetWarmState();
    auto b = cold.SolveWindow(h, IdentityColumns(6));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->total_weight, b->total_weight, 1e-9)
        << "window " << window;
  }
}

}  // namespace
}  // namespace comx
