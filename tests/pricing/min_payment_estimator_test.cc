#include "pricing/min_payment_estimator.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::MakeWorker;

Instance WorkersWithHistories(
    const std::vector<std::vector<double>>& histories) {
  Instance ins;
  for (const auto& h : histories) {
    ins.AddWorker(MakeWorker(0, 1, 0, 0, 1, h));
  }
  ins.BuildEvents();
  return ins;
}

TEST(MinPaymentConfigTest, SampleCountFormula) {
  MinPaymentConfig c;
  c.xi = 0.1;
  c.eta = 0.5;
  // ceil(4 ln(20) / 0.25) = ceil(47.93) = 48.
  EXPECT_EQ(c.SampleCount(),
            static_cast<int>(std::ceil(4.0 * std::log(20.0) / 0.25)));
  c.eta = 1.0;
  EXPECT_EQ(c.SampleCount(), static_cast<int>(std::ceil(4.0 * std::log(20.0))));
}

TEST(MinPaymentConfigTest, SampleCountRunsAtLeastOneInstance) {
  MinPaymentConfig c;
  c.xi = 2.0;  // ln(2 / xi) = 0
  EXPECT_EQ(c.SampleCount(), 1);
  c.xi = 3.0;  // ln(2 / xi) < 0
  EXPECT_EQ(c.SampleCount(), 1);
  c.xi = 0.1;
  c.eta = 0.0;  // 4 ln(20) / 0 = +inf
  EXPECT_GE(c.SampleCount(), 1);
  EXPECT_EQ(c.SampleCount(), std::numeric_limits<int>::max());
  c.xi = 2.0;  // 0 / 0 = NaN
  EXPECT_EQ(c.SampleCount(), 1);
}

TEST(MinPaymentTest, ToleranceAboveTwoStillQuotesAFinitePayment) {
  // xi = 2 used to give n_s = 0 and a 0/0 = NaN payment.
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}});
  const AcceptanceModel model(ins);
  MinPaymentConfig config;
  config.xi = 2.0;
  Rng rng(12);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, config, &rng);
  EXPECT_EQ(est.samples, 1);
  EXPECT_TRUE(std::isfinite(est.payment));
  EXPECT_TRUE(std::isfinite(est.reject_fraction));
  EXPECT_LE(est.payment, 10.0 + config.epsilon);
}

TEST(MinPaymentTest, EmptyCandidatesQuoteAboveValue) {
  const Instance ins = WorkersWithHistories({{5.0}});
  const AcceptanceModel model(ins);
  Rng rng(1);
  const auto est = EstimateMinOuterPayment(model, {}, 10.0, {}, &rng);
  EXPECT_GT(est.payment, 10.0);
  EXPECT_EQ(est.reject_fraction, 1.0);
}

TEST(MinPaymentTest, NeverAcceptingWorkerQuotesAboveValue) {
  // History entirely above the request value: nobody accepts even v_r.
  const Instance ins = WorkersWithHistories({{50.0, 60.0}});
  const AcceptanceModel model(ins);
  Rng rng(2);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, {}, &rng);
  EXPECT_GT(est.payment, 10.0);
  EXPECT_EQ(est.reject_fraction, 1.0);
}

TEST(MinPaymentTest, AlwaysAcceptingWorkerQuotesNearZero) {
  // History at 0.01: the worker accepts essentially any payment, so the
  // bisection drives the quote to within xi * v of zero.
  const Instance ins = WorkersWithHistories({{0.01}});
  const AcceptanceModel model(ins);
  MinPaymentConfig config;
  config.xi = 0.05;
  Rng rng(3);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, config, &rng);
  EXPECT_LT(est.payment, 0.05 * 10.0 + 0.02);
  EXPECT_EQ(est.reject_fraction, 0.0);
}

TEST(MinPaymentTest, StepHistoryConvergesNearThreshold) {
  // Deterministic single-step ECDF at 4.0: the bisected value must land
  // within the xi * v tolerance band around 4.
  const Instance ins = WorkersWithHistories({{4.0}});
  const AcceptanceModel model(ins);
  MinPaymentConfig config;
  config.xi = 0.02;  // band = 0.2 on v = 10
  Rng rng(4);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, config, &rng);
  EXPECT_NEAR(est.payment, 4.0, 0.25);
}

TEST(MinPaymentTest, MoreCandidatesLowerTheQuote) {
  // One frugal worker among many raises the chance someone accepts cheap.
  const Instance one = WorkersWithHistories({{4.0, 8.0}});
  const Instance many = WorkersWithHistories(
      {{4.0, 8.0}, {2.0, 6.0}, {1.0, 9.0}, {3.0, 5.0}});
  MinPaymentConfig config;
  config.xi = 0.05;
  Rng rng1(5), rng2(5);
  const auto q_one =
      EstimateMinOuterPayment(AcceptanceModel(one), {0}, 10.0, config, &rng1);
  const auto q_many = EstimateMinOuterPayment(AcceptanceModel(many),
                                              {0, 1, 2, 3}, 10.0, config,
                                              &rng2);
  EXPECT_LT(q_many.payment, q_one.payment);
}

TEST(MinPaymentTest, QuoteIsMonotoneNonIncreasingInCandidateCount) {
  // Algorithm 2 property: adding candidates can only make the cheapest
  // acceptable payment easier to find. Step acceptance histories (one entry
  // per worker) make each worker's accept/reject deterministic in the probed
  // payment, so the bisection outcome depends only on the candidate set and
  // the quotes across growing prefixes must be non-increasing up to the
  // xi * v discretization band.
  const Instance ins = WorkersWithHistories({{8.0}, {6.0}, {4.0}, {2.0}});
  const AcceptanceModel model(ins);
  MinPaymentConfig config;
  config.xi = 0.02;  // band = 0.2 on v = 10
  const double band = config.xi * 10.0;
  double previous = 1e18;
  for (size_t count = 1; count <= 4; ++count) {
    std::vector<WorkerId> candidates;
    for (size_t i = 0; i < count; ++i) {
      candidates.push_back(static_cast<WorkerId>(i));
    }
    Rng rng(11);  // fresh stream per estimate: same draws, larger pool
    const auto est =
        EstimateMinOuterPayment(model, candidates, 10.0, config, &rng);
    EXPECT_LE(est.payment, previous + band)
        << "quote rose when candidate " << count - 1 << " joined";
    // The cheapest worker in the prefix bounds the quote from below.
    const double cheapest = 8.0 - 2.0 * (count - 1);
    EXPECT_GE(est.payment, cheapest - band - 1e-9);
    previous = est.payment;
  }
}

TEST(MinPaymentTest, QuoteWithinValueBandWhenSomeoneAccepts) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}});
  const AcceptanceModel model(ins);
  Rng rng(6);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, {}, &rng);
  EXPECT_GT(est.payment, 0.0);
  EXPECT_LE(est.payment, 10.0 + 1e-3 + 1e-12);
}

TEST(MinPaymentTest, DeterministicGivenSeed) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}, {2.0, 7.0}});
  const AcceptanceModel model(ins);
  Rng a(7), b(7);
  const auto ea = EstimateMinOuterPayment(model, {0, 1}, 10.0, {}, &a);
  const auto eb = EstimateMinOuterPayment(model, {0, 1}, 10.0, {}, &b);
  EXPECT_DOUBLE_EQ(ea.payment, eb.payment);
  EXPECT_DOUBLE_EQ(ea.reject_fraction, eb.reject_fraction);
}

TEST(MinPaymentTest, DefaultBudgetNeverBinds) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}});
  const AcceptanceModel model(ins);
  Rng rng(8);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, {}, &rng);
  EXPECT_FALSE(est.budget_exhausted);
  EXPECT_EQ(est.samples, MinPaymentConfig{}.SampleCount());
}

TEST(MinPaymentTest, TinyIterationBudgetCutsTheEstimateShort) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}});
  const AcceptanceModel model(ins);
  MinPaymentConfig config;
  config.max_bisect_iterations = 2;
  Rng rng(9);
  const auto est = EstimateMinOuterPayment(model, {0}, 10.0, config, &rng);
  EXPECT_TRUE(est.budget_exhausted);
  EXPECT_LE(est.bisect_iterations, 2);
  EXPECT_LE(est.samples, config.SampleCount());
  // The truncated estimate still averages over the samples actually run.
  EXPECT_GT(est.payment, 0.0);
  EXPECT_LE(est.payment, 10.0 + config.epsilon + 1e-12);
}

TEST(MinPaymentTest, DisabledIterationBudgetMatchesDefault) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}});
  const AcceptanceModel model(ins);
  MinPaymentConfig unbounded;
  unbounded.max_bisect_iterations = 0;  // explicit "no cap"
  Rng a(10), b(10);
  const auto ea = EstimateMinOuterPayment(model, {0}, 10.0, {}, &a);
  const auto eb = EstimateMinOuterPayment(model, {0}, 10.0, unbounded, &b);
  EXPECT_DOUBLE_EQ(ea.payment, eb.payment);
  EXPECT_EQ(ea.bisect_iterations, eb.bisect_iterations);
  EXPECT_FALSE(eb.budget_exhausted);
}

TEST(MinPaymentTest, TighterXiNarrowsSpread) {
  // With smaller xi the estimator's spread across seeds shrinks.
  const Instance ins = WorkersWithHistories({{4.0}});
  const AcceptanceModel model(ins);
  auto spread = [&](double xi) {
    MinPaymentConfig config;
    config.xi = xi;
    double lo = 1e18, hi = -1e18;
    for (uint64_t s = 0; s < 10; ++s) {
      Rng rng(s);
      const double p =
          EstimateMinOuterPayment(model, {0}, 10.0, config, &rng).payment;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    return hi - lo;
  };
  EXPECT_LE(spread(0.02), spread(0.3) + 1e-12);
}

}  // namespace
}  // namespace comx
