#include "pricing/mer_pricer.h"

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

TEST(MerPricerTest, EmptyCandidatesZeroQuote) {
  const Instance ins = WorkersWithHistories({{5.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {}, 10.0);
  EXPECT_EQ(q.payment, 0.0);
  EXPECT_EQ(q.expected_revenue, 0.0);
}

TEST(MerPricerTest, SingleStepWorkerPricedAtThreshold) {
  // Worker accepts iff p >= 4 (prob 1). Expected revenue (10 - p) * 1 is
  // maximized at the smallest accepted payment: exactly 4.
  const Instance ins = WorkersWithHistories({{4.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 4.0);
  EXPECT_DOUBLE_EQ(q.accept_probability, 1.0);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 6.0);
}

TEST(MerPricerTest, PaperExampleThreeDistribution) {
  // Example 3 of the paper: payments with acceptance probabilities
  // {0.9, 0.8, 0.4, 0.3, 0.2} at platform revenues {1, 2, 3, 4, 5}; the
  // maximum expected revenue is 2 * 0.8 = 1.6 at revenue 2 (payment 4 on
  // v = 6). Histories realizing that ECDF for payments {1..5}: a worker
  // with 10 history entries crossing at the right counts.
  // ECDF(p) for candidate payments p = v - rev: p=5 -> 0.9, p=4 -> 0.8,
  // p=3 -> 0.4, p=2 -> 0.3, p=1 -> 0.2.
  const std::vector<double> hist = {0.9, 0.9, 1.8, 2.7, 2.7, 2.7, 2.7,
                                    3.6, 4.5, 5.4};
  // ECDF: <=1 : 2/10=0.2, <=2: 3/10=0.3, <=3: 7/10=0.7? That breaks the
  // target; instead hand-build: 2 entries <=1, 1 in (1,2], 1 in (2,3],
  // 4 in (3,4], 1 in (4,5], 1 above 5.
  const std::vector<double> hist2 = {0.5, 0.8, 1.5, 2.5, 3.2, 3.4,
                                     3.6, 3.8, 4.5, 8.0};
  (void)hist;
  Instance ins = WorkersWithHistories({hist2});
  const AcceptanceModel model(ins);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 1.0), 0.2);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 2.0), 0.3);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 3.0), 0.4);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 4.0), 0.8);
  EXPECT_DOUBLE_EQ(model.AcceptProbability(0, 5.0), 0.9);

  const MerQuote q = ComputeMerQuote(model, {0}, 6.0);
  // Over the integer payments the paper's best quote is p = 4: (6-4)*0.8 =
  // 1.6 vs p=5: 0.9, p=3: 1.2, p=2: 1.2, p=1: 1.0. The pricer's grid is not
  // those integers but 6*i/7 for i = 1..6, plus v and the history values
  // <= v; the history value 3.8 reaches the same 0.8 at a lower payment,
  // so the quote does at least as well (1.76).
  EXPECT_GE(q.expected_revenue, 1.6);
  EXPECT_DOUBLE_EQ(q.accept_probability,
                   model.AcceptProbability(0, q.payment));
}

TEST(MerPricerTest, HistoryCandidatesBeatCoarseGrid) {
  // The optimum sits just at a history value between grid points.
  const Instance ins = WorkersWithHistories({{2.5}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 2.5);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 7.5);
}

TEST(MerPricerTest, NeverQuotesAboveValue) {
  const Instance ins = WorkersWithHistories({{1.0, 5.0, 20.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_LE(q.payment, 10.0);
  EXPECT_GE(q.payment, 0.0);
}

TEST(MerPricerTest, HopelessWorkersQuoteValueWithZeroRevenue) {
  const Instance ins = WorkersWithHistories({{100.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 10.0);
  EXPECT_DOUBLE_EQ(q.payment, 10.0);
  EXPECT_DOUBLE_EQ(q.expected_revenue, 0.0);
  EXPECT_DOUBLE_EQ(q.accept_probability, 0.0);
}

TEST(MerPricerTest, MoreWorkersWeaklyIncreaseExpectedRevenue) {
  const Instance ins = WorkersWithHistories(
      {{4.0, 8.0}, {2.0, 6.0}, {5.0, 7.0}});
  const AcceptanceModel model(ins);
  const MerQuote q1 = ComputeMerQuote(model, {0}, 10.0);
  const MerQuote q3 = ComputeMerQuote(model, {0, 1, 2}, 10.0);
  EXPECT_GE(q3.expected_revenue + 1e-12, q1.expected_revenue);
}

TEST(MerPricerTest, QuoteIsGridOptimal) {
  // Verify argmax over a dense re-evaluation of the objective.
  const Instance ins = WorkersWithHistories(
      {{1.5, 3.0, 4.5, 6.0}, {2.0, 2.5, 7.0}});
  const AcceptanceModel model(ins);
  const std::vector<WorkerId> cands{0, 1};
  const double v = 8.0;
  const MerQuote q = ComputeMerQuote(model, cands, v);
  for (double p = 0.05; p <= v; p += 0.05) {
    const double e = (v - p) * model.GroupAcceptProbability(cands, p);
    EXPECT_LE(e, q.expected_revenue + 1e-9) << "p=" << p;
  }
}

TEST(MerPricerTest, ValueAboveIntMaxKeepsTheGrid) {
  // Regression: the grid cap used to be applied after an int cast of
  // floor(v), which is undefined for v > INT_MAX (on x86 it gave INT_MIN
  // and the evenly spaced points vanished, quoting 1e9+60 at pr 61/64).
  // Above and below INT_MAX the quote must be the evenly spaced point just
  // past 1e9+61, accepted by 62 of the 64 history values.
  std::vector<double> hist;
  for (int j = 0; j < 62; ++j) hist.push_back(1e9 + j);
  hist.push_back(2.0e9);
  hist.push_back(2.05e9);
  const Instance ins = WorkersWithHistories({hist});
  const AcceptanceModel model(ins);
  for (double v : {2.1e9, 2.2e9}) {
    const MerQuote q = ComputeMerQuote(model, {0}, v);
    const double step = v / 4097.0;
    EXPECT_GT(q.payment, 1e9 + 61) << "v=" << v;
    EXPECT_LE(q.payment, 1e9 + 61 + step) << "v=" << v;
    EXPECT_EQ(q.accept_probability, 62.0 / 64.0) << "v=" << v;
  }
}

TEST(MerPricerTest, ExpectedRevenueConsistent) {
  const Instance ins = WorkersWithHistories({{3.0, 6.0}});
  const AcceptanceModel model(ins);
  const MerQuote q = ComputeMerQuote(model, {0}, 9.0);
  EXPECT_NEAR(q.expected_revenue,
              (9.0 - q.payment) * q.accept_probability, 1e-12);
}

}  // namespace
}  // namespace comx
