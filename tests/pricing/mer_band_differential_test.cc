// Differential test: ComputeMerQuote scans only the live band of the
// payment grid; the full-scan referee below scans all of it. Every quote
// must agree bit for bit — payment, acceptance probability and expected
// revenue compared with ==, not a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz_driver.h"
#include "check/scenario_gen.h"
#include "pricing/mer_pricer.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeWorker;

// The referee: the MER argmax over the whole payment grid, every
// candidate's ECDF merge-walked over every grid point. Keep this a plain,
// obviously-correct scan.
MerQuote FullScanMerQuote(const AcceptanceModel& model,
                          const std::vector<WorkerId>& candidates,
                          double request_value) {
  constexpr int kMaxGridPoints = 4096;
  constexpr int kHistoryPicksPerWorker = 32;
  MerQuote best;
  if (candidates.empty() || request_value <= 0.0) return best;

  // Evenly spaced points + each candidate's history picks in (0, v] + v.
  std::vector<double> grid;
  const int int_points = static_cast<int>(
      std::min<double>(kMaxGridPoints, std::floor(request_value)));
  const double step =
      int_points > 0 ? request_value / static_cast<double>(int_points + 1)
                     : request_value;
  for (int i = 1; i <= int_points; ++i) {
    grid.push_back(step * static_cast<double>(i));
  }
  grid.push_back(request_value);
  for (WorkerId w : candidates) {
    const auto& hist = model.HistoryOf(w).values();
    const int take =
        std::min<int>(kHistoryPicksPerWorker, static_cast<int>(hist.size()));
    for (int i = 0; i < take; ++i) {
      const size_t idx = hist.size() <= 1
                             ? 0
                             : (static_cast<size_t>(i) * (hist.size() - 1)) /
                                   static_cast<size_t>(std::max(1, take - 1));
      const double v = hist[idx];
      if (v > 0.0 && v <= request_value) grid.push_back(v);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<double> none(grid.size(), 1.0);
  std::vector<double> probs(grid.size());
  for (WorkerId w : candidates) {
    model.ecdf().EvaluateAscending(w, grid.data(), grid.size(), probs.data());
    for (size_t g = 0; g < grid.size(); ++g) none[g] *= 1.0 - probs[g];
  }
  for (size_t g = 0; g < grid.size(); ++g) {
    const double p = grid[g];
    const double pr = none[g] == 0.0 ? 1.0 : 1.0 - none[g];
    const double expected = (request_value - p) * pr;
    if (expected > best.expected_revenue) {
      best.expected_revenue = expected;
      best.payment = p;
      best.accept_probability = pr;
    }
  }
  if (best.payment == 0.0) {
    best.payment = request_value;
    best.accept_probability =
        model.GroupAcceptProbability(candidates, request_value);
    best.expected_revenue = 0.0;
  }
  return best;
}

void ExpectBitEqual(const MerQuote& band, const MerQuote& full,
                    const std::string& context) {
  EXPECT_EQ(band.payment, full.payment) << context;
  EXPECT_EQ(band.accept_probability, full.accept_probability) << context;
  EXPECT_EQ(band.expected_revenue, full.expected_revenue) << context;
}

// Quotes with both scans and compares them; returns the banded quote.
MerQuote QuoteBoth(const AcceptanceModel& model,
                   const std::vector<WorkerId>& candidates, double v) {
  const MerQuote band = ComputeMerQuote(model, candidates, v);
  const MerQuote full = FullScanMerQuote(model, candidates, v);
  std::string context = "v=" + std::to_string(v) + " candidates={";
  for (WorkerId w : candidates) context += std::to_string(w) + ",";
  ExpectBitEqual(band, full, context + "}");
  return band;
}

Instance WorkersWithHistories(
    const std::vector<std::vector<double>>& histories) {
  Instance ins;
  for (const auto& h : histories) {
    ins.AddWorker(MakeWorker(0, 1, 0, 0, 1, h));
  }
  ins.BuildEvents();
  return ins;
}

// ---------------------------------------------------------------------------
// Hand cases: each edge of the band argument.

TEST(MerBandDifferentialTest, EmptyHistories) {
  const Instance ins = WorkersWithHistories({{}, {}, {3.0, 7.0}});
  const AcceptanceModel model(ins);
  for (double v : {0.5, 5.0, 10.0}) {
    QuoteBoth(model, {0}, v);
    QuoteBoth(model, {0, 1}, v);
    QuoteBoth(model, {0, 2, 1}, v);
    QuoteBoth(model, {2, 0}, v);
  }
}

TEST(MerBandDifferentialTest, DuplicateCandidateIds) {
  const Instance ins =
      WorkersWithHistories({{2.0, 4.0, 6.0}, {3.5, 5.0}, {1.0, 9.0}});
  const AcceptanceModel model(ins);
  for (double v : {4.5, 8.0, 12.0}) {
    QuoteBoth(model, {0, 0}, v);
    QuoteBoth(model, {1, 0, 1}, v);
    QuoteBoth(model, {2, 2, 2, 0}, v);
  }
}

TEST(MerBandDifferentialTest, SingleValueHistories) {
  const Instance ins = WorkersWithHistories({{4.0}, {2.5}, {4.0}, {7.0}});
  const AcceptanceModel model(ins);
  for (double v : {2.5, 3.0, 4.0, 6.0, 10.0}) {
    QuoteBoth(model, {0}, v);
    QuoteBoth(model, {0, 1, 2, 3}, v);
    QuoteBoth(model, {3, 2}, v);
  }
}

TEST(MerBandDifferentialTest, ValueBelowEveryMinimum) {
  const Instance ins = WorkersWithHistories({{5.0, 6.0}, {8.0, 9.5}});
  const AcceptanceModel model(ins);
  const MerQuote q = QuoteBoth(model, {0, 1}, 4.0);
  EXPECT_EQ(q.payment, 4.0);
  EXPECT_EQ(q.expected_revenue, 0.0);
}

TEST(MerBandDifferentialTest, ValueAboveEveryMaximum) {
  const Instance ins = WorkersWithHistories({{1.5, 2.0}, {1.0, 3.0, 4.0}});
  const AcceptanceModel model(ins);
  for (double v : {10.0, 100.0, 1000.5}) QuoteBoth(model, {0, 1}, v);
}

TEST(MerBandDifferentialTest, ValueExactlyAtHi) {
  // hi = min over the maxima = 6.0.
  const Instance ins =
      WorkersWithHistories({{2.0, 3.0, 6.0}, {1.0, 4.0, 8.0}});
  const AcceptanceModel model(ins);
  QuoteBoth(model, {0, 1}, 6.0);
  QuoteBoth(model, {1, 0}, 6.0);
  QuoteBoth(model, {0}, 6.0);
}

TEST(MerBandDifferentialTest, OneCandidate) {
  const Instance ins =
      WorkersWithHistories({{0.5, 0.8, 1.5, 2.5, 3.2, 3.4, 3.6, 3.8, 4.5}});
  const AcceptanceModel model(ins);
  for (double v : {0.7, 1.0, 3.3, 6.0, 9.0}) QuoteBoth(model, {0}, v);
}

TEST(MerBandDifferentialTest, GridCapBinds) {
  std::vector<double> low, high;
  for (int j = 0; j < 40; ++j) {
    low.push_back(3000.0 + 17.0 * j);
    high.push_back(4500.0 + 91.0 * j);
  }
  const Instance ins = WorkersWithHistories({low, high, {5000.0}});
  const AcceptanceModel model(ins);
  for (double v : {4097.0, 5000.0, 9000.0, 123456.0}) {
    QuoteBoth(model, {0, 1, 2}, v);
    QuoteBoth(model, {1, 2}, v);
  }
}

// Seeded candidate sets on a coarse value lattice, so history values often
// coincide with grid points, with v and with each other.
TEST(MerBandDifferentialTest, SeededLatticeCandidateSets) {
  Rng rng(1205);
  std::vector<std::vector<double>> histories;
  for (int w = 0; w < 60; ++w) {
    std::vector<double> h;
    const int64_t len = rng.UniformInt(0, 80);
    for (int64_t i = 0; i < len; ++i) {
      h.push_back(0.5 * static_cast<double>(rng.UniformInt(1, 40)));
    }
    histories.push_back(std::move(h));
  }
  const Instance ins = WorkersWithHistories(histories);
  const AcceptanceModel model(ins);
  for (int q = 0; q < 2000; ++q) {
    std::vector<WorkerId> cands;
    const int64_t k = rng.UniformInt(1, 12);
    for (int64_t i = 0; i < k; ++i) cands.push_back(rng.UniformInt(0, 59));
    QuoteBoth(model, cands, 0.5 * static_cast<double>(rng.UniformInt(1, 48)));
  }
}

// ---------------------------------------------------------------------------
// Every priced request of RamCOM runs over fuzz-harness scenarios.

// Delegating view that remembers the last outer candidate set it returned.
class RecordingView final : public PlatformView {
 public:
  explicit RecordingView(const PlatformView& inner) : inner_(inner) {}

  std::vector<WorkerId> FeasibleInnerWorkers(const Request& r) const override {
    return inner_.FeasibleInnerWorkers(r);
  }
  std::vector<WorkerId> FeasibleOuterWorkers(const Request& r) const override {
    last_outer_ = inner_.FeasibleOuterWorkers(r);
    return last_outer_;
  }
  double DistanceTo(WorkerId w, const Request& r) const override {
    return inner_.DistanceTo(w, r);
  }
  void BatchDistanceTo(const std::vector<WorkerId>& ids, const Request& r,
                       std::vector<double>* out) const override {
    inner_.BatchDistanceTo(ids, r, out);
  }
  const Instance& instance() const override { return inner_.instance(); }
  const AcceptanceModel& acceptance() const override {
    return inner_.acceptance();
  }

  const std::vector<WorkerId>& last_outer() const { return last_outer_; }

 private:
  const PlatformView& inner_;
  mutable std::vector<WorkerId> last_outer_;
};

// Wraps RamCOM and re-prices each request it priced with both scans.
class DifferentialMatcher final : public OnlineMatcher {
 public:
  DifferentialMatcher(std::unique_ptr<OnlineMatcher> inner, int64_t* priced)
      : inner_(std::move(inner)), priced_(priced) {}

  void Reset(const Instance& instance, PlatformId platform,
             uint64_t seed) override {
    inner_->Reset(instance, platform, seed);
  }
  Decision OnRequest(const Request& r, const PlatformView& view) override {
    RecordingView recording(view);
    Decision d = inner_->OnRequest(r, recording);
    if (d.stats.priced_candidates >= 0) {
      ++*priced_;
      const MerQuote q =
          QuoteBoth(view.acceptance(), recording.last_outer(), r.value);
      EXPECT_EQ(q.payment, d.stats.estimated_payment);
    }
    return d;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<OnlineMatcher> inner_;
  int64_t* priced_;
};

TEST(MerBandDifferentialTest, EveryPricedRequestOfFuzzScenarios) {
  int64_t priced = 0;
  const check::MatcherWrapper wrap =
      [&priced](check::MatcherKind, std::unique_ptr<OnlineMatcher> m) {
        return std::make_unique<DifferentialMatcher>(std::move(m), &priced);
      };
  for (uint64_t i = 0; i < 300; ++i) {
    check::Scenario scenario = check::DrawScenario(2020, i);
    // Cooperation needs a partner platform to borrow from.
    if (scenario.gen.platforms < 2) scenario.gen.platforms = 2;
    auto instance = check::BuildScenarioInstance(scenario);
    ASSERT_TRUE(instance.ok()) << scenario.Describe();
    auto run = check::RunMatcherOnInstance(check::MatcherKind::kRamCom,
                                           scenario, *instance, wrap);
    ASSERT_TRUE(run.ok()) << scenario.Describe();
  }
  EXPECT_GT(priced, 1000);
}

}  // namespace
}  // namespace comx
