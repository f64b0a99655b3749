// Differential test: EstimateMinOuterPayment memoizes the acceptance
// probabilities of each bisection tree node and draws only for candidates
// with 0 < p < 1; the referee below is the plain loop that evaluates every
// candidate at every midpoint. Every estimate must agree bit for bit —
// payment, reject fraction, iteration and sample counts, the budget flag
// and the caller's Rng state afterwards, all compared with ==.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz_driver.h"
#include "check/scenario_gen.h"
#include "pricing/min_payment_estimator.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace comx {
namespace {

using testing_fixtures::MakeWorker;

// The referee: Algorithm 2 with one ECDF batch pass per bisection step and
// one Bernoulli draw per candidate with 0 < p < 1. Keep this a plain,
// obviously-correct loop.
bool RefereeAnyoneAccepts(const std::vector<double>& probs, Rng* rng) {
  bool any = false;
  for (double p : probs) {
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      any = true;
      continue;
    }
    any = (rng->NextDouble() < p) || any;
  }
  return any;
}

MinPaymentEstimate RefereeEstimate(const AcceptanceModel& model,
                                   const std::vector<WorkerId>& candidates,
                                   double request_value,
                                   const MinPaymentConfig& config, Rng* rng) {
  MinPaymentEstimate out;
  if (candidates.empty()) {
    out.payment = request_value + config.epsilon;
    out.reject_fraction = 1.0;
    return out;
  }
  const size_t n_c = candidates.size();
  std::vector<double> probs_value(n_c);
  std::vector<double> probs_mid(n_c);
  model.ecdf().BatchEvaluate(candidates.data(), n_c, request_value,
                             probs_value.data());
  double sum = 0.0;
  int rejects = 0;
  for (int s = 0; s < config.SampleCount(); ++s) {
    ++out.samples;
    if (!RefereeAnyoneAccepts(probs_value, rng)) {
      sum += request_value + config.epsilon;
      ++rejects;
      continue;
    }
    double v_l = 0.0;
    double v_h = request_value;
    double v_m = 0.5 * v_h;
    while (v_m - v_l > config.xi * request_value) {
      if (config.max_bisect_iterations > 0 &&
          out.bisect_iterations >= config.max_bisect_iterations) {
        out.budget_exhausted = true;
        break;
      }
      ++out.bisect_iterations;
      model.ecdf().BatchEvaluate(candidates.data(), n_c, v_m,
                                 probs_mid.data());
      if (RefereeAnyoneAccepts(probs_mid, rng)) {
        v_h = v_m;
      } else {
        v_l = v_m;
      }
      v_m = 0.5 * (v_h - v_l) + v_l;
    }
    sum += v_m;
    if (out.budget_exhausted) break;
  }
  out.payment = sum / static_cast<double>(out.samples);
  out.reject_fraction =
      static_cast<double>(rejects) / static_cast<double>(out.samples);
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Estimates with both loops from the same Rng state and compares every
// output and the Rng state each leaves behind; returns the estimate.
MinPaymentEstimate EstimateBoth(const AcceptanceModel& model,
                                const std::vector<WorkerId>& candidates,
                                double v, const MinPaymentConfig& config,
                                uint64_t seed) {
  Rng memo_rng(seed);
  Rng referee_rng(seed);
  const MinPaymentEstimate memo =
      EstimateMinOuterPayment(model, candidates, v, config, &memo_rng);
  const MinPaymentEstimate referee =
      RefereeEstimate(model, candidates, v, config, &referee_rng);
  std::string context = "v=" + std::to_string(v) +
                        " xi=" + std::to_string(config.xi) +
                        " eta=" + std::to_string(config.eta) +
                        " cap=" + std::to_string(config.max_bisect_iterations) +
                        " seed=" + std::to_string(seed) + " candidates={";
  for (WorkerId w : candidates) context += std::to_string(w) + ",";
  context += "}";
  // Bit comparison so that a NaN payment on both sides still agrees.
  EXPECT_TRUE(SameBits(memo.payment, referee.payment))
      << context << " memo=" << memo.payment << " referee=" << referee.payment;
  EXPECT_TRUE(SameBits(memo.reject_fraction, referee.reject_fraction))
      << context;
  EXPECT_EQ(memo.bisect_iterations, referee.bisect_iterations) << context;
  EXPECT_EQ(memo.samples, referee.samples) << context;
  EXPECT_EQ(memo.budget_exhausted, referee.budget_exhausted) << context;
  const Rng::State a = memo_rng.SaveState();
  const Rng::State b = referee_rng.SaveState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << context;
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal) << context;
  return memo;
}

// The configuration grid of the sweep: five tolerances (1e-6 bisects ~20
// levels, far below the memoized ones), two failure bounds and four
// iteration caps (2 and 5 cut a sample mid-path, 0 disables the cap).
std::vector<MinPaymentConfig> ConfigGrid() {
  std::vector<MinPaymentConfig> grid;
  for (double xi : {0.1, 0.3, 0.05, 0.01, 1e-6}) {
    for (double eta : {0.5, 1.0}) {
      for (int64_t cap : {MinPaymentConfig{}.max_bisect_iterations,
                          int64_t{0}, int64_t{2}, int64_t{5}}) {
        MinPaymentConfig config;
        config.xi = xi;
        config.eta = eta;
        config.max_bisect_iterations = cap;
        grid.push_back(config);
      }
    }
  }
  return grid;
}

// Runs the whole configuration grid on one input.
void EstimateGrid(const AcceptanceModel& model,
                  const std::vector<WorkerId>& candidates, double v,
                  uint64_t seed) {
  for (const MinPaymentConfig& config : ConfigGrid()) {
    EstimateBoth(model, candidates, v, config, seed);
  }
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
// Hand cases: each edge of the memo and compaction argument.

TEST(MinPaymentMemoDifferentialTest, EmptyCandidates) {
  const Instance ins = WorkersWithHistories({{5.0}});
  const AcceptanceModel model(ins);
  const MinPaymentEstimate est = EstimateBoth(model, {}, 10.0, {}, 1);
  EXPECT_EQ(est.samples, 0);
}

TEST(MinPaymentMemoDifferentialTest, DuplicateCandidateIds) {
  const Instance ins =
      WorkersWithHistories({{2.0, 4.0, 6.0}, {3.5, 5.0}, {1.0, 9.0}});
  const AcceptanceModel model(ins);
  for (double v : {4.5, 8.0, 12.0}) {
    EstimateGrid(model, {0, 0}, v, 2);
    EstimateGrid(model, {1, 0, 1}, v, 3);
    EstimateGrid(model, {2, 2, 2, 0}, v, 4);
  }
}

TEST(MinPaymentMemoDifferentialTest, EmptyHistories) {
  const Instance ins = WorkersWithHistories({{}, {}, {3.0, 7.0}});
  const AcceptanceModel model(ins);
  for (double v : {0.5, 5.0, 10.0}) {
    EstimateGrid(model, {0}, v, 5);
    EstimateGrid(model, {0, 1}, v, 6);
    EstimateGrid(model, {0, 2, 1}, v, 7);
  }
}

TEST(MinPaymentMemoDifferentialTest, NobodyAcceptsTheFullValue) {
  // Every p is 0 at v: no draw at all, every instance rejects.
  const Instance ins = WorkersWithHistories({{50.0, 60.0}, {20.0}});
  const AcceptanceModel model(ins);
  const MinPaymentEstimate est = EstimateBoth(model, {0, 1}, 10.0, {}, 8);
  EXPECT_EQ(est.reject_fraction, 1.0);
  EXPECT_EQ(est.bisect_iterations, 0);
  EstimateGrid(model, {0, 1}, 10.0, 8);
}

TEST(MinPaymentMemoDifferentialTest, CertainAcceptanceAtAMidpoint) {
  // Worker 0 accepts anything from 2.0 on (p = 1 at the midpoints 5, 2.5,
  // ...), worker 1 is uncertain everywhere in (1, 9): the certain flag
  // and the uncertain draws share one memo entry.
  const Instance ins = WorkersWithHistories({{2.0}, {1.0, 3.0, 5.0, 9.0}});
  const AcceptanceModel model(ins);
  EstimateGrid(model, {0, 1}, 10.0, 9);
  EstimateGrid(model, {1, 0}, 10.0, 10);
  EstimateGrid(model, {0}, 10.0, 11);
}

TEST(MinPaymentMemoDifferentialTest, ValueBelowEveryMinimum) {
  const Instance ins = WorkersWithHistories({{5.0, 6.0}, {8.0, 9.5}});
  const AcceptanceModel model(ins);
  EstimateGrid(model, {0, 1}, 4.0, 12);
}

TEST(MinPaymentMemoDifferentialTest, ValueAboveEveryMaximum) {
  const Instance ins = WorkersWithHistories({{1.5, 2.0}, {1.0, 3.0, 4.0}});
  const AcceptanceModel model(ins);
  for (double v : {10.0, 100.0, 1000.5}) EstimateGrid(model, {0, 1}, v, 13);
}

TEST(MinPaymentMemoDifferentialTest, DegenerateSampleCounts) {
  // xi >= 2 and eta = 0 hit the SampleCount() clamp; xi = 2 with eta = 0
  // would run INT_MAX instances, so eta = 0 is paired with a tiny cap.
  const Instance ins = WorkersWithHistories({{3.0, 6.0, 9.0}, {2.0, 7.0}});
  const AcceptanceModel model(ins);
  for (double xi : {2.0, 3.0}) {
    MinPaymentConfig config;
    config.xi = xi;
    EXPECT_EQ(EstimateBoth(model, {0, 1}, 10.0, config, 14).samples, 1);
  }
  MinPaymentConfig config;
  config.eta = 0.0;
  config.max_bisect_iterations = 5;
  EstimateBoth(model, {0, 1}, 10.0, config, 15);
}

// Seeded candidate sets on a coarse value lattice, so history values often
// coincide with midpoints (v is a multiple of 0.5, its halvings land on
// the lattice) and with each other.
TEST(MinPaymentMemoDifferentialTest, SeededLatticeCandidateSets) {
  Rng rng(1406);
  std::vector<std::vector<double>> histories;
  for (int w = 0; w < 60; ++w) {
    std::vector<double> h;
    const int64_t len = rng.UniformInt(0, 40);
    for (int64_t i = 0; i < len; ++i) {
      h.push_back(0.5 * static_cast<double>(rng.UniformInt(1, 40)));
    }
    histories.push_back(std::move(h));
  }
  const Instance ins = WorkersWithHistories(histories);
  const AcceptanceModel model(ins);
  const std::vector<MinPaymentConfig> grid = ConfigGrid();
  for (int q = 0; q < 1200; ++q) {
    std::vector<WorkerId> cands;
    const int64_t k = rng.UniformInt(1, 16);
    for (int64_t i = 0; i < k; ++i) cands.push_back(rng.UniformInt(0, 59));
    const double v = 0.5 * static_cast<double>(rng.UniformInt(1, 48));
    EstimateBoth(model, cands, v, grid[static_cast<size_t>(q) % grid.size()],
                 static_cast<uint64_t>(q));
  }
}

// ---------------------------------------------------------------------------
// Every priced request of DemCOM runs over fuzz-harness scenarios.

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

// Wraps DemCOM and re-estimates each request it priced with both loops:
// once with the default configuration and once with the next entry of the
// configuration grid, each from a fresh per-request seed.
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
      const uint64_t seed = static_cast<uint64_t>(++*priced_);
      EXPECT_EQ(static_cast<size_t>(d.stats.priced_candidates),
                recording.last_outer().size());
      EstimateBoth(view.acceptance(), recording.last_outer(), r.value, {},
                   seed);
      EstimateBoth(view.acceptance(), recording.last_outer(), r.value,
                   grid_[seed % grid_.size()], seed);
    }
    return d;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<OnlineMatcher> inner_;
  int64_t* priced_;
  const std::vector<MinPaymentConfig> grid_ = ConfigGrid();
};

TEST(MinPaymentMemoDifferentialTest, EveryPricedRequestOfFuzzScenarios) {
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
    auto run = check::RunMatcherOnInstance(check::MatcherKind::kDemCom,
                                           scenario, *instance, wrap);
    ASSERT_TRUE(run.ok()) << scenario.Describe();
  }
  EXPECT_GT(priced, 1000);
}

}  // namespace
}  // namespace comx
