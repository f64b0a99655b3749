// replay_demcom / replay_ramcom: the SimEngine Init/Step/Finish loop over a
// whole synthetic day, in this process on one thread. The traced run wraps
// every matcher and the view it is handed in timing decorators; nothing
// inside the library is instrumented.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "pricing/mer_pricer.h"
#include "pricing/min_payment_estimator.h"
#include "sim/sim_engine.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using comx::Decision;
using comx::PlatformView;
using comx::Request;
using comx::Status;
using comx::StrFormat;
using comx::WorkerId;

/// What the traced decorators count, summed over both platforms.
struct LayerCounters {
  int64_t lookup_calls = 0;
  int64_t lookup_ns = 0;
  int64_t lookup_candidates = 0;
  int64_t inner_lookups = 0;
  int64_t inner_hits = 0;
  int64_t distance_calls = 0;
  int64_t distance_ns = 0;
  int64_t on_request_ns = 0;
  int64_t matcher_self_ns = 0;
  int64_t requests = 0;
  int64_t priced = 0;
  int64_t offers = 0;
  int64_t accepts = 0;
  int64_t bisect_iterations = 0;
};

/// Pricing input of one priced request, re-timed after the run.
struct PricedInput {
  double value = 0.0;
  std::vector<WorkerId> candidates;
  double payment = 0.0;
};

/// Delegating view that times the candidate lookups and distance calls.
class TimingView final : public PlatformView {
 public:
  TimingView(const PlatformView& inner, LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  std::vector<WorkerId> FeasibleInnerWorkers(const Request& r) const override {
    std::vector<WorkerId> ids = Lookup([&] { return inner_.FeasibleInnerWorkers(r); });
    ++counters_->inner_lookups;
    counters_->inner_hits += ids.empty() ? 0 : 1;
    return ids;
  }
  std::vector<WorkerId> FeasibleOuterWorkers(const Request& r) const override {
    last_outer_ = Lookup([&] { return inner_.FeasibleOuterWorkers(r); });
    return last_outer_;
  }
  double DistanceTo(WorkerId w, const Request& r) const override {
    const int64_t t0 = NowNanos();
    const double d = inner_.DistanceTo(w, r);
    CountDistance(NowNanos() - t0);
    return d;
  }
  void BatchDistanceTo(const std::vector<WorkerId>& ids, const Request& r,
                       std::vector<double>* out) const override {
    const int64_t t0 = NowNanos();
    inner_.BatchDistanceTo(ids, r, out);
    CountDistance(NowNanos() - t0);
  }
  const comx::Instance& instance() const override { return inner_.instance(); }
  const comx::AcceptanceModel& acceptance() const override {
    return inner_.acceptance();
  }

  int64_t view_ns() const { return view_ns_; }
  const std::vector<WorkerId>& last_outer() const { return last_outer_; }

 private:
  template <typename F>
  std::vector<WorkerId> Lookup(F&& lookup) const {
    const int64_t t0 = NowNanos();
    std::vector<WorkerId> ids = lookup();
    const int64_t dt = NowNanos() - t0;
    ++counters_->lookup_calls;
    counters_->lookup_ns += dt;
    counters_->lookup_candidates += static_cast<int64_t>(ids.size());
    view_ns_ += dt;
    return ids;
  }
  void CountDistance(int64_t dt) const {
    ++counters_->distance_calls;
    counters_->distance_ns += dt;
    view_ns_ += dt;
  }

  const PlatformView& inner_;
  LayerCounters* counters_;
  mutable int64_t view_ns_ = 0;
  mutable std::vector<WorkerId> last_outer_;
};

/// Delegating matcher: times OnRequest, hands the inner matcher a
/// TimingView, and records the inputs of every priced request.
class TimingMatcher final : public comx::OnlineMatcher {
 public:
  TimingMatcher(comx::OnlineMatcher* inner, LayerCounters* counters,
                std::vector<PricedInput>* priced)
      : inner_(inner), counters_(counters), priced_(priced) {}

  void Reset(const comx::Instance& instance, comx::PlatformId platform,
             uint64_t seed) override {
    inner_->Reset(instance, platform, seed);
  }
  Decision OnRequest(const Request& r, const PlatformView& view) override {
    TimingView timed(view, counters_);
    const int64_t t0 = NowNanos();
    Decision d = inner_->OnRequest(r, timed);
    const int64_t dt = NowNanos() - t0;
    counters_->on_request_ns += dt;
    counters_->matcher_self_ns += dt - timed.view_ns();
    ++counters_->requests;
    if (d.stats.priced_candidates >= 0) {
      ++counters_->priced;
      counters_->bisect_iterations += d.stats.bisect_iterations;
      priced_->push_back({r.value, timed.last_outer(), d.stats.estimated_payment});
    }
    if (d.attempted_outer) ++counters_->offers;
    if (d.kind == Decision::Kind::kOuter) ++counters_->accepts;
    return d;
  }
  std::string name() const override { return inner_->name(); }

 private:
  comx::OnlineMatcher* inner_;
  LayerCounters* counters_;
  std::vector<PricedInput>* priced_;
};

struct PassResult {
  double loop_s = 0.0;
  int64_t decisions = 0;
  int64_t rearrivals = 0;
  int64_t step_ns = 0;
  std::vector<double> latency_ns;  // one per decision, in step order
  comx::SimResult result;
};

comx::SimConfig ReplayConfig(const Prepared& prep) {
  comx::SimConfig sim;
  sim.measure_response_time = false;
  sim.acceptance = &*prep.model;
  return sim;
}

/// One full replay. With `counters` set, the matchers run behind the
/// timing decorators.
Status RunPass(const Prepared& prep, const std::string& algo,
               LayerCounters* counters, std::vector<PricedInput>* priced,
               PassResult* out) {
  std::vector<std::unique_ptr<comx::OnlineMatcher>> owned;
  std::vector<comx::OnlineMatcher*> matchers;
  for (int32_t p = 0; p < prep.instance.PlatformCount(); ++p) {
    owned.push_back(MakeMatcher(algo));
    matchers.push_back(owned.back().get());
    if (counters != nullptr) {
      owned.push_back(
          std::make_unique<TimingMatcher>(matchers.back(), counters, priced));
      matchers.back() = owned.back().get();
    }
  }
  comx::SimEngine engine;
  COMX_RETURN_IF_ERROR(
      engine.Init(prep.instance, matchers, ReplayConfig(prep), kSimSeed));
  out->latency_ns.reserve(prep.instance.requests().size());
  comx::StepRecord rec;
  const int64_t loop_t0 = NowNanos();
  while (!engine.Done()) {
    const int64_t t0 = NowNanos();
    COMX_RETURN_IF_ERROR(engine.Step(&rec));
    const int64_t dt = NowNanos() - t0;
    out->step_ns += dt;
    if (rec.kind == comx::StepRecord::Kind::kDecision) {
      out->latency_ns.push_back(static_cast<double>(dt));
      ++out->decisions;
    } else if (rec.rearrival) {
      ++out->rearrivals;
    }
  }
  out->loop_s = static_cast<double>(NowNanos() - loop_t0) / 1e9;
  out->result = engine.Finish();
  return Status::OK();
}

double Revenue(const PassResult& pass) {
  return pass.result.metrics.TotalRevenue();
}

double DecisionsPerSecond(const PassResult& pass) {
  return pass.loop_s > 0.0 ? static_cast<double>(pass.decisions) / pass.loop_s
                           : 0.0;
}

/// The output checks of one pass: feasibility audit, one decision per
/// request, and the pinned revenue where one is recorded.
void CheckPass(const Options& options, const Prepared& prep,
               const PassResult& pass, Report* report) {
  const Status audit =
      comx::AuditSimResult(prep.instance, ReplayConfig(prep), pass.result);
  report->Check(audit.ok(), "AuditSimResult: " + audit.ToString());
  const int64_t requests = static_cast<int64_t>(prep.instance.requests().size());
  report->Check(pass.decisions == requests,
                StrFormat("decisions %lld == requests %lld",
                          static_cast<long long>(pass.decisions),
                          static_cast<long long>(requests)));
  const std::optional<Pin> pin = PinnedValue(options, requests);
  if (pin) {
    report->Check(Revenue(pass) == pin->revenue &&
                      pass.decisions == pin->count,
                  StrFormat("revenue %.17g == pinned %.17g, decisions %lld == "
                            "pinned %lld",
                            Revenue(pass), pin->revenue,
                            static_cast<long long>(pass.decisions),
                            static_cast<long long>(pin->count)));
  } else {
    report->Info(StrFormat("no pinned revenue for seed %llu: revenue %.17g",
                           static_cast<unsigned long long>(options.seed),
                           Revenue(pass)));
  }
}


/// Re-times the pricing calls on the recorded inputs of the traced pass.
void RetimePricing(const Prepared& prep, const std::string& algo,
                   const std::vector<PricedInput>& priced, Report* report) {
  std::vector<double> quote_ns;
  std::vector<double> candidates;
  quote_ns.reserve(priced.size());
  candidates.reserve(priced.size());
  int64_t total_ns = 0;
  int64_t mismatched = 0;
  comx::Rng rng(kSimSeed);
  for (const PricedInput& in : priced) {
    candidates.push_back(static_cast<double>(in.candidates.size()));
    const int64_t t0 = NowNanos();
    if (algo == "ramcom") {
      const comx::MerQuote q =
          comx::ComputeMerQuote(*prep.model, in.candidates, in.value);
      mismatched += q.payment == in.payment ? 0 : 1;
    } else {
      const comx::MinPaymentEstimate e = comx::EstimateMinOuterPayment(
          *prep.model, in.candidates, in.value, comx::MinPaymentConfig{}, &rng);
      (void)e;
    }
    const int64_t dt = NowNanos() - t0;
    quote_ns.push_back(static_cast<double>(dt));
    total_ns += dt;
  }
  const bool mer = algo == "ramcom";
  const double n = static_cast<double>(priced.size());
  report->Set(mer ? "pricing.mer_quotes" : "pricing.minpay_estimates", n);
  report->Set(mer ? "pricing.mer_quote_s" : "pricing.minpay_s",
              static_cast<double>(total_ns) / 1e9);
  if (mer) report->Set("pricing.mer_quote_p99_us", Quantile(quote_ns, 0.99) / 1e3);
  double sum = 0.0;
  for (double c : candidates) sum += c;
  report->Set("pricing.candidates_mean", n > 0 ? sum / n : 0.0);
  report->Set("pricing.candidates_p99", Quantile(candidates, 0.99));
  if (mer) {
    report->Check(mismatched == 0,
                  StrFormat("re-timed MER quotes reproduce the recorded "
                            "payments (%lld of %zu differ)",
                            static_cast<long long>(mismatched), priced.size()));
  }
}

}  // namespace

Status RunReplay(const Options& options, Report* report) {
  const std::string algo =
      options.workload == "replay_ramcom" ? "ramcom" : "demcom";
  Prepared prep;
  std::vector<SetupTimes> setup;
  COMX_RETURN_IF_ERROR(Prepare(
      GenConfig(WorkloadSize(options.workload, options.tiny), options.seed),
      algo, 5, &prep, &setup));
  ReportSetup(setup, report);

  if (!options.trace) {
    // Each figure is the median over passes of that pass's value: the host
    // speed drifts on a scale of seconds, and a median over passes absorbs
    // a slow stretch that a pooled percentile would not.
    std::vector<double> rates, p50s, p99s;
    size_t samples = 0;
    double first_revenue = 0.0;
    bool reproducible = true;
    const int64_t start = NowNanos();
    for (int pass_index = 0;
         static_cast<double>(NowNanos() - start) / 1e9 < options.seconds;
         ++pass_index) {
      PassResult pass;
      COMX_RETURN_IF_ERROR(RunPass(prep, algo, nullptr, nullptr, &pass));
      report->attempted += pass.decisions;
      rates.push_back(DecisionsPerSecond(pass));
      p50s.push_back(Quantile(pass.latency_ns, 0.50) / 1e3);
      p99s.push_back(Quantile(pass.latency_ns, 0.99) / 1e3);
      samples += pass.latency_ns.size();
      if (pass_index == 0) {
        CheckPass(options, prep, pass, report);
        first_revenue = Revenue(pass);
      } else {
        reproducible = reproducible && Revenue(pass) == first_revenue;
      }
    }
    report->Check(reproducible,
                  StrFormat("%zu passes reproduce revenue bit-for-bit",
                            rates.size()));
    report->Set("decisions_per_s", Median(rates));
    report->Info(StrFormat("decisions_per_s: median %.1f over %zu passes",
                           Median(rates), rates.size()));
    report->Set("decision_p50_us", Median(p50s));
    report->Set("decision_p99_us", Median(p99s));
    report->Info(StrFormat("decision latency: median over passes of p50 %.3f us, "
                           "of p99 %.3f us (%zu decisions in all)",
                           Median(p50s), Median(p99s), samples));
    report->Set("revenue", first_revenue);
    report->Set("peak_rss_mb", PeakRssMb());
    return Status::OK();
  }

  // Traced run: one plain pass as the reference, one decorated pass.
  PassResult plain;
  COMX_RETURN_IF_ERROR(RunPass(prep, algo, nullptr, nullptr, &plain));
  CheckPass(options, prep, plain, report);
  LayerCounters c;
  std::vector<PricedInput> priced;
  PassResult traced;
  COMX_RETURN_IF_ERROR(RunPass(prep, algo, &c, &priced, &traced));
  report->attempted = plain.decisions + traced.decisions;
  report->Check(Revenue(traced) == Revenue(plain),
                StrFormat("traced revenue %.17g bit-equal to untraced %.17g",
                          Revenue(traced), Revenue(plain)));
  const double base = DecisionsPerSecond(plain);
  const double with = DecisionsPerSecond(traced);
  report->Info(StrFormat(
      "tracing overhead: decisions_per_s %.1f untraced vs %.1f traced "
      "(%+.1f%%); decision_p50_us %.3f vs %.3f; decision_p99_us %.3f vs %.3f",
      base, with, base > 0 ? 100.0 * (with - base) / base : 0.0,
      Quantile(plain.latency_ns, 0.5) / 1e3, Quantile(traced.latency_ns, 0.5) / 1e3,
      Quantile(plain.latency_ns, 0.99) / 1e3,
      Quantile(traced.latency_ns, 0.99) / 1e3));

  const auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report->Set("sim.lookup_calls", static_cast<double>(c.lookup_calls));
  report->Set("sim.lookup_s", static_cast<double>(c.lookup_ns) / 1e9);
  report->Set("sim.lookup_candidates_mean",
              ratio(c.lookup_candidates, c.lookup_calls));
  report->Set("sim.inner_hit_ratio", ratio(c.inner_hits, c.inner_lookups));
  report->Set("sim.distance_calls", static_cast<double>(c.distance_calls));
  report->Set("sim.distance_s", static_cast<double>(c.distance_ns) / 1e9);
  report->Set("sim.step_s", static_cast<double>(traced.step_ns) / 1e9);
  report->Set("sim.commit_self_s",
              static_cast<double>(traced.step_ns - c.on_request_ns) / 1e9);
  report->Set("sim.rearrivals", static_cast<double>(traced.rearrivals));
  report->Set("core.matcher_self_s", static_cast<double>(c.matcher_self_ns) / 1e9);
  report->Set("core.outer_share", ratio(c.priced, c.requests));
  report->Set("pricing.bisect_iterations", static_cast<double>(c.bisect_iterations));
  report->Set("pricing.offer_accept_ratio", ratio(c.accepts, c.offers));
  RetimePricing(prep, algo, priced, report);
  return Status::OK();
}

}  // namespace perfbench
