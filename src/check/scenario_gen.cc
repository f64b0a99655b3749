#include "check/scenario_gen.h"

#include <utility>

#include "core/dem_com.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"
#include "exp/sweep_runner.h"
#include "util/string_util.h"

namespace comx {
namespace check {

const char* MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kTota:
      return "tota";
    case MatcherKind::kDemCom:
      return "demcom";
    case MatcherKind::kRamCom:
      return "ramcom";
    case MatcherKind::kBatch:
      return "batch";
  }
  return "unknown";
}

std::unique_ptr<OnlineMatcher> MakeMatcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kTota:
      return std::make_unique<TotaGreedy>();
    case MatcherKind::kDemCom:
      return std::make_unique<DemCom>();
    case MatcherKind::kRamCom:
      return std::make_unique<RamCom>();
    case MatcherKind::kBatch:
      // Batch-mode runs never consult the per-platform matchers, but the
      // engine still Reset()s them; WindowGreedy shares the batch RNG
      // discipline so a window=0 run is its bit-identical twin.
      return std::make_unique<WindowGreedy>();
  }
  return nullptr;
}

SimConfig Scenario::MakeSimConfig(obs::TraceSink* trace, bool batch) const {
  SimConfig sim;
  sim.workers_recycle = workers_recycle;
  sim.acceptance_mode = acceptance_mode;
  sim.reservation_seed = reservation_seed;
  sim.speed_kmh = speed_kmh;
  sim.base_service_seconds = base_service_seconds;
  sim.service_seconds_per_value = service_seconds_per_value;
  // Latency measurement only adds clock reads; the oracles never look at
  // response times, so keep runs cheap and reproducible.
  sim.measure_response_time = false;
  sim.trace = trace;
  sim.fault_plan = with_fault_plan ? &fault_plan : nullptr;
  if (batch) {
    sim.batch_mode = true;
    sim.batch_window_seconds = batch_window_seconds;
    sim.batch.algo = batch_algo;
    sim.fault_plan = nullptr;  // batch mode refuses fault injection
  }
  return sim;
}

std::string Scenario::Describe() const {
  return StrFormat(
      "scenario_seed=%llu platforms=%d requests=%lld workers=%lld "
      "radius=%.3f imbalance=%.3f arrival=%s dist=%s history=[%d,%d] "
      "recycle=%d acceptance=%s reservation_seed=%llu speed=%.2f "
      "service=%.1f+%.2f/v fault_plan=%s gen_seed=%llu sim_seed=%llu "
      "batch_window=%.3f batch_algo=%s",
      static_cast<unsigned long long>(scenario_seed), gen.platforms,
      static_cast<long long>(gen.requests_per_platform[0]),
      static_cast<long long>(gen.workers_per_platform[0]), gen.radius_km,
      gen.imbalance,
      gen.arrival_process == ArrivalProcess::kIidDayCurve ? "iid" : "poisson",
      gen.value.distribution == ValueDistribution::kRealLike ? "real"
                                                             : "normal",
      gen.min_history, gen.max_history, workers_recycle ? 1 : 0,
      acceptance_mode == AcceptanceMode::kReservation ? "reservation"
                                                      : "bernoulli",
      static_cast<unsigned long long>(reservation_seed), speed_kmh,
      base_service_seconds, service_seconds_per_value,
      !with_fault_plan         ? "none"
      : fault_plan.Trivial()   ? "trivial"
                               : "active",
      static_cast<unsigned long long>(gen.seed),
      static_cast<unsigned long long>(sim_seed), batch_window_seconds,
      BatchAlgoName(batch_algo));
}

fault::FaultPlan DrawTrivialFaultPlan(Rng* rng, int32_t platforms) {
  fault::FaultPlan plan;
  // 53 bits only: plan seeds travel through a JSON double in repro files
  // and must round-trip exactly (see FaultPlanToJsonl).
  plan.seed = rng->NextUint64() >> 11;
  // Randomized resilience tuning: none of it may matter when no fault can
  // fire, which is exactly what the bit-exactness suite asserts.
  plan.retry.max_attempts = static_cast<int>(rng->UniformInt(1, 5));
  plan.retry.base_backoff_ms = rng->Uniform(1.0, 100.0);
  plan.retry.backoff_multiplier = rng->Uniform(1.0, 3.0);
  plan.retry.jitter_fraction = rng->Uniform(0.0, 0.5);
  plan.breaker.failure_threshold = static_cast<int>(rng->UniformInt(1, 10));
  plan.breaker.open_seconds = rng->Uniform(1.0, 600.0);
  plan.breaker.half_open_successes = static_cast<int>(rng->UniformInt(1, 4));
  for (PlatformId p = 0; p < platforms; ++p) {
    if (!rng->Bernoulli(0.7)) continue;  // unmentioned partners are trivial
    fault::PartnerFaultSpec spec;
    spec.partner = p;
    spec.availability = 1.0;
    spec.latency_ms_mean = 0.0;
    spec.timeout_ms = rng->Bernoulli(0.5) ? rng->Uniform(10.0, 500.0) : 0.0;
    spec.stale_probability = 0.0;
    plan.partners.push_back(spec);
  }
  return plan;
}

namespace {

fault::FaultPlan DrawActiveFaultPlan(Rng* rng, int32_t platforms) {
  fault::FaultPlan plan = DrawTrivialFaultPlan(rng, platforms);
  plan.partners.clear();
  for (PlatformId p = 0; p < platforms; ++p) {
    if (!rng->Bernoulli(0.8)) continue;
    fault::PartnerFaultSpec spec;
    spec.partner = p;
    spec.availability = rng->Uniform(0.6, 1.0);
    spec.stale_probability = rng->Uniform(0.0, 0.15);
    if (rng->Bernoulli(0.5)) {
      spec.latency_ms_mean = rng->Uniform(5.0, 120.0);
      spec.timeout_ms = rng->Uniform(50.0, 300.0);
    }
    if (rng->Bernoulli(0.3)) {
      fault::OutageWindow outage;
      outage.start = rng->Uniform(0.0, 40000.0);
      outage.end = outage.start + rng->Uniform(600.0, 20000.0);
      spec.outages.push_back(outage);
    }
    plan.partners.push_back(spec);
  }
  return plan;
}

}  // namespace

Scenario DrawScenario(uint64_t base_seed, uint64_t index) {
  Rng rng = exp::JobRng(base_seed, index);
  Scenario s;
  s.scenario_seed = exp::JobSeed(base_seed, index);

  // ~20% of scenarios are tiny two-platform instances sized for the
  // exhaustive OFF reference (<= 8 target requests x 8 workers overall);
  // the rest stress breadth.
  const bool tiny = rng.Bernoulli(0.2);
  if (tiny) {
    s.gen.platforms = 2;
    s.gen.requests_per_platform = {rng.UniformInt(0, 4)};
    s.gen.workers_per_platform = {rng.UniformInt(0, 4)};
  } else {
    s.gen.platforms = static_cast<int32_t>(rng.UniformInt(1, 3));
    s.gen.requests_per_platform = {rng.UniformInt(0, 40)};
    s.gen.workers_per_platform = {rng.UniformInt(0, 16)};
  }
  s.gen.radius_km = rng.Uniform(0.4, 3.0);
  s.gen.imbalance = rng.Uniform(0.0, 1.0);
  s.gen.arrival_process = rng.Bernoulli(0.5) ? ArrivalProcess::kIidDayCurve
                                             : ArrivalProcess::kPoisson;
  s.gen.value.distribution = rng.Bernoulli(0.5) ? ValueDistribution::kRealLike
                                                : ValueDistribution::kNormal;
  s.gen.min_history = static_cast<int32_t>(rng.UniformInt(1, 5));
  s.gen.max_history =
      s.gen.min_history + static_cast<int32_t>(rng.UniformInt(0, 15));
  s.gen.seed = rng.NextUint64();

  // Tiny scenarios always run in the differential regime (reservation
  // acceptance, strict 1-by-1) so the OFF oracles apply; the rest split
  // between the paper's Bernoulli mode and reservation mode.
  const bool reservation = tiny || rng.Bernoulli(0.35);
  s.acceptance_mode = reservation ? AcceptanceMode::kReservation
                                  : AcceptanceMode::kBernoulli;
  s.workers_recycle = reservation ? false : rng.Bernoulli(0.5);
  s.reservation_seed = rng.NextUint64();
  s.speed_kmh = rng.Uniform(10.0, 60.0);
  s.base_service_seconds = rng.Uniform(0.0, 900.0);
  s.service_seconds_per_value = rng.Uniform(0.0, 120.0);

  if (s.gen.platforms >= 2 && rng.Bernoulli(0.25)) {
    s.with_fault_plan = true;
    s.fault_plan = rng.Bernoulli(0.5)
                       ? DrawTrivialFaultPlan(&rng, s.gen.platforms)
                       : DrawActiveFaultPlan(&rng, s.gen.platforms);
  }
  s.sim_seed = rng.NextUint64();

  // Batch knobs last: every legacy field above consumes exactly the draws
  // it did before batch existed, so pre-batch repro files stay valid.
  s.batch_window_seconds =
      rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(5.0, 120.0);
  {
    constexpr BatchAlgo kAlgos[] = {BatchAlgo::kGreedy,
                                    BatchAlgo::kIncrementalKm};
    s.batch_algo = kAlgos[rng.UniformInt(0, 1)];
  }
  return s;
}

Result<Instance> BuildScenarioInstance(const Scenario& scenario) {
  COMX_RETURN_IF_ERROR(scenario.gen.Validate());
  COMX_ASSIGN_OR_RETURN(Instance instance,
                        GenerateSynthetic(scenario.gen));
  COMX_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

}  // namespace check
}  // namespace comx
