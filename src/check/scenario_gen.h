// ScenarioGen: the seeded random instance generator of the correctness
// harness. A scenario bundles everything one fuzz run needs — a synthetic
// workload config, the simulation physics knobs, the acceptance mode, an
// optional partner fault plan, and the simulation seed — all drawn from a
// splitmix64-forked stream (exp::JobSeed discipline, same as src/exp/), so
// scenario i of a session depends only on (base_seed, i), never on what
// earlier runs consumed.
//
// Scenario instances are always built with BuildEvents() ordering (ties
// worker-before-request, then id), the exact order the dataset CSV loader
// reconstructs — so a scenario shrunk and saved by the fuzzer replays
// bit-identically after a round trip through datagen/dataset.h.

#ifndef COMX_CHECK_SCENARIO_GEN_H_
#define COMX_CHECK_SCENARIO_GEN_H_

#include <memory>
#include <string>

#include "core/online_matcher.h"
#include "datagen/synthetic.h"
#include "fault/fault_plan.h"
#include "matching/batch_matcher.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"

namespace comx {
namespace check {

/// The online matchers the harness fuzzes (OFF rides along as the
/// differential reference, not as a fuzzed policy). kBatch is the
/// micro-batch dispatch mode (SimConfig::batch_mode with the scenario's
/// window/algo knobs); it is opt-in via FuzzOptions::include_batch and not
/// part of kAllMatcherKinds, so default fuzz budgets are unchanged.
enum class MatcherKind : int32_t {
  kTota = 0,
  kDemCom = 1,
  kRamCom = 2,
  kBatch = 3,
};

inline constexpr MatcherKind kAllMatcherKinds[] = {
    MatcherKind::kTota, MatcherKind::kDemCom, MatcherKind::kRamCom};

/// comx_cli --algo spelling ("tota" / "demcom" / "ramcom" / "batch").
const char* MatcherKindName(MatcherKind kind);

/// Fresh policy object of the given kind with library-default tuning.
std::unique_ptr<OnlineMatcher> MakeMatcher(MatcherKind kind);

/// One complete fuzz scenario. Plain data: rebuilding the instance and the
/// SimConfig from a Scenario is deterministic.
struct Scenario {
  /// The forked stream seed this scenario was drawn from (diagnostics).
  uint64_t scenario_seed = 0;
  /// Instance generator config (carries its own instance seed).
  SyntheticConfig gen;

  // SimConfig value knobs (SimConfig itself holds borrowed pointers, so the
  // scenario stores the values and MakeSimConfig assembles the struct).
  bool workers_recycle = false;
  AcceptanceMode acceptance_mode = AcceptanceMode::kBernoulli;
  uint64_t reservation_seed = 0;
  double speed_kmh = 30.0;
  double base_service_seconds = 300.0;
  double service_seconds_per_value = 30.0;

  /// Partner fault plan; ignored unless `with_fault_plan`.
  bool with_fault_plan = false;
  fault::FaultPlan fault_plan;

  /// Seed passed to RunSimulation.
  uint64_t sim_seed = 0;

  // Micro-batch dispatch knobs, used only when a run is made with
  // MakeSimConfig(trace, /*batch=*/true). Drawn after every legacy field so
  // pre-batch scenario streams replay unchanged.
  double batch_window_seconds = 30.0;
  BatchAlgo batch_algo = BatchAlgo::kIncrementalKm;

  /// True when the scenario was drawn in the reservation-mode regime where
  /// OFF with the same rho seed is a hard upper bound on every online
  /// matcher (kReservation acceptance, no recycling).
  bool DifferentialEligible() const {
    return acceptance_mode == AcceptanceMode::kReservation &&
           !workers_recycle;
  }

  /// Assembles the SimConfig for this scenario. The returned struct borrows
  /// `this->fault_plan` (when enabled) and `trace`; both must outlive the
  /// simulation. `batch` turns on micro-batch dispatch with the scenario's
  /// window/algo knobs (and drops the fault plan, which batch mode refuses).
  SimConfig MakeSimConfig(obs::TraceSink* trace, bool batch = false) const;

  /// One-line knob dump for repro files and logs.
  std::string Describe() const;
};

/// Draws scenario `index` of the session keyed by `base_seed`. Every field
/// comes from the forked stream exp::JobSeed(base_seed, index).
Scenario DrawScenario(uint64_t base_seed, uint64_t index);

/// A fault plan that can never fire — availability 1, no latency, no
/// outages, no staleness — with randomized retry/breaker tuning. Used by
/// the bit-exactness suite: a run with such a plan must equal a run with no
/// plan at all, bit for bit.
fault::FaultPlan DrawTrivialFaultPlan(Rng* rng, int32_t platforms);

/// Builds (and validates) the scenario's instance.
Result<Instance> BuildScenarioInstance(const Scenario& scenario);

}  // namespace check
}  // namespace comx

#endif  // COMX_CHECK_SCENARIO_GEN_H_
