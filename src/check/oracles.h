// Post-run invariant oracles: independent re-derivations of everything a
// COM matcher promises, checked against one simulation's outputs. The
// constraint oracles replay the assignment log from scratch (the paper's
// time / 1-by-1 / invariable / range constraints of Section II plus the
// Eq. 1 revenue accounting, re-accumulated bit-exactly); the policy oracles
// check matcher-specific contracts from the decision trace (DemCOM's
// inner-first rule, TOTA's no-borrowing, RamCOM's e^k threshold set); the
// differential oracles compare against OFF — exact incremental KM on the
// shared offline graph, refereed by the dense Hungarian and, on tiny
// instances, by the exhaustive brute force — and OFF is an upper bound on
// every online matcher in the reservation-mode regime.
//
// Oracles return violations, not asserts, so the fuzz driver can shrink a
// failing scenario and tests can make precise claims about what fired.

#ifndef COMX_CHECK_ORACLES_H_
#define COMX_CHECK_ORACLES_H_

#include <string>
#include <vector>

#include "check/scenario_gen.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace comx {
namespace check {

/// One failed oracle. `oracle` is a stable slug (listed in TESTING.md);
/// `detail` pinpoints the offending entity.
struct OracleViolation {
  std::string oracle;
  std::string detail;
};

struct OracleOptions {
  /// Float tolerance for the OFF upper bound (solver arithmetic differs
  /// from the simulator's; bit-exact comparisons use none of this).
  double tolerance = 1e-6;
  /// Differential gates: OFF runs per platform when the instance has at
  /// most this many entities; the exhaustive brute force additionally
  /// needs <= brute_force_max_requests target requests and
  /// <= brute_force_max_workers workers overall.
  int64_t differential_max_entities = 600;
  int32_t brute_force_max_requests = 8;
  int32_t brute_force_max_workers = 8;
};

/// Everything the oracles inspect about one matcher run.
struct MatcherRunRecord {
  MatcherKind kind = MatcherKind::kTota;
  const Instance* instance = nullptr;
  /// The scenario knobs the run used (for physics + the differential
  /// regime test). The SimConfig is reassembled internally.
  const Scenario* scenario = nullptr;
  const SimResult* result = nullptr;
  /// Decision trace of the run (VectorTraceSink events + summary).
  const std::vector<obs::TraceEvent>* trace = nullptr;
  const obs::TraceSummary* trace_summary = nullptr;
  /// RamCOM only: the per-platform thresholds drawn at Reset.
  std::vector<double> ram_thresholds;
};

/// Constraint + accounting + policy oracles. Cheap (one pass over the
/// assignment log and the trace).
std::vector<OracleViolation> CheckConstraintOracles(
    const MatcherRunRecord& run, const OracleOptions& options);

/// Differential oracles against OFF (and the brute force on tiny
/// instances). Only meaningful in the reservation regime; returns empty
/// when the scenario is not DifferentialEligible(). `counted` (optional)
/// reports how many OFF / brute-force comparisons actually ran.
struct DifferentialCounts {
  int64_t off_bounds = 0;
  int64_t brute_force = 0;
  /// Sparse warm-startable KM vs dense Hungarian comparisons on the
  /// offline graph ("incremental-off-equals-dense-off").
  int64_t incremental_km = 0;
};
std::vector<OracleViolation> CheckDifferentialOracles(
    const MatcherRunRecord& run, const OracleOptions& options,
    DifferentialCounts* counted);

/// Both passes concatenated.
std::vector<OracleViolation> CheckAllOracles(const MatcherRunRecord& run,
                                             const OracleOptions& options,
                                             DifferentialCounts* counted);

}  // namespace check
}  // namespace comx

#endif  // COMX_CHECK_ORACLES_H_
