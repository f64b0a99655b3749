// Algorithm 2 of the paper: Monte-Carlo + bisection estimate of the minimum
// outer payment v'_r with which some outer worker would plausibly accept a
// cooperative request. Each sampling instance simulates the acceptance of
// every candidate worker and bisects the payment until the bracket is
// narrower than xi * v_r; the estimator is the mean over
// n_s = ceil(4 ln(2/xi) / eta^2) instances (Lemma 1 accuracy bound).
//
// Midpoint memo (exact, not an approximation). Every instance starts from
// the same bracket [0, v_r] and moves it with the same floating-point
// update, so each bisection midpoint is a function of the accept/reject
// path that led to it: the midpoints form one fixed binary tree per
// estimate. The acceptance probabilities at a tree node are therefore the
// same in every instance that reaches it; they are computed once per
// estimate for v_r and for the 63 midpoints of the first six levels (the
// default xi = 0.1 bisects 3 times, visiting at most 7 of them) and reused.
// Deeper nodes are evaluated directly. Each memo entry keeps only the
// candidates with 0 < p < 1, in candidate order, plus one "some p >= 1"
// flag: a candidate with p <= 0 or p >= 1 consumes no draw in the
// per-candidate Bernoulli loop, so the compacted loop draws the same
// numbers in the same order and reaches the same accept/reject outcome.
// Payments, the draw sequence (hence the caller's Rng state afterwards),
// bisect_iterations, samples and budget_exhausted are all unchanged for
// every xi / eta / budget; tests/pricing/min_payment_memo_differential_test
// checks this against the uncompacted loop.

#ifndef COMX_PRICING_MIN_PAYMENT_ESTIMATOR_H_
#define COMX_PRICING_MIN_PAYMENT_ESTIMATOR_H_

#include <vector>

#include "model/ids.h"
#include "pricing/acceptance_model.h"
#include "util/rng.h"

namespace comx {

/// Accuracy knobs of Algorithm 2.
struct MinPaymentConfig {
  /// Relative bisection tolerance and Lemma 1 relative-error bound.
  double xi = 0.1;
  /// Lemma 1 failure-probability bound; drives the sample count.
  double eta = 0.5;
  /// Additive bump returned when no worker accepts even the full value v_r
  /// in a sampling instance (paper: "sets this instance as v_r + epsilon").
  double epsilon = 1e-3;
  /// Hard cap on total bisection iterations per estimate, so pricing can
  /// never stall a request on a pathological tolerance. The default is far
  /// above what the paper's accuracy knobs ever burn (at most 48 x 3 = 144
  /// with the defaults above), so it never binds — and therefore never
  /// perturbs — a normally-configured run. <= 0 disables the cap.
  int64_t max_bisect_iterations = 4096;

  /// n_s = ceil(4 ln(2/xi) / eta^2), clamped to [1, INT_MAX]: xi >= 2
  /// (a count <= 0) still runs one instance, and eta = 0 does not
  /// overflow the int.
  int SampleCount() const;
};

/// Outcome of one estimate.
struct MinPaymentEstimate {
  /// Mean bisected payment over all sampling instances.
  double payment = 0.0;
  /// Fraction of sampling instances in which nobody accepted at v_r — a
  /// diagnostic for "the request is effectively unservable at any price".
  double reject_fraction = 0.0;
  /// Total bisection iterations burned across all sampling instances. Each
  /// one draws once per candidate with 0 < p < 1 at its midpoint; only the
  /// first visit to a memoized tree node sweeps every candidate's ECDF. Fed
  /// to the decision trace and the comx_pricing_* metrics.
  int64_t bisect_iterations = 0;
  /// Monte-Carlo sampling instances run (= config.SampleCount() normally;
  /// fewer when the budget cut the estimate short; 0 for an empty candidate
  /// set).
  int32_t samples = 0;
  /// True when max_bisect_iterations stopped the estimate early; the
  /// payment is then the mean over the instances that ran.
  /// Mirrored by the comx_pricing_budget_exhausted_total counter.
  bool budget_exhausted = false;
};

/// Runs Algorithm 2 for request value `request_value` against the candidate
/// outer workers `candidates` (already filtered for feasibility).
/// An empty candidate set yields payment = request_value + epsilon.
MinPaymentEstimate EstimateMinOuterPayment(
    const AcceptanceModel& model, const std::vector<WorkerId>& candidates,
    double request_value, const MinPaymentConfig& config, Rng* rng);

}  // namespace comx

#endif  // COMX_PRICING_MIN_PAYMENT_ESTIMATOR_H_
