// Maximum-expected-revenue pricing (Definition 4.1, after Tong et al.
// SIGMOD'18 [14]): choose the outer payment p maximizing
// (v_r - p) * pr(p, W) over the feasible worker set W, where pr(p, W) is
// the probability that at least one worker accepts p. RamCOM uses this in
// place of DemCOM's minimum-payment rule.
//
// The paper cites [14] only as a fast approximate maximizer with O(max v)
// cost. We maximize over a payment grid: n = min(4096, floor(v_r)) evenly
// spaced points v_r * i / (n + 1) for i = 1..n, plus v_r itself, plus up
// to 32 history values per candidate spread across its sorted history (the
// first and last always among them), keeping those in (0, v_r]. The
// argmax is the smallest grid point with the largest expected revenue.
//
// Only a band of that grid can win, and the scan visits only the band.
// Let lo be the smallest history value over all candidates and hi the
// smallest history maximum over candidates with a non-empty history.
//  * Below a worker's minimum its ECDF is 0, so its "does not accept"
//    factor is exactly 1.0 and x * 1.0 == x: skipping it changes no bit.
//    Below lo every factor is 1.0, so pr = 0 and the expected revenue is
//    0, which never wins the strict comparison against the running best.
//  * At or above hi the worker whose maximum is hi accepts with
//    probability exactly 1.0, its factor is exactly 0.0 and zero absorbs,
//    so pr == 1.0 and (v_r - p) only falls as p grows: of the points at or
//    above hi only the first can win. Every worker's maximum is one of its
//    history picks, so when hi <= v_r that first point is hi itself.
// Hence the grid is built from the points in [lo, hi) plus the first point
// at or above hi, and each candidate's ECDF is walked only over the points
// in [its own minimum, hi), multiplied in candidate order. The quote is
// bit-identical to a scan of the whole grid.

#ifndef COMX_PRICING_MER_PRICER_H_
#define COMX_PRICING_MER_PRICER_H_

#include <vector>

#include "model/ids.h"
#include "pricing/acceptance_model.h"

namespace comx {

/// Result of the MER optimization for one cooperative request.
struct MerQuote {
  /// Argmax payment v_re.
  double payment = 0.0;
  /// pr(payment, W): probability any candidate accepts.
  double accept_probability = 0.0;
  /// (v_r - payment) * accept_probability at the maximizer.
  double expected_revenue = 0.0;
};

/// Computes the MER quote for a request of value `request_value` against
/// feasible outer workers `candidates`. Empty candidates yield a zero quote.
MerQuote ComputeMerQuote(const AcceptanceModel& model,
                         const std::vector<WorkerId>& candidates,
                         double request_value);

}  // namespace comx

#endif  // COMX_PRICING_MER_PRICER_H_
