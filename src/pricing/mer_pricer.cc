#include "pricing/mer_pricer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/span.h"

namespace comx {
namespace {

// Cap on evenly spaced grid points (keeps per-request cost bounded for very
// large values); the history picks are always included.
constexpr int kMaxGridPoints = 4096;
// History values pulled per candidate, spread across its sorted history.
constexpr int kHistoryPicksPerWorker = 32;

}  // namespace

MerQuote ComputeMerQuote(const AcceptanceModel& model,
                         const std::vector<WorkerId>& candidates,
                         double request_value) {
  COMX_SPAN("mer_price");
  MerQuote best;
  if (candidates.empty() || request_value <= 0.0) return best;

  // The live band (see the header): lo = smallest history value of any
  // candidate, hi = smallest maximum over non-empty histories (empty ones
  // have min +inf > max -inf and never accept anything).
  const kernels::EcdfIndex& ecdf = model.ecdf();
  const double* hist_min = ecdf.hist_min();
  const double* hist_max = ecdf.hist_max();
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (WorkerId w : candidates) {
    const size_t i = static_cast<size_t>(w);
    if (hist_min[i] > hist_max[i]) continue;
    lo = std::min(lo, hist_min[i]);
    hi = std::min(hi, hist_max[i]);
  }

  // Grid points in [lo, hi), plus `at_or_above_hi`: the first grid point
  // >= hi, where pr == 1.0 exactly. Points below lo all have expected
  // revenue 0 and points past the first one >= hi earn strictly less.
  thread_local std::vector<double> grid;
  grid.clear();
  double at_or_above_hi = std::numeric_limits<double>::infinity();
  const auto add = [&](double p) {
    if (p < hi) {
      grid.push_back(p);
    } else {
      at_or_above_hi = std::min(at_or_above_hi, p);
    }
  };
  if (lo <= request_value) {
    // Evenly spaced points step * i, i = 1..int_points. The cap is taken in
    // double so a value above INT_MAX never reaches the int cast.
    const int int_points = static_cast<int>(std::min<double>(
        kMaxGridPoints, std::floor(request_value)));
    const double step =
        int_points > 0 ? request_value / static_cast<double>(int_points + 1)
                       : request_value;
    // First i with step * i >= lo. The product is monotone in i, and
    // lo / step <= 4097 is off by far less than 1, so the floor never
    // overshoots and the loop only corrects an undershoot.
    int i = lo > step ? static_cast<int>(lo / step) : 1;
    while (i <= int_points && step * static_cast<double>(i) < lo) ++i;
    for (; i <= int_points; ++i) {
      const double p = step * static_cast<double>(i);
      add(p);
      if (p >= hi) break;
    }
    add(request_value);
    for (WorkerId w : candidates) {
      const auto& hist = model.HistoryOf(w).values();
      const int take =
          std::min<int>(kHistoryPicksPerWorker, static_cast<int>(hist.size()));
      // Spread picks across the sorted history so both cheap and expensive
      // acceptance thresholds are represented. Picks ascend with k and all
      // are >= lo, so the walk stops at the first one >= hi or > v_r.
      for (int k = 0; k < take; ++k) {
        const size_t idx =
            hist.size() <= 1
                ? 0
                : (static_cast<size_t>(k) * (hist.size() - 1)) /
                      static_cast<size_t>(std::max(1, take - 1));
        const double pick = hist[idx];
        if (pick <= 0.0) continue;
        if (pick > request_value) break;
        add(pick);
        if (pick >= hi) break;
      }
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  const size_t band = grid.size();  // points below hi
  if (std::isfinite(at_or_above_hi)) grid.push_back(at_or_above_hi);

  // Group acceptance over the grid: one EcdfIndex merge walk per candidate
  // over its own [min, hi) slice, the "nobody accepts" products
  // accumulating in candidate order — the same non-1.0 factors in the same
  // order as GroupAcceptProbability per point, so each pr is bit-identical.
  // The point >= hi starts at exactly 0.0, the value its product reaches.
  thread_local std::vector<double> none;
  thread_local std::vector<double> probs;
  none.assign(grid.size(), 1.0);
  std::fill(none.begin() + static_cast<std::ptrdiff_t>(band), none.end(), 0.0);
  probs.resize(grid.size());
  for (WorkerId w : candidates) {
    const size_t i = static_cast<size_t>(w);
    if (hist_min[i] > hist_max[i]) continue;
    const size_t first = static_cast<size_t>(
        std::lower_bound(grid.begin(),
                         grid.begin() + static_cast<std::ptrdiff_t>(band),
                         hist_min[i]) -
        grid.begin());
    if (first == band) continue;
    ecdf.EvaluateAscending(w, grid.data() + first, band - first,
                           probs.data() + first);
    for (size_t g = first; g < band; ++g) {
      none[g] *= 1.0 - probs[g];
    }
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
  // Degenerate case: every grid point has zero expected revenue (e.g. no
  // worker ever accepts anything below v_r). Quote v_r itself so the caller
  // can still try a zero-revenue-but-user-satisfying match if it wants to.
  if (best.payment == 0.0) {
    best.payment = request_value;
    best.accept_probability =
        model.GroupAcceptProbability(candidates, request_value);
    best.expected_revenue = 0.0;
  }
  return best;
}

}  // namespace comx
