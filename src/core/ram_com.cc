#include "core/ram_com.h"

#include <cmath>

#include "obs/span.h"
#include "pricing/mer_pricer.h"

namespace comx {

void RamCom::Reset(const Instance& instance, PlatformId /*platform*/,
                   uint64_t seed) {
  rng_ = Rng(seed);
  diag_ = Diagnostics{};
  // Lines 1-2: theta = ceil(ln(max v + 1)) thresholds, drawn uniformly.
  // We draw the exponent from {0, ..., theta-1} (the Greedy-RT convention
  // of [9]) rather than the literal {1, ..., theta} of Algorithm 3: with
  // e^theta >= max v + 1 by construction, the k = theta arm would divert
  // *every* request away from inner workers, which contradicts the paper's
  // own Table V-VII results (RamCOM's completed-request counts track
  // TOTA's). Example 3 (k = 1, threshold e) is unaffected.
  const int64_t theta = ThetaFor(instance.MaxRequestValue());
  const int64_t k = fixed_exponent_ >= 0 ? fixed_exponent_
                                         : rng_.UniformInt(0, theta - 1);
  threshold_ = std::exp(static_cast<double>(k));
}

int64_t RamCom::ThetaFor(double max_value) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::log(max_value + 1.0))));
}

Decision RamCom::OnRequest(const Request& r, const PlatformView& view) {
  DecisionStats stats;
  // Lines 4-7: high-value requests go to a *random* feasible inner worker,
  // keeping the inner fleet available for big-ticket arrivals.
  if (r.value > threshold_) {
    std::vector<WorkerId> inner;
    {
      COMX_SPAN("candidate_lookup");
      inner = view.FeasibleInnerWorkers(r);
    }
    stats.inner_candidates = static_cast<int32_t>(inner.size());
    if (!inner.empty()) {
      const WorkerId w = inner[rng_.PickIndex(inner.size())];
      Decision d = Decision::Inner(w);
      d.stats = stats;
      return d;
    }
    // Example 3: a high-value request with no free inner worker falls
    // through to the cooperative path rather than being rejected.
  }

  // Lines 9-11: price with the maximum-expected-revenue rule, then run
  // DemCOM's acceptance step (Algorithm 1 lines 13-26) at payment v_re.
  std::vector<WorkerId> outer;
  {
    COMX_SPAN("candidate_lookup");
    outer = view.FeasibleOuterWorkers(r);
  }
  stats.outer_candidates = static_cast<int32_t>(outer.size());
  if (outer.empty()) {
    Decision d = Decision::Reject();
    d.stats = stats;
    return d;
  }
  KeepNearest(&outer, r, view, max_outer_candidates_);
  stats.priced_candidates = static_cast<int32_t>(outer.size());

  MerQuote quote;
  {
    COMX_SPAN("pricing_estimate");
    quote = ComputeMerQuote(view.acceptance(), outer, r.value);
  }
  const double payment = quote.payment;
  stats.estimated_payment = payment;
  if (payment > r.value) {
    Decision d = Decision::Reject();
    d.stats = stats;
    return d;
  }

  ++diag_.outer_offers;
  diag_.payment_sum += payment;
  diag_.payment_rate_sum += payment / r.value;
  diag_.expected_revenue_sum += quote.expected_revenue;

  std::vector<WorkerId> accepting;
  accepting.reserve(outer.size());
  {
    COMX_SPAN("acceptance_draw");
    for (WorkerId w : outer) {
      if (view.acceptance().Accepts(w, payment, &rng_)) {
        accepting.push_back(w);
      }
    }
  }
  stats.accepting = static_cast<int32_t>(accepting.size());
  if (accepting.empty()) {
    Decision d = Decision::Reject();
    d.attempted_outer = true;
    d.stats = stats;
    return d;
  }
  ++diag_.outer_accepts;
  const std::vector<WorkerId> ranked =
      RankByDistance(std::move(accepting), r, view);
  Decision d = Decision::Outer(ranked.front(), payment);
  d.fallback_workers.assign(ranked.begin() + 1, ranked.end());
  d.stats = stats;
  return d;
}

Status RamCom::SaveState(ByteWriter* out) const {
  out->F64(threshold_);
  WriteRng(rng_, out);
  out->I64(diag_.outer_offers);
  out->I64(diag_.outer_accepts);
  out->F64(diag_.payment_sum);
  out->F64(diag_.payment_rate_sum);
  out->F64(diag_.expected_revenue_sum);
  return Status::OK();
}

Status RamCom::RestoreState(ByteReader* in) {
  COMX_RETURN_IF_ERROR(in->F64(&threshold_));
  COMX_RETURN_IF_ERROR(ReadRng(in, &rng_));
  COMX_RETURN_IF_ERROR(in->I64(&diag_.outer_offers));
  COMX_RETURN_IF_ERROR(in->I64(&diag_.outer_accepts));
  COMX_RETURN_IF_ERROR(in->F64(&diag_.payment_sum));
  COMX_RETURN_IF_ERROR(in->F64(&diag_.payment_rate_sum));
  COMX_RETURN_IF_ERROR(in->F64(&diag_.expected_revenue_sum));
  return Status::OK();
}

}  // namespace comx
