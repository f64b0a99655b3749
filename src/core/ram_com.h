// RamCOM (Algorithm 3 of the paper): randomized cross online matching.
//
// A value threshold e^k is drawn once per run, k uniform over {1..theta},
// theta = ceil(ln(max v + 1)). Requests worth more than the threshold are
// reserved for inner workers (a *random* feasible inner worker serves, per
// Algorithm 3 line 7); everything else — and high-value requests that find
// no free inner worker (Example 3) — is offered to outer workers at the
// maximum-expected-revenue payment v_re (Definition 4.1 / pricing/
// mer_pricer.h), then dispatched through DemCOM's acceptance machinery
// (Algorithm 1 lines 13-26).

#ifndef COMX_CORE_RAM_COM_H_
#define COMX_CORE_RAM_COM_H_

#include "core/online_matcher.h"
#include "util/rng.h"

namespace comx {

/// Randomized cross online matcher.
class RamCom : public OnlineMatcher {
 public:
  /// `fixed_exponent` >= 0 freezes the threshold at e^fixed_exponent
  /// instead of drawing it — used by the design-ablation benchmarks to
  /// study the individual threshold arms; -1 (default) draws per Reset.
  /// `max_outer_candidates` > 0 caps the cooperative candidate set to the
  /// nearest K workers before MER pricing; 0 = unlimited.
  explicit RamCom(int fixed_exponent = -1, int max_outer_candidates = 0)
      : fixed_exponent_(fixed_exponent),
        max_outer_candidates_(max_outer_candidates) {}

  void Reset(const Instance& instance, PlatformId platform,
             uint64_t seed) override;
  Decision OnRequest(const Request& r, const PlatformView& view) override;
  std::string name() const override { return "RamCOM"; }
  Status SaveState(ByteWriter* out) const override;
  Status RestoreState(ByteReader* in) override;

  /// The drawn inner-worker value threshold e^k (for tests/diagnostics).
  double threshold() const { return threshold_; }

  /// theta = max(1, ceil(ln(max_value + 1))) — the number of threshold
  /// arms of Algorithm 3. Exposed so the correctness oracles and the
  /// edge-case tests (max v = 0, v = 1, all-equal values) share the exact
  /// computation Reset() uses.
  static int64_t ThetaFor(double max_value);

  /// Diagnostics accumulated since the last Reset.
  struct Diagnostics {
    int64_t outer_offers = 0;
    int64_t outer_accepts = 0;
    double payment_sum = 0.0;
    double payment_rate_sum = 0.0;  // sum of v_re / v_r
    double expected_revenue_sum = 0.0;
  };
  const Diagnostics& diagnostics() const { return diag_; }

 private:
  int fixed_exponent_ = -1;
  int max_outer_candidates_ = 0;
  double threshold_ = 0.0;
  Rng rng_{0};
  Diagnostics diag_;
};

}  // namespace comx

#endif  // COMX_CORE_RAM_COM_H_
