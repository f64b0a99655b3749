#include "pricing/min_payment_estimator.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace comx {
namespace {

// Books one finished estimate into the registry. Resolved lazily; no-ops
// while collection is disabled.
void RecordEstimate(const MinPaymentEstimate& estimate) {
  if (!obs::CollectionEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const estimates = registry.GetCounter(
      "comx_pricing_estimates_total", "Algorithm 2 payment estimates run");
  static obs::Counter* const iterations = registry.GetCounter(
      "comx_pricing_bisect_iterations_total",
      "Bisection iterations burned by Algorithm 2");
  static obs::Counter* const samples = registry.GetCounter(
      "comx_pricing_mc_samples_total",
      "Monte-Carlo sampling instances run by Algorithm 2");
  static obs::Histogram* const per_estimate = registry.GetHistogram(
      "comx_pricing_bisect_iterations_per_estimate",
      {0.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0},
      "Distribution of bisection iterations per estimate");
  static obs::Counter* const exhausted = registry.GetCounter(
      "comx_pricing_budget_exhausted_total",
      "Estimates cut short by the bisection iteration budget");
  estimates->Inc();
  iterations->Inc(estimate.bisect_iterations);
  samples->Inc(estimate.samples);
  per_estimate->Observe(static_cast<double>(estimate.bisect_iterations));
  if (estimate.budget_exhausted) exhausted->Inc();
}

// Memoized bisection tree nodes per estimate: node 0 is the full request
// value, nodes 1..kMemoNodes-1 the first log2(kMemoNodes) bisection levels
// in heap order (root 1 = v/2; accept at node k -> 2k, reject -> 2k+1).
// 64 nodes cover every path the default xi = 0.1 takes (3 levels) with room
// to spare; deeper nodes are evaluated directly.
constexpr uint32_t kMemoNodes = 64;
static_assert(kMemoNodes <= 64, "the filled-node set is one 64-bit mask");

// One memoized acceptance sweep: the candidates with 0 < p < 1, in
// candidate order, plus whether some candidate has p >= 1. Candidates with
// p <= 0 never accept and consume no draw, so they are dropped.
struct MemoEntry {
  uint32_t begin = 0;  // slice [begin, end) of the flat probability buffer
  uint32_t end = 0;
  bool certain = false;
};

// Compacts `probs` into `partial` (appended) and returns the entry. The
// test mirrors Rng::Bernoulli: p <= 0 is dropped, p >= 1 sets `certain`,
// anything else (NaN included) keeps its draw.
MemoEntry Compact(const double* probs, size_t n, std::vector<double>* partial) {
  MemoEntry entry;
  entry.begin = static_cast<uint32_t>(partial->size());
  for (size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      entry.certain = true;
      continue;
    }
    partial->push_back(p);
  }
  entry.end = static_cast<uint32_t>(partial->size());
  return entry;
}

// One Bernoulli sweep: does any candidate accept? Every remaining
// candidate is drawn (not short-circuited after the first acceptance) so
// the RNG stream consumed is independent of the outcomes, exactly as the
// uncompacted per-candidate loop: same draws, same order.
bool AnyoneAccepts(const MemoEntry& entry, const double* partial, Rng* rng) {
  bool any = entry.certain;
  for (uint32_t i = entry.begin; i < entry.end; ++i) {
    any = (rng->NextDouble() < partial[i]) || any;
  }
  return any;
}

}  // namespace

int MinPaymentConfig::SampleCount() const {
  // Clamped in double before the cast: xi >= 2 gives a count <= 0, eta = 0
  // gives +inf and a NaN argument gives NaN; at least one instance runs.
  const double n = std::ceil(4.0 * std::log(2.0 / xi) / (eta * eta));
  if (!(n >= 1.0)) return 1;
  if (n >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(n);
}

MinPaymentEstimate EstimateMinOuterPayment(
    const AcceptanceModel& model, const std::vector<WorkerId>& candidates,
    double request_value, const MinPaymentConfig& config, Rng* rng) {
  COMX_SPAN("pricing_estimate");
  MinPaymentEstimate out;
  const int n_s = config.SampleCount();
  if (candidates.empty()) {
    out.payment = request_value + config.epsilon;
    out.reject_fraction = 1.0;
    RecordEstimate(out);
    return out;
  }

  // A bisection midpoint depends only on the accept/reject path that led
  // to it, so the probabilities at each tree node are evaluated (one ECDF
  // batch pass) the first time any sampling instance reaches the node and
  // reused by every later instance. Node 0, the full value, is reached by
  // every instance and filled up front.
  const size_t n_c = candidates.size();
  const kernels::EcdfIndex& ecdf = model.ecdf();
  thread_local std::vector<double> probs;
  thread_local std::vector<double> partial;
  probs.resize(n_c);
  partial.clear();
  MemoEntry memo[kMemoNodes];
  uint64_t filled = 1;  // bit k set: memo[k] holds node k
  ecdf.BatchEvaluate(candidates.data(), n_c, request_value, probs.data());
  memo[0] = Compact(probs.data(), n_c, &partial);

  double sum = 0.0;
  int rejects = 0;
  for (int s = 0; s < n_s; ++s) {
    ++out.samples;
    // Paper Algorithm 2 lines 4-6: if nobody accepts the full value, this
    // instance contributes v_r + epsilon.
    if (!AnyoneAccepts(memo[0], partial.data(), rng)) {
      sum += request_value + config.epsilon;
      ++rejects;
      continue;
    }
    // Bisection (lines 7-15): v_h is the lowest payment seen to be accepted
    // in this instance, v_l the highest seen rejected.
    double v_l = 0.0;
    double v_h = request_value;
    double v_m = 0.5 * v_h;
    uint32_t node = 1;  // >= kMemoNodes once the path leaves the memo
    while (v_m - v_l > config.xi * request_value) {
      // Iteration budget: the estimate-wide cap keeps a pathological
      // tolerance from spinning; the current midpoint is good enough.
      if (config.max_bisect_iterations > 0 &&
          out.bisect_iterations >= config.max_bisect_iterations) {
        out.budget_exhausted = true;
        break;
      }
      ++out.bisect_iterations;
      bool accepted = false;
      if (node < kMemoNodes) {
        if (!((filled >> node) & 1)) {
          ecdf.BatchEvaluate(candidates.data(), n_c, v_m, probs.data());
          memo[node] = Compact(probs.data(), n_c, &partial);
          filled |= uint64_t{1} << node;
        }
        accepted = AnyoneAccepts(memo[node], partial.data(), rng);
        node = 2 * node + (accepted ? 0 : 1);
      } else {
        ecdf.BatchEvaluate(candidates.data(), n_c, v_m, probs.data());
        const size_t mark = partial.size();
        const MemoEntry entry = Compact(probs.data(), n_c, &partial);
        accepted = AnyoneAccepts(entry, partial.data(), rng);
        partial.resize(mark);
      }
      if (accepted) {
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
  out.reject_fraction = static_cast<double>(rejects) /
                        static_cast<double>(out.samples);
  RecordEstimate(out);
  return out;
}

}  // namespace comx
