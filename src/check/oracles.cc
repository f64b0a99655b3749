#include "check/oracles.h"

#include <cmath>
#include <limits>
#include <vector>

#include "core/brute_force.h"
#include "core/offline_opt.h"
#include "core/ram_com.h"
#include "geo/distance_metric.h"
#include "matching/hungarian.h"
#include "matching/incremental_km.h"
#include "util/string_util.h"

namespace comx {
namespace check {

namespace {

void Add(std::vector<OracleViolation>* out, const char* oracle,
         std::string detail) {
  out->push_back(OracleViolation{oracle, std::move(detail)});
}

// The paper's four hard constraints plus Definition 2.5 / Eq. 1 revenue
// accounting, re-derived from the assignment log alone. Independent of
// sim/simulator.cc's AuditSimResult on purpose: this replay recomputes
// every revenue from (v_r, payment) and demands bitwise equality with the
// recorded SimResult, so even a one-ulp accounting drift is a violation.
void CheckAssignmentLog(const MatcherRunRecord& run, const SimConfig& sim,
                        std::vector<OracleViolation>* out) {
  const Instance& ins = *run.instance;
  const SimResult& result = *run.result;
  const DistanceMetric& metric =
      sim.metric != nullptr ? *sim.metric : DefaultMetric();
  // Batch mode books at the window close, not the arrival: the log is
  // ordered by dispatch time, and a recycled worker is busy until
  // dispatch + service. The request-side time/range checks stay at r.time
  // (the engine builds window edges with arrival-time eligibility).
  const bool batch = sim.batch_mode;
  const auto dispatch_of = [&sim, batch](Timestamp t) {
    if (!batch || sim.batch_window_seconds <= 0.0) return t;
    const double w = sim.batch_window_seconds;
    return (std::floor(t / w) + 1.0) * w;
  };

  const size_t worker_count = ins.workers().size();
  const size_t request_count = ins.requests().size();
  std::vector<Timestamp> available_since(worker_count);
  std::vector<Point> location(worker_count);
  std::vector<char> busy(worker_count, 0);
  std::vector<Timestamp> busy_until(worker_count, 0.0);
  std::vector<char> served(request_count, 0);
  for (const Worker& w : ins.workers()) {
    available_since[static_cast<size_t>(w.id)] = w.time;
    location[static_cast<size_t>(w.id)] = w.location;
  }

  const int32_t platforms = ins.PlatformCount();
  std::vector<double> platform_revenue(static_cast<size_t>(platforms), 0.0);
  std::vector<int64_t> platform_completed(static_cast<size_t>(platforms), 0);
  std::vector<int64_t> platform_inner(static_cast<size_t>(platforms), 0);
  std::vector<int64_t> platform_outer(static_cast<size_t>(platforms), 0);
  double log_total = 0.0;
  Timestamp last_time = -std::numeric_limits<double>::infinity();

  for (size_t i = 0; i < result.matching.assignments.size(); ++i) {
    const Assignment& a = result.matching.assignments[i];
    if (a.request < 0 || a.request >= static_cast<RequestId>(request_count)) {
      Add(out, "log-well-formed",
          StrFormat("assignment %zu references unknown request %lld", i,
                    static_cast<long long>(a.request)));
      return;
    }
    if (a.worker < 0 || a.worker >= static_cast<WorkerId>(worker_count)) {
      Add(out, "log-well-formed",
          StrFormat("assignment %zu references unknown worker %lld", i,
                    static_cast<long long>(a.worker)));
      return;
    }
    const Request& r = ins.request(a.request);
    const Worker& w = ins.worker(a.worker);

    const Timestamp dispatch = dispatch_of(r.time);
    if (dispatch < last_time) {
      Add(out, "log-well-formed",
          StrFormat("assignment %zu (request %lld) out of dispatch order", i,
                    static_cast<long long>(a.request)));
    }
    last_time = dispatch;

    // Invariable constraint: assignments are final — a request can never
    // be served twice.
    if (served[static_cast<size_t>(a.request)]) {
      Add(out, "invariable-constraint",
          StrFormat("request %lld served twice",
                    static_cast<long long>(a.request)));
    }
    served[static_cast<size_t>(a.request)] = 1;

    // 1-by-1 constraint, per availability episode under recycling.
    auto& since = available_since[static_cast<size_t>(a.worker)];
    auto& loc = location[static_cast<size_t>(a.worker)];
    auto& is_busy = busy[static_cast<size_t>(a.worker)];
    auto& until = busy_until[static_cast<size_t>(a.worker)];
    if (is_busy) {
      if (!sim.workers_recycle) {
        Add(out, "one-by-one-constraint",
            StrFormat("worker %lld used twice without recycling",
                      static_cast<long long>(a.worker)));
      } else if (until > r.time + 1e-9) {
        // In batch mode a busy overlap means a window dispatch handed out a
        // worker whose previous service (running until `until`, past this
        // request's arrival) had not finished — the window solve violated
        // the deadline a one-by-one dispatch enforces by construction.
        Add(out,
            batch ? "batch-window-never-violates-deadline"
                  : "one-by-one-constraint",
            StrFormat("worker %lld reassigned at t=%.6f while serving "
                      "until t=%.6f",
                      static_cast<long long>(a.worker), r.time, until));
      }
      since = until;
      is_busy = false;
    }
    // Time constraint: the worker must have arrived (or re-arrived).
    if (since > r.time + 1e-9) {
      Add(out, "time-constraint",
          StrFormat("worker %lld (available %.6f) serves request %lld "
                    "arriving %.6f",
                    static_cast<long long>(a.worker), since,
                    static_cast<long long>(a.request), r.time));
    }
    // Range constraint against the worker's *current* location.
    const double pickup = metric.Distance(loc, r.location);
    if (pickup > w.radius + 1e-9) {
      Add(out, "range-constraint",
          StrFormat("worker %lld at %.3f km from request %lld, radius %.3f",
                    static_cast<long long>(a.worker), pickup,
                    static_cast<long long>(a.request), w.radius));
    }

    // Inner/outer labelling and the outer payment interval (0, v_r].
    const bool is_outer = w.platform != r.platform;
    if (is_outer != a.is_outer) {
      Add(out, "inner-outer-label",
          StrFormat("assignment %zu mislabels worker %lld", i,
                    static_cast<long long>(a.worker)));
    }
    double expected_revenue;
    if (is_outer) {
      if (!(a.outer_payment > 0.0) || a.outer_payment > r.value + 1e-9) {
        Add(out, "outer-payment-range",
            StrFormat("payment %.9g outside (0, v=%.9g] for request %lld",
                      a.outer_payment, r.value,
                      static_cast<long long>(a.request)));
      }
      expected_revenue = r.value - a.outer_payment;
    } else {
      if (a.outer_payment != 0.0) {
        Add(out, "outer-payment-range",
            StrFormat("inner assignment %zu carries payment %.9g", i,
                      a.outer_payment));
      }
      expected_revenue = r.value;
    }
    // Eq. 1, bit-exact: same operands, same operation as the simulator.
    if (a.revenue != expected_revenue) {
      Add(out, "revenue-eq1",
          StrFormat("assignment %zu revenue %.17g != recomputed %.17g", i,
                    a.revenue, expected_revenue));
    }

    platform_revenue[static_cast<size_t>(r.platform)] += a.revenue;
    ++platform_completed[static_cast<size_t>(r.platform)];
    ++(is_outer ? platform_outer : platform_inner)[
        static_cast<size_t>(r.platform)];
    log_total += a.revenue;

    is_busy = true;
    until = dispatch + (sim.workers_recycle
                            ? ServiceDurationSeconds(sim, pickup, r.value)
                            : std::numeric_limits<double>::infinity());
    loc = r.location;
  }

  // Accounting identities, bit-exact where the accumulation order matches
  // the simulator's (per-platform in decision order; the matching total in
  // log order).
  if (log_total != result.matching.total_revenue) {
    Add(out, "revenue-eq1",
        StrFormat("matching.total_revenue %.17g != log re-sum %.17g",
                  result.matching.total_revenue, log_total));
  }
  if (result.metrics.per_platform.size() !=
      static_cast<size_t>(platforms)) {
    Add(out, "metrics-identities",
        StrFormat("metrics cover %zu platforms, instance has %d",
                  result.metrics.per_platform.size(), platforms));
    return;
  }
  for (int32_t p = 0; p < platforms; ++p) {
    const PlatformMetrics& pm =
        result.metrics.per_platform[static_cast<size_t>(p)];
    if (platform_revenue[static_cast<size_t>(p)] != pm.revenue) {
      Add(out, "revenue-eq1",
          StrFormat("platform %d metrics revenue %.17g != log re-sum %.17g",
                    p, pm.revenue, platform_revenue[static_cast<size_t>(p)]));
    }
    if (platform_completed[static_cast<size_t>(p)] != pm.completed ||
        platform_inner[static_cast<size_t>(p)] != pm.completed_inner ||
        platform_outer[static_cast<size_t>(p)] != pm.completed_outer) {
      Add(out, "metrics-identities",
          StrFormat("platform %d completion counters disagree with log", p));
    }
    if (pm.completed + pm.rejected != ins.RequestCountOf(p)) {
      Add(out, "metrics-identities",
          StrFormat("platform %d: completed %lld + rejected %lld != "
                    "requests %lld",
                    p, static_cast<long long>(pm.completed),
                    static_cast<long long>(pm.rejected),
                    static_cast<long long>(ins.RequestCountOf(p))));
    }
    if (pm.completed_outer > pm.outer_offers) {
      Add(out, "metrics-identities",
          StrFormat("platform %d: %lld outer completions exceed %lld offers",
                    p, static_cast<long long>(pm.completed_outer),
                    static_cast<long long>(pm.outer_offers)));
    }
  }
}

// Decision-trace oracles: the trace is the harness's view into what the
// matcher saw while deciding, so the per-policy contracts live here.
void CheckTrace(const MatcherRunRecord& run,
                std::vector<OracleViolation>* out) {
  const Instance& ins = *run.instance;
  const int32_t platforms = ins.PlatformCount();
  const std::vector<obs::TraceEvent>& events = *run.trace;

  if (static_cast<int64_t>(events.size()) !=
      static_cast<int64_t>(ins.requests().size())) {
    Add(out, "trace-complete",
        StrFormat("trace has %zu decisions for %zu requests", events.size(),
                  ins.requests().size()));
  }

  // RamCOM threshold set: every platform's drawn threshold must be e^k for
  // an integer arm k in {0, ..., theta-1}, theta = ceil(ln(max v + 1))
  // (the repo draws {e^0..e^(theta-1)}; see the Reset() comment in
  // core/ram_com.cc for why Algorithm 3's literal {e^1..e^theta} is not
  // used).
  if (run.kind == MatcherKind::kRamCom) {
    const int64_t theta = RamCom::ThetaFor(ins.MaxRequestValue());
    for (size_t p = 0; p < run.ram_thresholds.size(); ++p) {
      const double threshold = run.ram_thresholds[p];
      const double k = std::log(threshold);
      const double k_round = std::round(k);
      if (!(threshold > 0.0) || std::abs(k - k_round) > 1e-9 ||
          k_round < 0.0 || k_round > static_cast<double>(theta - 1)) {
        Add(out, "ram-threshold-set",
            StrFormat("platform %zu threshold %.9g is not e^k with "
                      "0 <= k <= theta-1 = %lld",
                      p, threshold, static_cast<long long>(theta - 1)));
      }
    }
  }

  std::vector<double> platform_revenue(static_cast<size_t>(platforms), 0.0);
  int64_t last_seq = -1;
  for (const obs::TraceEvent& ev : events) {
    if (ev.seq != last_seq + 1) {
      Add(out, "trace-complete",
          StrFormat("decision seq jumps from %lld to %lld",
                    static_cast<long long>(last_seq),
                    static_cast<long long>(ev.seq)));
    }
    last_seq = ev.seq;
    if (ev.platform < 0 || ev.platform >= platforms) {
      Add(out, "trace-complete",
          StrFormat("decision %lld names unknown platform %d",
                    static_cast<long long>(ev.seq), ev.platform));
      continue;
    }
    if (ev.outcome != "reject") {
      platform_revenue[static_cast<size_t>(ev.platform)] += ev.revenue;
    }
    if (ev.outcome == "outer") {
      // The payment charged must be exactly the payment the pricer quoted
      // (Algorithm 2 estimate / MER argmax) — fault fallbacks may swap the
      // worker but never the price.
      if (ev.payment != ev.estimated_payment) {
        Add(out, "quoted-payment-consistent",
            StrFormat("decision %lld charged %.17g but quoted %.17g",
                      static_cast<long long>(ev.seq), ev.payment,
                      ev.estimated_payment));
      }
    }

    switch (run.kind) {
      case MatcherKind::kTota:
        if (ev.outcome == "outer") {
          Add(out, "tota-no-outer",
              StrFormat("TOTA decision %lld borrowed a worker",
                        static_cast<long long>(ev.seq)));
        }
        break;
      case MatcherKind::kDemCom:
        // Algorithm 1 lines 3-6: inner workers take absolute priority, so
        // any non-inner outcome implies the inner probe came back empty.
        if (ev.outcome != "inner" && ev.inner_candidates != 0) {
          Add(out, "dem-inner-first",
              StrFormat("decision %lld went '%s' with %d feasible inner "
                        "workers",
                        static_cast<long long>(ev.seq), ev.outcome.c_str(),
                        ev.inner_candidates));
        }
        break;
      case MatcherKind::kRamCom: {
        if (static_cast<size_t>(ev.platform) >= run.ram_thresholds.size()) {
          break;
        }
        const double threshold =
            run.ram_thresholds[static_cast<size_t>(ev.platform)];
        if (ev.outcome == "inner") {
          // Algorithm 3 serves inner workers only on the high-value arm.
          if (!(ev.value > threshold)) {
            Add(out, "ram-threshold-respected",
                StrFormat("decision %lld served inner at value %.9g <= "
                          "threshold %.9g",
                          static_cast<long long>(ev.seq), ev.value,
                          threshold));
          }
        } else if (ev.value > threshold && ev.inner_candidates != 0) {
          // A high-value request may only fall through to the cooperative
          // path when no inner worker was free (Example 3).
          Add(out, "ram-threshold-respected",
              StrFormat("decision %lld (value %.9g > threshold %.9g) went "
                        "'%s' with %d inner candidates",
                        static_cast<long long>(ev.seq), ev.value, threshold,
                        ev.outcome.c_str(), ev.inner_candidates));
        } else if (ev.value <= threshold && ev.inner_candidates != -1) {
          // Low-value requests must never probe the inner fleet at all.
          Add(out, "ram-threshold-respected",
              StrFormat("decision %lld (value %.9g <= threshold %.9g) "
                        "probed inner workers",
                        static_cast<long long>(ev.seq), ev.value,
                        threshold));
        }
        break;
      }
      case MatcherKind::kBatch:
        // Batch dispatch has no per-policy trace contract: windows may
        // freely mix inner and outer service. The shared checks above
        // (completeness, quoted payments, revenue replay) still apply.
        break;
    }
  }

  // The trace is self-checking: revenue re-derived from the decision lines
  // must equal the recorded SimResult bit-exactly (the accumulation order
  // matches the simulator's).
  for (int32_t p = 0; p < platforms; ++p) {
    const double recorded =
        run.result->metrics.per_platform[static_cast<size_t>(p)].revenue;
    if (platform_revenue[static_cast<size_t>(p)] != recorded) {
      Add(out, "trace-revenue-replay",
          StrFormat("platform %d trace re-sum %.17g != recorded %.17g", p,
                    platform_revenue[static_cast<size_t>(p)], recorded));
    }
  }
  if (run.trace_summary != nullptr) {
    double total = 0.0;
    for (double r : platform_revenue) total += r;
    if (run.trace_summary->total_revenue != total) {
      Add(out, "trace-revenue-replay",
          StrFormat("summary total %.17g != trace re-sum %.17g",
                    run.trace_summary->total_revenue, total));
    }
    if (run.trace_summary->assignments !=
        static_cast<int64_t>(run.result->matching.assignments.size())) {
      Add(out, "trace-complete", "summary assignment count disagrees");
    }
  }

  // TOTA must also never *offer* outward, which the trace cannot show for
  // rejects — the metrics can.
  if (run.kind == MatcherKind::kTota) {
    for (size_t p = 0; p < run.result->metrics.per_platform.size(); ++p) {
      const PlatformMetrics& pm = run.result->metrics.per_platform[p];
      if (pm.outer_offers != 0 || pm.completed_outer != 0) {
        Add(out, "tota-no-outer",
            StrFormat("platform %zu recorded %lld outer offers", p,
                      static_cast<long long>(pm.outer_offers)));
      }
    }
  }
}

}  // namespace

std::vector<OracleViolation> CheckConstraintOracles(
    const MatcherRunRecord& run, const OracleOptions& /*options*/) {
  std::vector<OracleViolation> out;
  if (run.instance == nullptr || run.result == nullptr ||
      run.scenario == nullptr) {
    Add(&out, "harness", "MatcherRunRecord missing instance/result/scenario");
    return out;
  }
  const SimConfig sim = run.scenario->MakeSimConfig(
      nullptr, run.kind == MatcherKind::kBatch);
  CheckAssignmentLog(run, sim, &out);
  if (run.trace != nullptr) CheckTrace(run, &out);
  return out;
}

std::vector<OracleViolation> CheckDifferentialOracles(
    const MatcherRunRecord& run, const OracleOptions& options,
    DifferentialCounts* counted) {
  std::vector<OracleViolation> out;
  if (run.instance == nullptr || run.result == nullptr ||
      run.scenario == nullptr) {
    return out;
  }
  const Instance& ins = *run.instance;
  if (!run.scenario->DifferentialEligible()) return out;
  const int64_t entities = static_cast<int64_t>(ins.workers().size()) +
                           static_cast<int64_t>(ins.requests().size());
  if (entities == 0 || entities > options.differential_max_entities) {
    return out;
  }

  OfflineConfig off;
  // OFF must see exactly the reservation realization the simulator used —
  // that is what makes online <= OFF a theorem rather than a tendency.
  off.seed = run.scenario->reservation_seed;
  const int32_t platforms = ins.PlatformCount();
  for (PlatformId p = 0; p < platforms; ++p) {
    auto solution = SolveOffline(ins, p, off);
    if (!solution.ok()) {
      Add(&out, "off-upper-bound",
          StrFormat("SolveOffline failed for platform %d: %s", p,
                    solution.status().ToString().c_str()));
      continue;
    }
    if (counted != nullptr) ++counted->off_bounds;
    const double online =
        run.result->metrics.per_platform[static_cast<size_t>(p)].revenue;
    if (online > solution->matching.total_revenue + options.tolerance) {
      Add(&out, "off-upper-bound",
          StrFormat("platform %d online revenue %.9g exceeds OFF %.9g", p,
                    online, solution->matching.total_revenue));
    }

    // Sparse-vs-dense solver differential on the same offline graph: the
    // incremental Kuhn-Munkres (the engine behind every OFF solve) must
    // reproduce the dense Hungarian referee's optimum on every instance
    // small enough for the dense solver.
    {
      OfflineConfig graph_config = off;
      std::vector<RequestId> request_ids;
      std::vector<double> payments;
      auto graph = BuildOfflineGraph(ins, p, graph_config, &request_ids,
                                     &payments);
      if (graph.ok() && graph->left_count() <= 64 &&
          graph->right_count() <= 64) {
        auto dense = HungarianMaxWeight(*graph);
        auto sparse = IncrementalKmMaxWeight(*graph);
        if (!dense.ok() || !sparse.ok()) {
          Add(&out, "incremental-off-equals-dense-off",
              StrFormat("platform %d: solver failed (%s / %s)", p,
                        dense.status().ToString().c_str(),
                        sparse.status().ToString().c_str()));
        } else {
          if (counted != nullptr) ++counted->incremental_km;
          const double gap =
              std::abs(sparse->total_weight - dense->total_weight);
          const double scale = std::max(1.0, std::abs(dense->total_weight));
          if (gap > 1e-12 * scale) {
            Add(&out, "incremental-off-equals-dense-off",
                StrFormat("platform %d: incremental KM %.17g != dense "
                          "Hungarian %.17g",
                          p, sparse->total_weight, dense->total_weight));
          }
        }
      }
    }

    // Exhaustive cross-check of the production OFF solvers on instances
    // small enough to enumerate.
    if (ins.RequestCountOf(p) <= options.brute_force_max_requests &&
        static_cast<int64_t>(ins.workers().size()) <=
            options.brute_force_max_workers) {
      BruteForceLimits limits;
      limits.max_left = options.brute_force_max_requests;
      limits.max_right = options.brute_force_max_workers;
      auto brute = SolveOfflineBruteForce(ins, p, off, limits);
      if (!brute.ok()) {
        Add(&out, "off-brute-force",
            StrFormat("brute force failed for platform %d: %s", p,
                      brute.status().ToString().c_str()));
        continue;
      }
      if (counted != nullptr) ++counted->brute_force;
      const double gap = std::abs(brute->matching.total_revenue -
                                  solution->matching.total_revenue);
      const double scale =
          std::max(1.0, std::abs(brute->matching.total_revenue));
      if (gap > 1e-9 * scale) {
        Add(&out, "off-brute-force",
            StrFormat("platform %d: %s OFF revenue %.12g != exhaustive "
                      "%.12g",
                      p, solution->solver.c_str(),
                      solution->matching.total_revenue,
                      brute->matching.total_revenue));
      }
    }
  }
  return out;
}

std::vector<OracleViolation> CheckAllOracles(const MatcherRunRecord& run,
                                             const OracleOptions& options,
                                             DifferentialCounts* counted) {
  std::vector<OracleViolation> out = CheckConstraintOracles(run, options);
  std::vector<OracleViolation> diff =
      CheckDifferentialOracles(run, options, counted);
  out.insert(out.end(), diff.begin(), diff.end());
  return out;
}

}  // namespace check
}  // namespace comx
