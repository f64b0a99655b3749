// offline_bound: the strict capacity-1 offline optimum (incremental KM over
// the grid-pruned graph) of both platforms of the committed R40k/W8k
// instance (generator seed 2020), through SolveOffline. The workload seed
// drives the offline acceptance model instead: OfflineConfig::seed draws
// every worker's reservation payment, which sets the outer edges and their
// weights. Regenerating the geometry per seed moved the solve time by a
// quarter from one seed to the next (augmenting-path lengths are
// data-dependent), so the workload measured the seed; over reservation
// seeds on one geometry it moves by a few percent. The traced run times
// BuildOfflineGraph on its own to split graph build from solve.
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/offline_opt.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using comx::Status;
using comx::StrFormat;

/// Generator seed of the offline instance (the committed R40k/W8k day).
constexpr uint64_t kInstanceSeed = 2020;

struct SolvePass {
  std::vector<double> platform_s;  // one SolveOffline call per platform
  double revenue = 0.0;
  int64_t edges = 0;
  int64_t assignments = 0;
  bool feasible = true;
  std::vector<std::string> solvers;
};

Status Solve(const comx::Instance& instance, const comx::OfflineConfig& config,
             SolvePass* out) {
  for (comx::PlatformId p = 0; p < instance.PlatformCount(); ++p) {
    const int64_t t0 = NowNanos();
    auto sol = comx::SolveOffline(instance, p, config);
    const int64_t t1 = NowNanos();
    if (!sol.ok()) return sol.status();
    out->platform_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    out->revenue += sol->matching.total_revenue;
    out->edges += sol->edge_count;
    out->assignments += static_cast<int64_t>(sol->matching.size());
    out->solvers.push_back(sol->solver);
    // Capacity 1: each request and each worker appears at most once, every
    // request belongs to the solved platform, and the total is the sum of
    // the per-assignment revenues.
    std::set<comx::RequestId> requests;
    std::set<comx::WorkerId> workers;
    double sum = 0.0;
    for (const comx::Assignment& a : sol->matching.assignments) {
      out->feasible = out->feasible && requests.insert(a.request).second &&
                      workers.insert(a.worker).second &&
                      instance.request(a.request).platform == p;
      sum += a.revenue;
    }
    out->feasible = out->feasible && sum == sol->matching.total_revenue;
  }
  return Status::OK();
}

double Total(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

Status RunOffline(const Options& options, Report* report) {
  Prepared prep;
  std::vector<SetupTimes> setup;
  COMX_RETURN_IF_ERROR(Prepare(
      GenConfig(WorkloadSize(options.workload, options.tiny), kInstanceSeed),
      "demcom", 5, &prep, &setup));
  ReportSetup(setup, report);
  const int64_t requests = static_cast<int64_t>(prep.instance.requests().size());
  comx::OfflineConfig config;
  config.seed = options.seed;

  std::vector<SolvePass> passes;
  const int64_t start = NowNanos();
  do {
    passes.emplace_back();
    COMX_RETURN_IF_ERROR(Solve(prep.instance, config, &passes.back()));
    report->attempted += requests;
  } while (!options.trace &&
           static_cast<double>(NowNanos() - start) / 1e9 < options.seconds);

  const SolvePass& first = passes.front();
  report->Check(first.feasible,
                "offline matchings are capacity-1 feasible and their totals "
                "add up");
  // At full size every platform must take the sparse incremental-KM path
  // (the smoke size is small enough for the dense solver).
  std::string solvers;
  bool sparse = true;
  for (const std::string& s : first.solvers) {
    solvers += (solvers.empty() ? "" : ",") + s;
    sparse = sparse && s == "incremental_km";
  }
  report->Check(options.tiny || sparse, "solvers per platform: " + solvers);
  bool reproducible = true;
  for (const SolvePass& pass : passes) {
    reproducible = reproducible && pass.revenue == first.revenue &&
                   pass.edges == first.edges;
  }
  report->Check(reproducible, StrFormat("%zu passes reproduce revenue and edges",
                                        passes.size()));
  const std::optional<Pin> pin = PinnedValue(options, first.edges);
  if (pin) {
    report->Check(first.revenue == pin->revenue && first.edges == pin->count,
                  StrFormat("revenue %.17g == pinned %.17g, edges %lld == "
                            "pinned %lld",
                            first.revenue, pin->revenue,
                            static_cast<long long>(first.edges),
                            static_cast<long long>(pin->count)));
  } else {
    report->Info(StrFormat("no pinned values for seed %llu: revenue %.17g edges %lld",
                           static_cast<unsigned long long>(options.seed),
                           first.revenue, static_cast<long long>(first.edges)));
  }

  // A "decision" here is one platform's SolveOffline call. Per pass, p50 is
  // the faster platform's solve and p99 the slower one's (nearest rank over
  // two samples); each figure is the median over passes.
  std::vector<double> solve_s, p50s, p99s;
  for (const SolvePass& pass : passes) {
    solve_s.push_back(Total(pass.platform_s));
    p50s.push_back(Quantile(pass.platform_s, 0.5) * 1e6);
    p99s.push_back(Quantile(pass.platform_s, 0.99) * 1e6);
  }
  const double median_solve = Median(solve_s);
  report->Info(StrFormat("solve_s: median %.4f over %zu passes (%lld requests, "
                         "%lld edges, %lld assignments)",
                         median_solve, solve_s.size(),
                         static_cast<long long>(requests),
                         static_cast<long long>(first.edges),
                         static_cast<long long>(first.assignments)));
  report->Set("decisions_per_s",
              median_solve > 0 ? static_cast<double>(requests) / median_solve : 0.0);
  report->Set("decision_p50_us", Median(p50s));
  report->Set("decision_p99_us", Median(p99s));
  report->Set("revenue", first.revenue);
  report->Set("peak_rss_mb", PeakRssMb());

  if (options.trace) {
    double build_s = 0.0;
    int64_t edges = 0;
    for (comx::PlatformId p = 0; p < prep.instance.PlatformCount(); ++p) {
      std::vector<comx::RequestId> ids;
      std::vector<double> payments;
      const int64_t t0 = NowNanos();
      auto graph = comx::BuildOfflineGraph(prep.instance, p, config, &ids, &payments);
      build_s += static_cast<double>(NowNanos() - t0) / 1e9;
      if (!graph.ok()) return graph.status();
      edges += static_cast<int64_t>(graph->edges().size());
    }
    report->Check(edges == first.edges,
                  StrFormat("BuildOfflineGraph edges %lld == SolveOffline edges %lld",
                            static_cast<long long>(edges),
                            static_cast<long long>(first.edges)));
    report->Info("tracing overhead: none; the traced run times the same "
                 "SolveOffline calls and then BuildOfflineGraph on its own");
    report->Set("matching.graph_build_s", build_s);
    report->Set("matching.edges", static_cast<double>(edges));
    report->Set("matching.solve_self_s", median_solve - build_s);
  }
  return Status::OK();
}

}  // namespace perfbench
