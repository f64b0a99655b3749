// Canonical deterministic sweep backing the committed BENCH baseline
// (BENCH_sweep.json at the repo root). Runs a small fixed parameter grid
// (two small synthetic workloads at --seeds seeds plus the single-seed
// R100000_W20000 kernel-stress workload, each x {TOTA, DemCOM, RamCOM}) on
// the sweep engine and writes one flat JSON record per (workload,
// algorithm), a per-workload .timing record, and a summary over the two
// small workloads. Deterministic fields (revenue, completed, cooperative,
// acceptance, payment rate, logical memory, decision counts) are identical
// at any --jobs value; tools/bench_check diffs a fresh run against the
// baseline and reports per-row runs_per_sec and latency-percentile deltas
// (wall-clock fields are informational, never gating).
//
// Each (workload, algorithm) row carries a decision-latency block
// (latency_p50_us / p99 / p999 / max over the pooled per-seed histograms)
// from the simulator's per-decision measurement.
//
//   bench_sweep [--jobs N] [--seeds N] [--out PATH]
//               [--quick] [--perf-out PATH]
//
// --quick drops the R100000_W20000 stress row (for the perf-report CI
// stage). --perf-out enables metrics collection + spans for the run and
// dumps the hierarchical span profile (flat JSONL, see obs/profiler.h) to
// PATH for tools/perf_report; expect lower runs_per_sec in that mode.

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/offline_opt.h"
#include "datagen/synthetic.h"
#include "exp/batch_grid.h"
#include "exp/bench_record.h"
#include "util/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "util/flags.h"
#include "util/memory_meter.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

struct Workload {
  const char* label;
  int64_t requests_per_platform;
  int64_t workers_per_platform;
  double radius_km;
  /// Seeds for this workload (the large stress row runs one seed; the
  /// small rows keep the historical default unless --seeds overrides).
  int seeds;
  /// Whether the workload counts toward the "summary" record. The summary
  /// covers exactly the two original small workloads so its runs_per_sec
  /// stays comparable across baselines that predate the stress row.
  bool in_summary;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace comx;

  Flags flags(argc, argv);
  const int jobs = flags.Int<int>("--jobs", 1);
  const int seeds = flags.Int<int>("--seeds", 3);
  const std::string out = flags.Get("--out", "BENCH_sweep.json");
  const bool quick = flags.Has("--quick");
  const std::string perf_out = flags.Get("--perf-out", "");
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (!perf_out.empty()) obs::SetCollectionEnabled(true);

  // Sized so the default sweep finishes in seconds serially (the baseline
  // gate runs on every check) while still giving a multicore runner
  // parallel headroom. Workload totals are per-platform counts x 2
  // platforms; R2500_W500 is the Table IV default. R100000_W20000 is the
  // kernel-layer stress row: large enough for the batched scans to matter,
  // run at one seed to bound gate time.
  const std::vector<Workload> workloads = {
      {"R1000_W200", 500, 100, 1.5, seeds, true},
      {"R2500_W500", 1250, 250, 1.0, seeds, true},
      {"R100000_W20000", 50000, 10000, 1.0, 1, false},
  };
  const std::vector<bench::Algo> algos = {
      bench::Algo::kTota, bench::Algo::kDemCom, bench::Algo::kRamCom};

  Stopwatch wall;
  ThreadPool shared_pool(jobs > 1 ? static_cast<size_t>(jobs) : 1);
  std::vector<exp::BenchRecord> records;
  double summary_seconds = 0.0;
  double summary_runs = 0.0;
  for (const Workload& w : workloads) {
    if (quick && !w.in_summary) continue;
    SyntheticConfig gen;
    gen.requests_per_platform = {w.requests_per_platform};
    gen.workers_per_platform = {w.workers_per_platform};
    gen.radius_km = w.radius_km;
    gen.seed = 2020;
    auto instance = GenerateSynthetic(gen);
    if (!instance.ok()) {
      std::fprintf(stderr, "generate %s: %s\n", w.label,
                   instance.status().ToString().c_str());
      return 1;
    }
    bench::TableRunConfig run;
    run.seeds = w.seeds;
    run.algos = algos;
    if (jobs > 1) run.pool = &shared_pool;
    run.sim.workers_recycle = true;
    // Per-decision latency measurement: the clock reads never consume RNG,
    // so every deterministic (gating) field is unchanged by it. The
    // latency_* percentiles themselves are wall-clock and informational.
    run.sim.measure_response_time = true;
    Stopwatch workload_wall;
    const std::vector<bench::Row> rows = bench::RunTable(*instance, run);
    const double workload_seconds = workload_wall.ElapsedNanos() / 1e9;
    // Stress workload extra: the strict capacity-1 OFF via the grid-pruned
    // incremental KM (the 100k-scale exact bound that used to fall back to
    // approximate solvers) plus the empirical CR of each online row against
    // it. Revenue/completed/edges and the CRs are deterministic and gate;
    // wall_seconds / decisions_per_sec are informational throughput.
    if (!w.in_summary) {
      Stopwatch off_wall;
      exp::BenchRecord off_rec;
      off_rec.name = std::string(w.label) + ".off";
      double off_revenue = 0.0;
      int64_t off_completed = 0;
      int64_t off_edges = 0;
      for (PlatformId p = 0; p < instance->PlatformCount(); ++p) {
        OfflineConfig off;  // capacity 1: exact incremental KM at this scale
        auto sol = SolveOffline(*instance, p, off);
        if (!sol.ok()) {
          std::fprintf(stderr, "offline %s p%d: %s\n", w.label, p,
                       sol.status().ToString().c_str());
          return 1;
        }
        off_revenue += sol->matching.total_revenue;
        off_completed += static_cast<int64_t>(sol->matching.size());
        off_edges += sol->edge_count;
        off_rec.strings[StrFormat("solver_p%d", p)] = sol->solver;
      }
      const double off_seconds = off_wall.ElapsedNanos() / 1e9;
      off_rec.numbers["revenue"] = off_revenue;
      off_rec.numbers["completed"] = static_cast<double>(off_completed);
      off_rec.numbers["edges"] = static_cast<double>(off_edges);
      off_rec.numbers["wall_seconds"] = off_seconds;
      off_rec.numbers["decisions_per_sec"] =
          off_seconds > 0.0
              ? static_cast<double>(off_completed) / off_seconds
              : 0.0;
      for (const bench::Row& row : rows) {
        double online = 0.0;
        for (double r : row.revenue) online += r;
        std::string key = std::string("cr_") + bench::AlgoName(row.algo);
        for (char& c : key) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          if (c == '-') c = '_';
        }
        off_rec.numbers[key] =
            off_revenue > 0.0 ? online / off_revenue : 0.0;
      }
      records.push_back(std::move(off_rec));
    }
    for (const bench::Row& row : rows) {
      exp::BenchRecord record;
      record.name = std::string(w.label) + "." + bench::AlgoName(row.algo);
      double revenue = 0.0;
      int64_t completed = 0;
      for (double r : row.revenue) revenue += r;
      for (int64_t c : row.completed) completed += c;
      record.numbers["revenue"] = revenue;
      record.numbers["completed"] = static_cast<double>(completed);
      record.numbers["cooperative"] = static_cast<double>(row.cooperative);
      record.numbers["acceptance"] = row.acceptance;
      record.numbers["payment_rate"] = row.payment_rate;
      record.numbers["memory_mb"] = row.memory_mb;
      record.numbers["seeds"] = static_cast<double>(w.seeds);
      // Latency block: the decision count is deterministic (one decision
      // per request per seed) and gates; the percentiles are wall-clock
      // and carry the informational latency_ prefix.
      record.numbers["decisions"] =
          static_cast<double>(row.latency.count);
      record.numbers["latency_p50_us"] = row.latency.QuantileMicros(0.50);
      record.numbers["latency_p99_us"] = row.latency.QuantileMicros(0.99);
      record.numbers["latency_p999_us"] =
          row.latency.QuantileMicros(0.999);
      record.numbers["latency_max_us"] =
          static_cast<double>(row.latency.max_nanos) / 1e3;
      records.push_back(std::move(record));
    }
    // Per-workload timing row: bench_check reports the runs_per_sec delta
    // per workload, so a regression localized to one size is visible even
    // when the summary average hides it.
    const double workload_runs =
        static_cast<double>(algos.size()) * static_cast<double>(w.seeds);
    exp::BenchRecord timing;
    timing.name = std::string(w.label) + ".timing";
    timing.numbers["runs"] = workload_runs;
    timing.numbers["wall_seconds"] = workload_seconds;
    timing.numbers["runs_per_sec"] =
        workload_seconds > 0.0 ? workload_runs / workload_seconds : 0.0;
    records.push_back(std::move(timing));
    if (w.in_summary) {
      summary_seconds += workload_seconds;
      summary_runs += workload_runs;
    }
    std::printf("%-15s done (%d seeds x %zu algos, %.2fs)\n", w.label,
                w.seeds, algos.size(), workload_seconds);
  }

  // Batch-dispatch grid: window length x window solver on the small
  // workload, each row charted against the shared window-greedy online
  // baseline. Every field is deterministic and gates; the window = 0 rows
  // are bit-identical to the baseline, so their gap is exactly 0.
  {
    SyntheticConfig gen;
    gen.requests_per_platform = {500};
    gen.workers_per_platform = {100};
    gen.radius_km = 1.5;
    gen.seed = 2020;
    auto instance = GenerateSynthetic(gen);
    if (!instance.ok()) {
      std::fprintf(stderr, "generate batch grid: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    exp::BatchGridConfig grid;
    grid.seeds = seeds;
    grid.sim.workers_recycle = true;
    if (jobs > 1) grid.pool = &shared_pool;
    Stopwatch grid_wall;
    auto grid_rows = exp::RunBatchGrid(*instance, grid);
    if (!grid_rows.ok()) {
      std::fprintf(stderr, "batch grid: %s\n",
                   grid_rows.status().ToString().c_str());
      return 1;
    }
    for (const exp::BatchGridRow& row : *grid_rows) {
      exp::BenchRecord record;
      record.name = StrFormat("batch.R1000_W200.W%g.%s", row.window_seconds,
                              BatchAlgoName(row.algo));
      record.numbers["revenue"] = row.revenue;
      record.numbers["online_revenue"] = row.online_revenue;
      record.numbers["gap"] = row.gap;
      record.numbers["mean_wait_s"] = row.mean_wait_seconds;
      record.numbers["completed"] = row.completed;
      record.numbers["seeds"] = static_cast<double>(seeds);
      records.push_back(std::move(record));
    }
    exp::BenchRecord timing;
    timing.name = "batch.R1000_W200.timing";
    timing.numbers["wall_seconds"] = grid_wall.ElapsedNanos() / 1e9;
    records.push_back(std::move(timing));
    std::printf("batch grid done (%zu rows, %.2fs)\n", grid_rows->size(),
                grid_wall.ElapsedNanos() / 1e9);
  }

  const double wall_seconds = summary_seconds;
  const double runs = summary_runs;
  // The summary covers only the in_summary workloads (see Workload);
  // whole-process wall time lives in the per-workload .timing rows.
  exp::BenchRecord summary;
  summary.name = "summary";
  summary.numbers["jobs"] = static_cast<double>(jobs);
  summary.numbers["runs"] = runs;
  summary.numbers["wall_seconds"] = wall_seconds;
  summary.numbers["runs_per_sec"] =
      wall_seconds > 0.0 ? runs / wall_seconds : 0.0;
  summary.numbers["rss_mb"] =
      static_cast<double>(CurrentRssBytes()) / 1e6;
  records.push_back(std::move(summary));

  if (Status st = exp::WriteBenchRecords(out, records); !st.ok()) {
    std::fprintf(stderr, "write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (!perf_out.empty()) {
    if (Status st = obs::SpanProfiler::Global().WriteProfile(perf_out);
        !st.ok()) {
      std::fprintf(stderr, "write %s: %s\n", perf_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote span profile to %s\n", perf_out.c_str());
  }
  std::printf(
      "wrote %s: summary %.0f runs in %.2fs (%.1f runs/s), total %.2fs, "
      "jobs=%d\n",
      out.c_str(), runs, wall_seconds,
      wall_seconds > 0.0 ? runs / wall_seconds : 0.0,
      wall.ElapsedNanos() / 1e9, jobs);
  return 0;
}
