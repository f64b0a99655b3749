#include "exp/batch_grid.h"

#include <memory>
#include <optional>
#include <utility>

#include "core/window_greedy.h"
#include "pricing/acceptance_model.h"
#include "sim/metrics.h"
#include "util/string_util.h"

namespace comx {
namespace exp {
namespace {

/// The cells of one sweep: cell 0 is the shared online baseline
/// (window = 0), cells 1.. the (window, algo) grid in windows-major order.
struct Cell {
  double window_seconds = 0.0;
  BatchAlgo algo = BatchAlgo::kIncrementalKm;
};

struct CellSummary {
  double revenue = 0.0;  // mean across seeds, seed-order accumulation
  double completed = 0.0;
  double mean_wait_seconds = 0.0;
};

CellSummary Summarize(const std::vector<SimMetrics>& slots, size_t first,
                      size_t seed_count) {
  CellSummary out;
  PlatformMetrics agg;
  for (size_t s = 0; s < seed_count; ++s) {
    const SimMetrics& metrics = slots[first + s];
    out.revenue += metrics.TotalRevenue();
    agg.Merge(metrics.Aggregate());
  }
  const double n = static_cast<double>(seed_count);
  out.revenue /= n;
  out.completed = static_cast<double>(agg.completed) / n;
  out.mean_wait_seconds = agg.response_time_us.count() > 0
                              ? agg.response_time_us.mean() / 1e6
                              : 0.0;
  return out;
}

}  // namespace

Result<std::vector<BatchGridRow>> RunBatchGrid(
    const Instance& instance, const BatchGridConfig& config) {
  if (config.seeds < 1) {
    return Status::InvalidArgument("batch grid needs seeds >= 1");
  }
  if (config.windows.empty() || config.algos.empty()) {
    return Status::InvalidArgument("batch grid needs windows and algos");
  }
  std::vector<Cell> cells;
  cells.push_back(Cell{0.0, BatchAlgo::kGreedy});  // the online baseline
  for (double w : config.windows) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument(
          StrFormat("batch grid window must be >= 0, got %g", w));
    }
    for (BatchAlgo algo : config.algos) cells.push_back(Cell{w, algo});
  }

  const int32_t platforms = instance.PlatformCount();
  const size_t seed_count = static_cast<size_t>(config.seeds);
  std::vector<SimMetrics> slots(cells.size() * seed_count);

  // One immutable acceptance model shared by every cell (grid-constant).
  std::optional<AcceptanceModel> shared_acceptance;
  SimConfig base = config.sim;
  if (base.acceptance == nullptr) {
    shared_acceptance.emplace(instance, base.acceptance_mode,
                              base.reservation_seed);
    base.acceptance = &*shared_acceptance;
  }
  base.trace = nullptr;
  base.fault_plan = nullptr;  // batch mode refuses fault injection
  // In batch mode the "response time" is the virtual wait (window close -
  // arrival), deterministic and exactly the wait column we chart.
  base.measure_response_time = true;
  base.batch_mode = true;

  SweepOptions options;
  options.jobs = config.jobs;
  options.pool = config.pool;
  SweepRunner runner(options);
  COMX_RETURN_IF_ERROR(runner.Run(
      cells.size(), seed_count, [&](const SweepJob& job) -> Status {
        const Cell& cell = cells[job.config_index];
        SimConfig sim = base;
        sim.batch_window_seconds = cell.window_seconds;
        sim.batch.algo = cell.algo;
        std::vector<std::unique_ptr<OnlineMatcher>> owned;
        std::vector<OnlineMatcher*> matchers;
        for (PlatformId p = 0; p < platforms; ++p) {
          owned.push_back(std::make_unique<WindowGreedy>());
          matchers.push_back(owned.back().get());
        }
        COMX_ASSIGN_OR_RETURN(
            auto result,
            RunSimulation(instance, matchers, sim,
                          static_cast<uint64_t>(job.seed_index) * 7919 + 1));
        slots[job.job_index] = std::move(result.metrics);
        return Status::OK();
      }));

  const CellSummary baseline = Summarize(slots, 0, seed_count);
  std::vector<BatchGridRow> rows;
  for (size_t c = 1; c < cells.size(); ++c) {
    const CellSummary cell = Summarize(slots, c * seed_count, seed_count);
    BatchGridRow row;
    row.window_seconds = cells[c].window_seconds;
    row.algo = cells[c].algo;
    row.revenue = cell.revenue;
    row.online_revenue = baseline.revenue;
    row.gap = cell.revenue - baseline.revenue;
    row.mean_wait_seconds = cell.mean_wait_seconds;
    row.completed = cell.completed;
    rows.push_back(row);
  }
  return rows;
}

std::string RenderBatchGridTable(const std::string& title,
                                 const std::vector<BatchGridRow>& rows) {
  std::string out;
  out += StrFormat("\n=== %s ===\n", title.c_str());
  out += StrFormat("%8s %-14s %12s %12s %10s %9s %10s\n", "W(s)", "solver",
                   "revenue", "online", "gap", "wait(s)", "completed");
  for (const BatchGridRow& row : rows) {
    out += StrFormat("%8.1f %-14s %12.1f %12.1f %+10.1f %9.1f %10.1f\n",
                     row.window_seconds, BatchAlgoName(row.algo), row.revenue,
                     row.online_revenue, row.gap, row.mean_wait_seconds,
                     row.completed);
  }
  return out;
}

std::string BatchGridCsvHeader() {
  return "tag,window_s,solver,revenue,online_revenue,gap,mean_wait_s,"
         "completed\n";
}

std::string RenderBatchGridCsvRows(const std::string& tag,
                                   const std::vector<BatchGridRow>& rows) {
  std::string out;
  for (const BatchGridRow& row : rows) {
    out += StrFormat("%s,%.3f,%s,%.2f,%.2f,%.2f,%.3f,%.1f\n", tag.c_str(),
                     row.window_seconds, BatchAlgoName(row.algo), row.revenue,
                     row.online_revenue, row.gap, row.mean_wait_seconds,
                     row.completed);
  }
  return out;
}

}  // namespace exp
}  // namespace comx
