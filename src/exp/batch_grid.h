// Batch-dispatch grid experiment: sweep the micro-batch window length
// crossed with the window-solver algorithm over an instance, and chart each
// point's revenue against the window-greedy online baseline (the same
// engine with window = 0, which dispatches per request). The headline
// output is the batch-vs-online revenue gap: batching trades user wait
// (requests sit until their window closes) for a better assignment, and the
// gap quantifies what the wait buys.
//
// Cells run on the sweep engine (exp/sweep_runner.h): per-cell slots,
// merged in job order, so any `jobs` setting is bit-identical to serial.
// The window = 0 row of any algorithm is bit-identical to the online
// baseline by the engine's window-0 equivalence, so its gap is exactly 0 —
// the property the batch test suite pins.

#ifndef COMX_EXP_BATCH_GRID_H_
#define COMX_EXP_BATCH_GRID_H_

#include <string>
#include <vector>

#include "exp/sweep_runner.h"
#include "matching/batch_matcher.h"
#include "model/instance.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace comx {
namespace exp {

/// One (window, algo) cell of the grid, averaged over the seeds.
struct BatchGridRow {
  double window_seconds = 0.0;
  BatchAlgo algo = BatchAlgo::kIncrementalKm;
  /// Mean total revenue across seeds (seed-order accumulation).
  double revenue = 0.0;
  /// Mean total revenue of the online (window = 0) baseline, same seeds.
  double online_revenue = 0.0;
  /// revenue - online_revenue (exactly 0.0 on any window = 0 row).
  double gap = 0.0;
  /// Mean simulated user wait in seconds (window close - arrival time),
  /// pooled over every batched request (served or rejected) of all seeds.
  double mean_wait_seconds = 0.0;
  /// Mean completed requests across seeds.
  double completed = 0.0;
};

struct BatchGridConfig {
  /// Base physics/acceptance knobs; the batch fields are overwritten per
  /// cell (and response-time measurement is forced on: in batch mode it
  /// records the virtual wait, which is deterministic).
  SimConfig sim;
  /// Seeds averaged per cell; seed s runs with simulation seed
  /// s * 7919 + 1 (the algo-grid schedule, so rows are comparable).
  int seeds = 3;
  /// Window lengths to sweep. 0 = per-request dispatch (the baseline).
  std::vector<double> windows = {0.0, 15.0, 30.0, 60.0, 120.0};
  /// Window solvers to cross with the windows.
  std::vector<BatchAlgo> algos = {BatchAlgo::kIncrementalKm};
  /// Worker threads (sweep-runner semantics); 0 = hardware concurrency.
  int jobs = 1;
  /// Optional caller-owned pool shared across sweeps (overrides `jobs`).
  ThreadPool* pool = nullptr;
};

/// Runs the window x algo grid plus the shared online baseline; returns
/// one row per (window, algo) in windows-major order.
Result<std::vector<BatchGridRow>> RunBatchGrid(const Instance& instance,
                                               const BatchGridConfig& config);

/// Renders rows as an aligned table (the bench binaries' stdout format).
std::string RenderBatchGridTable(const std::string& title,
                                 const std::vector<BatchGridRow>& rows);

/// CSV header line (with trailing newline) for RenderBatchGridCsvRows.
std::string BatchGridCsvHeader();

/// One CSV line per row, tagged with the sweep-point label.
std::string RenderBatchGridCsvRows(const std::string& tag,
                                   const std::vector<BatchGridRow>& rows);

}  // namespace exp
}  // namespace comx

#endif  // COMX_EXP_BATCH_GRID_H_
