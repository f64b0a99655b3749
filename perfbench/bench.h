// Shared pieces of the comx_perfbench binary: run options, the metric
// tables, the run report printed as the last stdout line, and the set-up
// step every in-process workload shares.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online_matcher.h"
#include "datagen/synthetic.h"
#include "model/instance.h"
#include "pricing/acceptance_model.h"
#include "util/status.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  /// Workload seed: the generator seed of the instance (replay_*,
  /// serve_open) or the reservation seed of the offline model
  /// (offline_bound, whose instance is fixed).
  uint64_t seed = 2020;
  /// Measured time budget: a run makes passes until this much time has
  /// gone, at least one (so it may overrun by up to one pass).
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: every workload on a small instance, for the tests.
  bool tiny = false;
  /// The comx_serve binary spawned by serve_open.
  std::string serve_bin;
  /// Replaces the pinned revenue (tests use it to prove the check bites).
  std::optional<double> expect_revenue;
  /// Forced generator stall before the middle event of the reporting rung
  /// of serve_open, milliseconds (tests use it to prove due-time timing).
  double gen_stall_ms = 0.0;
};

/// Seed of every matcher and simulation: fixed, so the workload seed alone
/// decides the inputs (and RamCOM draws the same threshold arm on every
/// instance).
inline constexpr uint64_t kSimSeed = 1;

/// Per-platform instance size of a workload.
struct Size {
  int64_t requests = 0;
  int64_t workers = 0;
};
Size WorkloadSize(const std::string& workload, bool tiny);

/// Synthetic instance config: two platforms, the generator defaults that
/// comx_serve also uses, and the workload seed.
comx::SyntheticConfig GenConfig(Size size, uint64_t seed);

/// Values a correct run must reproduce, pinned at one (workload, size,
/// seed). `count` is decisions for replay_* and serve_open, edges for
/// offline_bound.
struct Pin {
  double revenue = 0.0;
  int64_t count = 0;
};
/// The pin of this run, if any. --expect-revenue replaces the pinned revenue
/// (with `count` as the count when nothing is pinned).
std::optional<Pin> PinnedValue(const Options& options, int64_t count);

/// A fresh matcher: RamCOM for "ramcom", DemCOM otherwise.
std::unique_ptr<comx::OnlineMatcher> MakeMatcher(const std::string& algo);

/// Monotonic clock, nanoseconds.
int64_t NowNanos();
/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// Median (the mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);
/// Peak resident set (VmHWM) of `pid` ("self" when 0), MB; 0 if unreadable.
double PeakRssMb(int pid = 0);

/// One set-up of an in-process workload: generate the instance, build the
/// acceptance model, and Init a SimEngine over it.
struct SetupTimes {
  double generate_s = 0.0;
  double acceptance_s = 0.0;
  double engine_init_s = 0.0;
  double total_s() const { return generate_s + acceptance_s + engine_init_s; }
};
struct Prepared {
  comx::Instance instance;
  std::optional<comx::AcceptanceModel> model;
};
/// Runs the set-up `reps` times (the last result is kept in `out`) and
/// returns the per-rep timings. `algo` is "demcom" or "ramcom".
comx::Status Prepare(const comx::SyntheticConfig& config,
                     const std::string& algo, int reps, Prepared* out,
                     std::vector<SetupTimes>* times);
/// Medians of the set-up components, written as the setup_s end-to-end
/// metric and the three set-up layer metrics.
class Report;
void ReportSetup(const std::vector<SetupTimes>& times, Report* report);

/// Output of one run: the checks, the operation counts and the metrics.
class Report {
 public:
  /// Sets a metric by name; the name must be in one of the metric tables.
  void Set(const std::string& name, double value);
  /// Records a correctness check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  /// One human-readable line on stdout (never the last one).
  void Info(const std::string& line) const;

  bool correct() const { return failures_.empty(); }
  int64_t attempted = 0;
  int64_t failed = 0;

  /// The result object: the end-to-end metrics (untraced) or the per-layer
  /// metrics (traced). A layer the workload does not reach reads 0.
  std::string JsonLine(bool trace) const;
  /// Names of end-to-end metrics the run did not set.
  std::vector<std::string> MissingEndToEnd() const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// Metric tables: name and unit, in print order.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

comx::Status RunReplay(const Options& options, Report* report);
comx::Status RunServeOpen(const Options& options, Report* report);
comx::Status RunOffline(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
