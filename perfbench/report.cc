#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/dem_com.h"
#include "core/ram_com.h"
#include "sim/sim_engine.h"

namespace perfbench {

using comx::Status;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"decisions_per_s", "1/s"}, {"decision_p50_us", "us"},
      {"decision_p99_us", "us"},  {"revenue", "money"},
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"datagen.generate_s", "s"},
      {"pricing.acceptance_build_s", "s"},
      {"sim.engine_init_s", "s"},
      {"sim.lookup_calls", "count"},
      {"sim.lookup_s", "s"},
      {"sim.lookup_candidates_mean", "count"},
      {"sim.inner_hit_ratio", "ratio"},
      {"sim.distance_calls", "count"},
      {"sim.distance_s", "s"},
      {"sim.step_s", "s"},
      {"sim.commit_self_s", "s"},
      {"sim.rearrivals", "count"},
      {"core.matcher_self_s", "s"},
      {"core.outer_share", "ratio"},
      {"pricing.mer_quotes", "count"},
      {"pricing.mer_quote_s", "s"},
      {"pricing.mer_quote_p99_us", "us"},
      {"pricing.candidates_mean", "count"},
      {"pricing.candidates_p99", "count"},
      {"pricing.minpay_estimates", "count"},
      {"pricing.minpay_s", "s"},
      {"pricing.bisect_iterations", "count"},
      {"pricing.offer_accept_ratio", "ratio"},
      {"serve.submit_p99_us", "us"},
      {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"},
      {"serve.step_p50_us", "us"},
      {"serve.step_p99_us", "us"},
      {"serve.backlog_max", "count"},
      {"serve.wire_p50_us", "us"},
      {"serve.stall_replies", "count"},
      {"serve.client_p99_us", "us"},
      {"serve.gen_late_p99_us", "us"},
      {"matching.graph_build_s", "s"},
      {"matching.edges", "count"},
      {"matching.solve_self_s", "s"},
  };
  return defs;
}

Size WorkloadSize(const std::string& workload, bool tiny) {
  if (workload == "offline_bound") return tiny ? Size{200, 40} : Size{20000, 4000};
  if (tiny) return {600, 120};
  if (workload == "serve_open") return {25000, 5000};
  return {50000, 10000};
}

comx::SyntheticConfig GenConfig(Size size, uint64_t seed) {
  comx::SyntheticConfig config;
  config.platforms = 2;
  config.requests_per_platform = {size.requests};
  config.workers_per_platform = {size.workers};
  config.radius_km = 1.0;
  config.seed = seed;
  return config;
}

std::optional<Pin> PinnedValue(const Options& options, int64_t count) {
  struct Row {
    const char* workload;
    bool tiny;
    uint64_t seed;
    Pin pin;
  };
  // Recorded when the benchmark was introduced. The full-size replay totals
  // are the R100000_W20000 rows of BENCH_sweep.json; the serve total is the
  // one-shard R50k/W10k DemCOM figure.
  static const Row rows[] = {
      {"replay_demcom", false, 2020, {1582812.4077576813, 100000}},
      {"replay_ramcom", false, 2020, {1397404.7825459829, 100000}},
      {"serve_open", false, 2020, {765567.17904192011, 50000}},
      {"offline_bound", false, 2020, {283391.95183144405, 1370774}},
      {"replay_demcom", true, 2020, {6844.6915669405107, 1200}},
      {"replay_ramcom", true, 2020, {6818.6273384331662, 1200}},
      {"serve_open", true, 2020, {6844.6915669405107, 1200}},
      {"offline_bound", true, 2020, {1089.0446706780124, 134}},
  };
  std::optional<Pin> pin;
  for (const Row& row : rows) {
    if (options.workload == row.workload && options.tiny == row.tiny &&
        options.seed == row.seed) {
      pin = row.pin;
    }
  }
  if (options.expect_revenue) {
    pin = Pin{*options.expect_revenue, pin ? pin->count : count};
  }
  return pin;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::unique_ptr<comx::OnlineMatcher> MakeMatcher(const std::string& algo) {
  if (algo == "ramcom") return std::make_unique<comx::RamCom>();
  return std::make_unique<comx::DemCom>();
}

namespace {

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

}  // namespace

Status Prepare(const comx::SyntheticConfig& config, const std::string& algo,
               int reps, Prepared* out, std::vector<SetupTimes>* times) {
  for (int rep = 0; rep < reps; ++rep) {
    SetupTimes t;
    int64_t t0 = NowNanos();
    auto instance = comx::GenerateSynthetic(config);
    if (!instance.ok()) return instance.status();
    int64_t t1 = NowNanos();
    t.generate_s = Seconds(t1 - t0);
    out->model.reset();
    out->instance = std::move(*instance);
    t0 = NowNanos();
    out->model.emplace(out->instance);
    t1 = NowNanos();
    t.acceptance_s = Seconds(t1 - t0);

    std::vector<std::unique_ptr<comx::OnlineMatcher>> owned;
    std::vector<comx::OnlineMatcher*> matchers;
    for (int32_t p = 0; p < out->instance.PlatformCount(); ++p) {
      owned.push_back(MakeMatcher(algo));
      matchers.push_back(owned.back().get());
    }
    comx::SimConfig sim;
    sim.measure_response_time = false;
    sim.acceptance = &*out->model;
    comx::SimEngine engine;
    t0 = NowNanos();
    COMX_RETURN_IF_ERROR(engine.Init(out->instance, matchers, sim, kSimSeed));
    t1 = NowNanos();
    t.engine_init_s = Seconds(t1 - t0);
    times->push_back(t);
  }
  return Status::OK();
}

void ReportSetup(const std::vector<SetupTimes>& times, Report* report) {
  std::vector<double> total, gen, acc, init;
  for (const SetupTimes& t : times) {
    total.push_back(t.total_s());
    gen.push_back(t.generate_s);
    acc.push_back(t.acceptance_s);
    init.push_back(t.engine_init_s);
  }
  report->Set("setup_s", Median(total));
  report->Set("datagen.generate_s", Median(gen));
  report->Set("pricing.acceptance_build_s", Median(acc));
  report->Set("sim.engine_init_s", Median(init));
  char line[160];
  std::snprintf(line, sizeof(line),
                "setup: %zu reps, median %.4f s (generate %.4f, acceptance "
                "%.4f, engine init %.4f)",
                times.size(), Median(total), Median(gen), Median(acc),
                Median(init));
  report->Info(line);
}

void Report::Set(const std::string& name, double value) {
  bool known = false;
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *table) known = known || name == def.name;
  }
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) failures_.push_back(what);
}

void Report::Info(const std::string& line) const {
  std::printf("%s\n", line.c_str());
}

std::vector<std::string> Report::MissingEndToEnd() const {
  std::vector<std::string> missing;
  for (const MetricDef& def : EndToEndMetrics()) {
    if (values_.count(def.name) == 0) missing.push_back(def.name);
  }
  return missing;
}

std::string Report::JsonLine(bool trace) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values_.find(defs[i].name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == values_.end() ? 0.0 : it->second);
    out << (i == 0 ? "" : ", ") << "\"" << defs[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << defs[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
