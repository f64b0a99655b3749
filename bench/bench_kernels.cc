// Microbenchmark of the kernel layer (src/kernels/) backing the committed
// BENCH_kernels.json baseline. For each batch size (1k / 10k / 100k points)
// it times the batched kernels on the scalar backend and on the dispatched
// (cpuid-selected) backend, next to the historical per-call paths they
// replaced, and emits one flat JSON record per (op, path, size). Two more
// rows time the ECDF kernels' pricing callers — RamCOM's MER quote
// (pricing/mer_pricer.h) and DemCOM's Algorithm 2 estimate
// (pricing/min_payment_estimator.h) — and gate their output bits. One row
// times the simulator's candidate lookup (sim/worker_pool.h) on a full
// synthetic day and gates the returned ids.
//
// Deterministic fields — "checksum" (fixed-order sum over seeded inputs),
// "n", "survivors" — are identical on every host and backend (the kernel
// layer's bit-identity contract), so tools/bench_check gates them exactly
// like the sweep baseline. Timing fields (wall_, runs_per_sec, speedup_)
// are informational.
//
//   bench_kernels [--smoke] [--out PATH]
//
// --smoke shrinks the timing repetitions (the checksums are unaffected) so
// the tier-1 gate stays fast.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "datagen/synthetic.h"
#include "exp/bench_record.h"
#include "kernels/dispatch.h"
#include "kernels/ecdf_batch.h"
#include "kernels/geo_kernels.h"
#include "model/instance.h"
#include "obs/span.h"
#include "pricing/acceptance_model.h"
#include "pricing/history.h"
#include "pricing/mer_pricer.h"
#include "pricing/min_payment_estimator.h"
#include "sim/worker_pool.h"
#include "util/flags.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace comx;

// Defeats dead-code elimination of the timed kernel outputs.
volatile double g_sink = 0.0;

// Seconds per pass over the batch: runs `f` in groups sized so one
// measurement covers ~`target_elems` elements, repeated `reps` times, and
// keeps the fastest group (standard best-of-N to shed scheduler noise).
template <typename F>
double BestSecondsPerPass(F&& f, size_t n, size_t target_elems, int reps) {
  const int iters =
      static_cast<int>(std::max<size_t>(1, target_elems / std::max<size_t>(n, 1)));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch clock;
    for (int i = 0; i < iters; ++i) f();
    const double secs =
        static_cast<double>(clock.ElapsedNanos()) / 1e9 / iters;
    if (r == 0 || secs < best) best = secs;
  }
  return best;
}

// Deterministic per-size inputs, all drawn from one fixed-seed stream.
struct Inputs {
  // Planar points + per-point service radius² around a probe center.
  std::vector<double> xs, ys, radius2;
  double cx = 0.3, cy = -0.2, range2 = 36.0;
  // ECDF candidate ids + offered payment over a shared worker table.
  std::vector<int64_t> ids;
  double payment = 27.5;
};

Inputs MakeInputs(size_t n, size_t worker_count) {
  Inputs in;
  Rng rng(2020 + static_cast<uint64_t>(n));
  in.xs.reserve(n);
  in.ys.reserve(n);
  in.radius2.reserve(n);
  in.ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Two draws per point that fed the removed geodetic rows, kept so the
    // planar and ECDF inputs (and their committed checksums) stay put.
    rng.NextUint64();
    rng.NextUint64();
    in.xs.push_back(rng.Uniform(-15.0, 15.0));
    in.ys.push_back(rng.Uniform(-15.0, 15.0));
    const double radius = rng.Uniform(1.0, 8.0);
    in.radius2.push_back(radius * radius);
    in.ids.push_back(static_cast<int64_t>(i % worker_count));
  }
  return in;
}

struct Row {
  exp::BenchRecord record;
  double secs_per_pass = 0.0;
};

// One timed row: checksum from a single untimed pass (deterministic gate
// value), then the timing loop.
template <typename F>
Row TimeRow(const std::string& name, size_t n, double checksum, F&& pass,
            size_t target_elems, int reps) {
  Row row;
  pass();  // warm-up (and page in the output buffers)
  row.secs_per_pass = BestSecondsPerPass(pass, n, target_elems, reps);
  row.record.name = name;
  row.record.numbers["n"] = static_cast<double>(n);
  row.record.numbers["checksum"] = checksum;
  row.record.numbers["wall_seconds_per_pass"] = row.secs_per_pass;
  row.record.numbers["runs_per_sec"] =
      row.secs_per_pass > 0.0
          ? static_cast<double>(n) / row.secs_per_pass
          : 0.0;
  return row;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace comx;

  Flags flags(argc, argv);
  const bool smoke = flags.Has("--smoke");
  const std::string out = flags.Get("--out", "BENCH_kernels.json");
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  const size_t target_elems = smoke ? 20'000 : 4'000'000;
  const int reps = smoke ? 1 : 3;
  constexpr size_t kWorkers = 512;

  // Shared worker value-history table: the per-call path keeps one
  // ValueHistory per worker (pointer-chased vectors), the batch path the
  // flat EcdfIndex mirror — both built from identical draws.
  Rng hist_rng(7);
  std::vector<ValueHistory> histories;
  kernels::EcdfIndex ecdf;
  histories.reserve(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    const int64_t len = hist_rng.UniformInt(0, 64);
    std::vector<double> values;
    values.reserve(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      values.push_back(hist_rng.Uniform(5.0, 60.0));
    }
    histories.emplace_back(std::move(values));
    ecdf.AddWorker(histories.back().values().data(),
                   histories.back().values().size());
  }

  Stopwatch wall;
  std::vector<exp::BenchRecord> records;
  const std::vector<size_t> sizes = {1000, 10000, 100000};
  // Captured before any ForceBackendForTesting call so the "dispatch" rows
  // always use the backend cpuid would pick, not whatever a previous row
  // pinned.
  const kernels::Backend auto_backend = kernels::ActiveBackend();
  const std::vector<std::pair<const char*, kernels::Backend>> backends = {
      {"scalar", kernels::Backend::kScalar}, {"dispatch", auto_backend}};
  std::printf("bench_kernels: dispatched backend = %s%s\n",
              kernels::BackendName(auto_backend), smoke ? " (smoke)" : "");

  for (size_t n : sizes) {
    const Inputs in = MakeInputs(n, kWorkers);
    std::vector<double> buf(n);
    std::vector<int32_t> idx(n);
    std::vector<double> d2(n);

    // -- squared distance + fused filter per backend --
    for (const auto& [path, backend] : backends) {
      kernels::ForceBackendForTesting(backend);

      const auto sqdist = [&] {
        kernels::BatchSquaredDistance(in.xs.data(), in.ys.data(), n, in.cx,
                                      in.cy, buf.data());
        g_sink += buf[0] + buf[n - 1];
      };
      sqdist();
      records.push_back(TimeRow("kernels.sqdist_batch." + std::string(path) +
                                    ".n" + std::to_string(n),
                                n, Sum(buf), sqdist, target_elems, reps)
                            .record);

      size_t survivors = 0;
      const auto filter = [&] {
        survivors = kernels::FilterInRange(in.xs.data(), in.ys.data(),
                                           in.radius2.data(), n, in.cx, in.cy,
                                           in.range2, idx.data(), d2.data());
        g_sink += survivors > 0 ? d2[0] : 0.0;
      };
      filter();
      double checksum = static_cast<double>(survivors);
      for (size_t i = 0; i < survivors; ++i) {
        checksum += static_cast<double>(idx[i]) + d2[i];
      }
      Row row = TimeRow("kernels.filter_range." + std::string(path) + ".n" +
                            std::to_string(n),
                        n, checksum, filter, target_elems, reps);
      row.record.numbers["survivors"] = static_cast<double>(survivors);
      records.push_back(std::move(row.record));
    }
    kernels::ResetDispatchForTesting();

    // -- ECDF: per-call ValueHistory::Ecdf vs flat batched index --
    const auto ecdf_percall = [&] {
      for (size_t i = 0; i < n; ++i) {
        buf[i] =
            histories[static_cast<size_t>(in.ids[i])].Ecdf(in.payment);
      }
      g_sink += buf[0] + buf[n - 1];
    };
    ecdf_percall();
    const double ecdf_checksum = Sum(buf);
    Row ecdf_ref = TimeRow("kernels.ecdf_percall.n" + std::to_string(n), n,
                           ecdf_checksum, ecdf_percall, target_elems, reps);
    const double ecdf_percall_secs = ecdf_ref.secs_per_pass;
    records.push_back(std::move(ecdf_ref.record));

    const auto ecdf_batch = [&] {
      ecdf.BatchEvaluate(in.ids.data(), n, in.payment, buf.data());
      g_sink += buf[0] + buf[n - 1];
    };
    ecdf_batch();
    Row ecdf_row = TimeRow("kernels.ecdf_batch.n" + std::to_string(n), n,
                           Sum(buf), ecdf_batch, target_elems, reps);
    ecdf_row.record.numbers["speedup_vs_percall"] =
        ecdf_row.secs_per_pass > 0.0
            ? ecdf_percall_secs / ecdf_row.secs_per_pass
            : 0.0;
    records.push_back(std::move(ecdf_row.record));

    std::printf("n=%-7zu done\n", n);
  }

  // -- pricing: RamCOM's MER quote over seeded candidate sets. Histories
  // are shaped like the synthetic generator's (each worker's values sit
  // within +-5% of its own reservation level, levels spread across
  // workers). The gate field folds the bits of every quote (payment,
  // acceptance probability, expected revenue) into a 53-bit FNV-1a hash,
  // so any change to any quote shows; wall_ns_per_quote is informational
  // like all timing. --
  {
    Rng quote_rng(2020);
    Instance ins;
    for (size_t w = 0; w < kWorkers; ++w) {
      Worker worker;
      const double level = quote_rng.Uniform(10.0, 60.0);
      const int64_t len = quote_rng.UniformInt(0, 64);
      for (int64_t i = 0; i < len; ++i) {
        worker.history.push_back(level * quote_rng.Uniform(0.95, 1.05));
      }
      ins.AddWorker(std::move(worker));
    }
    ins.BuildEvents();
    const AcceptanceModel model(ins);
    constexpr size_t kQuotes = 500;
    std::vector<std::vector<WorkerId>> candidate_sets(kQuotes);
    std::vector<double> values(kQuotes);
    for (size_t q = 0; q < kQuotes; ++q) {
      const int64_t k = quote_rng.UniformInt(1, 96);
      for (int64_t i = 0; i < k; ++i) {
        candidate_sets[q].push_back(quote_rng.UniformInt(
            0, static_cast<int64_t>(kWorkers) - 1));
      }
      values[q] = quote_rng.Uniform(5.0, 100.0);
    }
    const auto quote_pass = [&] {
      for (size_t q = 0; q < kQuotes; ++q) {
        g_sink += ComputeMerQuote(model, candidate_sets[q], values[q]).payment;
      }
    };
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (size_t q = 0; q < kQuotes; ++q) {
      const MerQuote quote =
          ComputeMerQuote(model, candidate_sets[q], values[q]);
      for (double x : {quote.payment, quote.accept_probability,
                       quote.expected_revenue}) {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        hash = (hash ^ bits) * 0x100000001b3ULL;
      }
    }
    Row row = TimeRow("pricing.mer_quote", kQuotes,
                      static_cast<double>(hash >> 11), quote_pass,
                      smoke ? 1'000 : 50'000, reps);
    row.record.numbers["wall_ns_per_quote"] =
        row.secs_per_pass / static_cast<double>(kQuotes) * 1e9;
    std::printf("  %-40s %8.1f ns/quote\n", row.record.name.c_str(),
                row.record.numbers["wall_ns_per_quote"]);
    records.push_back(std::move(row.record));

    // -- pricing: DemCOM's Algorithm 2 estimate (pricing/
    // min_payment_estimator.h) with the default accuracy knobs, over
    // seeded candidate sets against the same model, all drawing from one
    // Rng stream. The gate field folds each estimate's payment bits, its
    // bisection iteration count and the Rng state after it into a 53-bit
    // FNV-1a hash, so a change to any payment or to the draw sequence
    // shows; wall_ns_per_estimate is informational. --
    Rng set_rng(2021);
    constexpr size_t kEstimates = 500;
    std::vector<std::vector<WorkerId>> estimate_sets(kEstimates);
    std::vector<double> estimate_values(kEstimates);
    for (size_t e = 0; e < kEstimates; ++e) {
      const int64_t k = set_rng.UniformInt(1, 64);
      for (int64_t i = 0; i < k; ++i) {
        estimate_sets[e].push_back(set_rng.UniformInt(
            0, static_cast<int64_t>(kWorkers) - 1));
      }
      estimate_values[e] = set_rng.Uniform(5.0, 100.0);
    }
    const auto estimate_pass = [&] {
      Rng draw_rng(2022);
      for (size_t e = 0; e < kEstimates; ++e) {
        g_sink += EstimateMinOuterPayment(model, estimate_sets[e],
                                          estimate_values[e], {}, &draw_rng)
                      .payment;
      }
    };
    uint64_t estimate_hash = 0xcbf29ce484222325ULL;
    Rng draw_rng(2022);
    for (size_t e = 0; e < kEstimates; ++e) {
      const MinPaymentEstimate est = EstimateMinOuterPayment(
          model, estimate_sets[e], estimate_values[e], {}, &draw_rng);
      uint64_t words[6];
      std::memcpy(&words[0], &est.payment, sizeof(words[0]));
      words[1] = static_cast<uint64_t>(est.bisect_iterations);
      const Rng::State state = draw_rng.SaveState();
      for (int i = 0; i < 4; ++i) words[2 + i] = state.s[i];
      for (uint64_t word : words) {
        estimate_hash = (estimate_hash ^ word) * 0x100000001b3ULL;
      }
    }
    Row estimate_row = TimeRow("pricing.min_payment", kEstimates,
                               static_cast<double>(estimate_hash >> 11),
                               estimate_pass, smoke ? 1'000 : 50'000, reps);
    estimate_row.record.numbers["wall_ns_per_estimate"] =
        estimate_row.secs_per_pass / static_cast<double>(kEstimates) * 1e9;
    std::printf("  %-40s %8.1f ns/estimate\n",
                estimate_row.record.name.c_str(),
                estimate_row.record.numbers["wall_ns_per_estimate"]);
    records.push_back(std::move(estimate_row.record));
  }

  // -- sim: WorkerPool::FeasibleWorkers, the candidate lookup behind every
  // online decision, on the R20k/W4k synthetic day (`comx_cli gen
  // --requests 20000 --workers 4000 --seed 2020`: 2 platforms, per-platform
  // counts). Every worker arrives at its start point; a seeded 30% are then
  // occupied and half of those re-arrive at a seeded request's location and
  // time (the recycle path). The pass is every request's inner and outer
  // lookup against that fixed pool. The gate field folds every returned id,
  // in order, into a 53-bit FNV-1a hash, so a change to any candidate set or
  // its order shows; wall_ns_per_lookup is informational. --
  {
    SyntheticConfig day_config;
    day_config.requests_per_platform = {20000};
    day_config.workers_per_platform = {4000};
    day_config.seed = 2020;
    Result<Instance> day = GenerateSynthetic(day_config);
    if (!day.ok()) {
      std::fprintf(stderr, "sim.feasible_workers: %s\n",
                   day.status().ToString().c_str());
      return 1;
    }
    const Instance& ins = *day;
    WorkerPool pool(ins);
    Rng pool_rng(2020);
    Status built = Status::OK();
    for (const Worker& w : ins.workers()) {
      if (built.ok()) built = pool.OnArrival(w.id, w.location, w.time);
    }
    const int64_t last_request = static_cast<int64_t>(ins.requests().size()) - 1;
    for (const Worker& w : ins.workers()) {
      if (!built.ok() || pool_rng.Uniform(0.0, 1.0) >= 0.3) continue;
      built = pool.MarkOccupied(w.id);
      if (built.ok() && pool_rng.Uniform(0.0, 1.0) < 0.5) {
        const Request& r = ins.request(pool_rng.UniformInt(0, last_request));
        built = pool.OnArrival(w.id, r.location, r.time);
      }
    }
    if (!built.ok()) {
      std::fprintf(stderr, "sim.feasible_workers: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    const size_t lookups = 2 * ins.requests().size();
    const auto lookup_pass = [&] {
      for (const Request& r : ins.requests()) {
        g_sink += static_cast<double>(
            pool.FeasibleWorkers(r, r.platform, true).size() +
            pool.FeasibleWorkers(r, r.platform, false).size());
      }
    };
    uint64_t lookup_hash = 0xcbf29ce484222325ULL;
    for (const Request& r : ins.requests()) {
      for (const bool inner : {true, false}) {
        for (const WorkerId id : pool.FeasibleWorkers(r, r.platform, inner)) {
          lookup_hash =
              (lookup_hash ^ static_cast<uint64_t>(id)) * 0x100000001b3ULL;
        }
        // Separator, so ids cannot shift between adjacent lookups unseen.
        lookup_hash = (lookup_hash ^ ~0ULL) * 0x100000001b3ULL;
      }
    }
    Row row = TimeRow("sim.feasible_workers", lookups,
                      static_cast<double>(lookup_hash >> 11), lookup_pass,
                      lookups, reps);
    row.record.numbers["wall_ns_per_lookup"] =
        row.secs_per_pass / static_cast<double>(lookups) * 1e9;
    std::printf("  %-40s %8.1f ns/lookup\n", row.record.name.c_str(),
                row.record.numbers["wall_ns_per_lookup"]);
    records.push_back(std::move(row.record));
  }

  // -- observability: ScopedSpan record cost (budget: < 50 ns/record on the
  // enabled path; the disabled path is two relaxed loads and a branch). The
  // deterministic gate field is the histogram count delta of one untimed
  // pass (== n); wall_ns_per_record is informational like all timing. --
  {
    const size_t n = 100'000;
    const bool was_enabled = obs::CollectionEnabled();
    obs::SetCollectionEnabled(true);
    static const obs::SpanSite site("bench_span");
    const auto span_pass = [&] {
      for (size_t i = 0; i < n; ++i) {
        obs::ScopedSpan span(site);
      }
    };
    const int64_t before = site.histogram()->Count();
    span_pass();
    const double recorded =
        static_cast<double>(site.histogram()->Count() - before);
    Row on = TimeRow("obs.span_record.enabled.n" + std::to_string(n), n,
                     recorded, span_pass, target_elems, reps);
    on.record.numbers["wall_ns_per_record"] =
        on.secs_per_pass / static_cast<double>(n) * 1e9;
    std::printf("  %-40s %8.1f ns/record (budget 50)\n",
                on.record.name.c_str(),
                on.record.numbers["wall_ns_per_record"]);
    records.push_back(std::move(on.record));

    obs::SetSpansDisabled(true);
    const int64_t off_before = site.histogram()->Count();
    span_pass();
    const double off_recorded =
        static_cast<double>(site.histogram()->Count() - off_before);
    Row off = TimeRow("obs.span_record.disabled.n" + std::to_string(n), n,
                      off_recorded, span_pass, target_elems, reps);
    off.record.numbers["wall_ns_per_record"] =
        off.secs_per_pass / static_cast<double>(n) * 1e9;
    records.push_back(std::move(off.record));
    obs::SetSpansDisabled(false);
    obs::SetCollectionEnabled(was_enabled);
  }

  exp::BenchRecord summary;
  summary.name = "summary";
  summary.numbers["rows"] = static_cast<double>(records.size());
  summary.numbers["wall_seconds"] = wall.ElapsedNanos() / 1e9;
  summary.numbers["rss_mb"] = static_cast<double>(CurrentRssBytes()) / 1e6;
  records.push_back(std::move(summary));

  if (Status st = exp::WriteBenchRecords(out, records); !st.ok()) {
    std::fprintf(stderr, "write %s: %s\n", out.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  for (const exp::BenchRecord& r : records) {
    const auto speedup = r.numbers.find("speedup_vs_percall");
    if (speedup != r.numbers.end()) {
      std::printf("  %-40s %8.2fx vs per-call\n", r.name.c_str(),
                  speedup->second);
    }
  }
  std::printf("wrote %s: %zu records in %.2fs\n", out.c_str(), records.size(),
              wall.ElapsedNanos() / 1e9);
  return 0;
}
