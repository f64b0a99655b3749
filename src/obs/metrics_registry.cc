#include "obs/metrics_registry.h"

#include <algorithm>

namespace comx {
namespace obs {

namespace internal {

std::atomic<bool> g_collection_enabled{false};

namespace {
std::atomic<size_t> g_next_shard{0};
}  // namespace

size_t ThisThreadShard() {
  thread_local const size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return shard;
}

}  // namespace internal

void SetCollectionEnabled(bool enabled) {
  internal::g_collection_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string MetricName(std::string_view base, std::string_view label,
                       std::string_view value) {
  std::string out(base);
  out += '{';
  out += label;
  out += "=\"";
  out += EscapeLabelValue(value);
  out += "\"}";
  return out;
}

std::string MetricName(std::string_view base, std::string_view label,
                       int64_t value) {
  return MetricName(base, label, std::to_string(value));
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const CounterCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (CounterCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds)) {
  const size_t buckets = bounds_.size() + 1;
  for (Shard& shard : shards_) {
    shard.counts = std::make_unique<std::atomic<int64_t>[]>(buckets);
    for (size_t i = 0; i < buckets; ++i) {
      shard.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double v) {
  if (!CollectionEnabled()) return;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& shard = shards_[internal::ThisThreadShard()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t i = 0; i < bounds_.size() + 1; ++i) {
      shard.counts[i].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(
                          new Counter(std::string(name), std::string(help))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(
                          new Gauge(std::string(name), std::string(help))))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), std::string(help),
                                        std::move(bounds))))
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetLatencyHistogram(
    std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    it = latencies_
             .emplace(std::string(name),
                      std::make_unique<LatencyHistogram>(std::string(name),
                                                         std::string(help)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->help(), counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->help(), gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back({name, hist->help(), hist->bounds(),
                               hist->BucketCounts(), hist->Count(),
                               hist->Sum()});
  }
  snap.latencies.reserve(latencies_.size());
  for (const auto& [name, hist] : latencies_) {
    snap.latencies.push_back({name, hist->help(), hist->Snapshot()});
  }
  return snap;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
  for (auto& [name, hist] : latencies_) hist->Reset();
}

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  // Snapshot vectors are sorted by name (std::map iteration order), and
  // names are only ever added, so `before` is a subsequence of `after` —
  // a single merge pass suffices.
  MetricsSnapshot diff;
  diff.counters.reserve(after.counters.size());
  size_t bi = 0;
  for (const CounterSample& a : after.counters) {
    CounterSample d = a;
    if (bi < before.counters.size() && before.counters[bi].name == a.name) {
      d.value -= before.counters[bi].value;
      ++bi;
    }
    diff.counters.push_back(std::move(d));
  }
  // Gauges are last-write-wins: report the after value as-is.
  diff.gauges = after.gauges;
  size_t hi = 0;
  diff.histograms.reserve(after.histograms.size());
  for (const HistogramSample& a : after.histograms) {
    HistogramSample d = a;
    if (hi < before.histograms.size() &&
        before.histograms[hi].name == a.name) {
      const HistogramSample& b = before.histograms[hi];
      for (size_t i = 0; i < d.counts.size() && i < b.counts.size(); ++i) {
        d.counts[i] -= b.counts[i];
      }
      d.count -= b.count;
      d.sum -= b.sum;
      ++hi;
    }
    diff.histograms.push_back(std::move(d));
  }
  // Latency samples subtract like histograms; max is not diffable (only
  // the larger of the two windows is known), so the diff keeps `after`'s
  // max, which upper-bounds the interval's true max.
  size_t li = 0;
  diff.latencies.reserve(after.latencies.size());
  for (const LatencySample& a : after.latencies) {
    LatencySample d = a;
    if (li < before.latencies.size() &&
        before.latencies[li].name == a.name) {
      const LatencySnapshot& b = before.latencies[li].latency;
      for (size_t i = 0;
           i < d.latency.counts.size() && i < b.counts.size(); ++i) {
        d.latency.counts[i] -= b.counts[i];
      }
      d.latency.count -= b.count;
      d.latency.sum_nanos -= b.sum_nanos;
      ++li;
    }
    diff.latencies.push_back(std::move(d));
  }
  return diff;
}

}  // namespace obs
}  // namespace comx
