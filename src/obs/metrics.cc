#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>

#include "common/check.h"

namespace osd {
namespace obs {

int LatencyBucketIndex(double seconds) {
  OSD_DCHECK(std::isfinite(seconds));
  const double us = seconds * 1e6;
  if (us <= 1.0) return 0;
  // ceil, not floor+1: bucket b is (2^(b-1), 2^b], so a sample exactly on
  // a power of two belongs to the LOWER bucket — the exposition publishes
  // the bucket bound as an inclusive `le`, and Prometheus cumulative
  // semantics require the boundary sample to be counted under it.
  const int b = static_cast<int>(std::ceil(std::log2(us)));
  return std::clamp(b, 1, kLatencyBuckets - 1);
}

double LatencyBucketUpperSeconds(int bucket) {
  return std::ldexp(1.0, bucket) * 1e-6;
}

namespace internal {

int ThisShard() {
  // Sequentially assigned, cached per thread: threads get distinct shards
  // until kMetricShards are in use, then wrap.
  static std::atomic<unsigned> next{0};
  thread_local int shard =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                       kMetricShards);
  return shard;
}

}  // namespace internal

namespace {

// Lock-free running extreme: retry only while `value` still beats the
// slot, so an uncontended shard costs one load.
template <typename Beats>
void AtomicExtreme(std::atomic<double>& slot, double value, Beats beats) {
  double seen = slot.load(std::memory_order_relaxed);
  while (beats(value, seen) &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Observe(double seconds) {
  Shard& shard = shards_[internal::ThisShard()];
  // NaN survives std::max, and the float-to-int cast of log2(NaN) in the
  // bucket math is UB: non-finite samples are counted, never bucketed.
  if (!std::isfinite(seconds)) {
    shard.invalid.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  seconds = std::max(seconds, 0.0);
  shard.buckets[LatencyBucketIndex(seconds)].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(seconds, std::memory_order_relaxed);
  AtomicExtreme(shard.min, seconds, std::less<>());
  AtomicExtreme(shard.max, seconds, std::greater<>());
}

long Histogram::Count() const {
  long total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

long Histogram::Invalid() const {
  long total = 0;
  for (const Shard& s : shards_) {
    total += s.invalid.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Min() const {
  double lowest = std::numeric_limits<double>::infinity();
  for (const Shard& s : shards_) {
    lowest = std::min(lowest, s.min.load(std::memory_order_relaxed));
  }
  return std::isinf(lowest) ? 0.0 : lowest;
}

double Histogram::Max() const {
  double highest = 0.0;
  for (const Shard& s : shards_) {
    highest = std::max(highest, s.max.load(std::memory_order_relaxed));
  }
  return highest;
}

double Histogram::Mean() const {
  const long count = Count();
  return count == 0 ? 0.0 : Sum() / count;
}

std::array<long, kLatencyBuckets> Histogram::Buckets() const {
  std::array<long, kLatencyBuckets> out{};
  for (const Shard& s : shards_) {
    for (int b = 0; b < kLatencyBuckets; ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::Quantile(double q) const {
  const std::array<long, kLatencyBuckets> buckets = Buckets();
  long count = 0;
  for (long n : buckets) count += n;
  if (count == 0) return 0.0;
  // min/max are read after the buckets, so a concurrent first Observe can
  // leave them momentarily unset or crossed; min/max rather than
  // std::clamp keeps that case defined.
  const double lowest = Min();
  const double highest = std::max(Max(), lowest);
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  long cum = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] >= target) {
      const double frac = (target - cum) / buckets[b];
      const double lo = b == 0 ? 0.0 : LatencyBucketUpperSeconds(b - 1);
      const double hi = LatencyBucketUpperSeconds(b);
      return std::min(std::max(lo + frac * (hi - lo), lowest), highest);
    }
    cum += buckets[b];
  }
  return highest;
}

std::string MetricFamily(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

template <typename T>
T& MetricsRegistry::GetOrCreate(const std::string& name,
                                const std::string& help, MetricType type,
                                std::deque<T>& store, T* Entry::*slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    OSD_CHECK(it->second.type == type);
    return *(it->second.*slot);
  }
  Entry entry;
  entry.type = type;
  entry.family = MetricFamily(name);
  // std::map nodes are stable, so the entry can keep a pointer to the help.
  entry.help = &help_by_family_.emplace(entry.family, help).first->second;
  entry.*slot = &store.emplace_back();
  by_name_.emplace(name, std::move(entry));
  return store.back();
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetOrCreate(name, help, MetricType::kCounter, counters_,
                     &Entry::counter);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetOrCreate(name, help, MetricType::kGauge, gauges_, &Entry::gauge);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  // Histogram exposition splices `le` labels into the name, so baked-in
  // labels are not supported on histograms.
  OSD_CHECK(name.find('{') == std::string::npos);
  return GetOrCreate(name, help, MetricType::kHistogram, histograms_,
                     &Entry::histogram);
}

std::vector<MetricSnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(by_name_.size());
  for (const auto& [name, entry] : by_name_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.family = entry.family;
    snap.help = *entry.help;
    snap.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        snap.value = static_cast<double>(entry.counter->Value());
        break;
      case MetricType::kGauge:
        snap.value = entry.gauge->Value();
        break;
      case MetricType::kHistogram: {
        snap.count = entry.histogram->Count();
        snap.invalid = entry.histogram->Invalid();
        snap.sum = entry.histogram->Sum();
        const auto buckets = entry.histogram->Buckets();
        snap.buckets.assign(buckets.begin(), buckets.end());
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace obs
}  // namespace osd
