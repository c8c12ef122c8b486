#include "obs/metrics.h"

#include <cassert>
#include <cmath>

namespace bistro {

Histogram::Histogram(Options options) {
  if (options.min_bound < 1) options.min_bound = 1;
  if (options.growth < 1.1) options.growth = 1.1;
  if (options.num_buckets == 0) options.num_buckets = 1;
  bounds_.reserve(options.num_buckets);
  double bound = static_cast<double>(options.min_bound);
  int64_t last = 0;
  for (size_t i = 0; i < options.num_buckets; ++i) {
    int64_t b = static_cast<int64_t>(std::llround(bound));
    if (b <= last) b = last + 1;  // keep bounds strictly increasing
    bounds_.push_back(b);
    last = b;
    bound *= options.growth;
  }
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  // Lower-bound search: first bucket whose upper bound >= value.
  size_t lo = 0, hi = bounds_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (bounds_[mid] < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  buckets_[lo].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::Quantile(double q) const {
  uint64_t n = Count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += BucketCount(i);
    if (cumulative >= rank) return std::min(bounds_[i], Max());
  }
  return Max();  // rank falls in the overflow bucket
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.counter == nullptr) {
    assert(e.gauge == nullptr && e.histogram == nullptr &&
           "metric re-registered with a different type");
    e.type = MetricSnapshot::Type::kCounter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.gauge == nullptr) {
    assert(e.counter == nullptr && e.histogram == nullptr &&
           "metric re-registered with a different type");
    e.type = MetricSnapshot::Type::kGauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         Histogram::Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (e.histogram == nullptr) {
    assert(e.counter == nullptr && e.gauge == nullptr &&
           "metric re-registered with a different type");
    e.type = MetricSnapshot::Type::kHistogram;
    e.help = help;
    e.histogram = std::make_unique<Histogram>(options);
  }
  return e.histogram.get();
}

void MetricsRegistry::AddCollectHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hooks_.push_back(std::move(hook));
}

std::vector<MetricSnapshot> MetricsRegistry::Collect() {
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hooks = hooks_;
  }
  for (const auto& hook : hooks) hook();

  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, e] : metrics_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.help = e.help;
    snap.type = e.type;
    switch (e.type) {
      case MetricSnapshot::Type::kCounter:
        snap.counter_value = e.counter->value();
        break;
      case MetricSnapshot::Type::kGauge:
        snap.gauge_value = e.gauge->value();
        break;
      case MetricSnapshot::Type::kHistogram: {
        const Histogram& h = *e.histogram;
        snap.bounds = h.bounds();
        snap.buckets.reserve(snap.bounds.size() + 1);
        for (size_t i = 0; i <= snap.bounds.size(); ++i) {
          snap.buckets.push_back(h.BucketCount(i));
        }
        snap.count = h.Count();
        snap.sum = h.Sum();
        snap.max = h.Max();
        snap.p50 = h.Quantile(0.50);
        snap.p95 = h.Quantile(0.95);
        snap.p99 = h.Quantile(0.99);
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void BridgeProcessCounter(MetricsRegistry* registry, const std::string& name,
                          const std::string& help,
                          std::function<uint64_t()> read) {
  Counter* counter = registry->GetCounter(name, help);
  auto seen = std::make_shared<std::atomic<uint64_t>>(0);
  registry->AddCollectHook([counter, seen, read = std::move(read)] {
    uint64_t cur = read();
    uint64_t prev = seen->exchange(cur, std::memory_order_relaxed);
    if (cur > prev) counter->Increment(cur - prev);
  });
}

}  // namespace bistro
