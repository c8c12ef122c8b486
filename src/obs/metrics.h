#ifndef BISTRO_OBS_METRICS_H_
#define BISTRO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.h"

namespace bistro {

/// Monotonically increasing event count. Hot-path cheap: one relaxed
/// atomic add; safe from any thread.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (queue depths, stalled-feed counts).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-scale histogram of non-negative integer samples (microsecond
/// latencies, byte sizes). Bucket upper bounds grow geometrically from
/// `min_bound`; samples above the last bound land in an overflow bucket.
///
/// Recording is a couple of relaxed atomic adds, cheap enough for hot
/// paths. Quantiles are resolved to the upper bound of the containing
/// bucket, capped at the exact observed maximum — so a histogram whose
/// samples sit on bucket boundaries reports them exactly, and
/// Quantile(1.0) is always the true max. Deterministic: identical sample
/// sequences (e.g. under SimClock) produce identical quantiles.
class Histogram {
 public:
  struct Options {
    Options() {}
    /// Upper bound of the first bucket (samples <= min_bound, including 0).
    int64_t min_bound = 1;
    /// Geometric growth factor between consecutive bucket bounds.
    double growth = 2.0;
    /// Number of bounded buckets (an overflow bucket is always added).
    size_t num_buckets = 40;
  };

  explicit Histogram(Options options = Options());

  void Record(int64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact largest recorded sample (0 when empty).
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Value at quantile `q` in [0, 1]; 0 when empty. See class comment for
  /// resolution guarantees.
  int64_t Quantile(double q) const;

  /// Bounded-bucket upper bounds, ascending.
  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Count in bucket `i`; `i == bounds().size()` is the overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<int64_t> bounds_;
  /// bounds_.size() + 1 entries; the last is the overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Point-in-time copy of one registered metric, for exporters.
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  Type type = Type::kCounter;

  uint64_t counter_value = 0;  // kCounter
  int64_t gauge_value = 0;     // kGauge

  // kHistogram:
  std::vector<int64_t> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
};

/// Process- or server-scoped registry of named metrics (paper §3.2:
/// "extensive logging to track the status of all the feeds, monitor
/// their progress").
///
/// Names follow `bistro_<subsystem>_<name>` (counters end in `_total`,
/// durations in `_us`). Get* registers on first use and returns the same
/// stable pointer for the same name afterwards, so independent components
/// (e.g. two WALs) can share one aggregate counter. Registration takes a
/// lock; the returned objects are lock-free to update.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Histogram::Options options = Histogram::Options());

  /// Registers a callback run at the start of every Collect() — used to
  /// refresh gauges that mirror external state (queue depths etc.).
  /// Callbacks must guard against their captured objects being destroyed
  /// (weak_ptr token), as the registry may outlive them.
  void AddCollectHook(std::function<void()> hook);

  /// Snapshots every registered metric, sorted by name.
  std::vector<MetricSnapshot> Collect();

  /// Number of registered metrics.
  size_t size() const;

 private:
  struct Entry {
    MetricSnapshot::Type type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::function<void()>> hooks_;
};

/// Bridges a process-wide monotonic total kept outside any registry (the
/// codecs' and the CRC kernel's raw atomics) into counter `name` of
/// `registry`: a collect hook pushes whatever `read()` grew by since the
/// previous collect, starting from zero.
void BridgeProcessCounter(MetricsRegistry* registry, const std::string& name,
                          const std::string& help,
                          std::function<uint64_t()> read);

}  // namespace bistro

#endif  // BISTRO_OBS_METRICS_H_
