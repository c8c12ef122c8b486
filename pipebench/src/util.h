// Small helpers shared by the pipeline benchmark: a seeded RNG, a fast
// payload fingerprint, clocks, and quantiles.

#ifndef PIPEBENCH_UTIL_H_
#define PIPEBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace pipebench {

/// SplitMix64: a tiny, fully deterministic generator. Every input the
/// benchmark produces derives from the workload seed through it.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// 64-bit fingerprint of a payload, fast enough (several GB/s) to run in
/// the leaf endpoints during timed phases. Not the program's CRC: the
/// oracle must not share code with what it checks.
inline uint64_t Fingerprint(std::string_view data) {
  uint64_t h = 0x243F6A8885A308D3ull ^ data.size();
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001B3ull;
  }
  return h ^ (h >> 32);
}

/// Monotonic nanoseconds (span and phase timing).
inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User+system CPU seconds of `who` (RUSAGE_SELF, RUSAGE_THREAD).
inline double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Quantile by nearest rank on a copy of `v` (0 when empty).
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Quantile(v, 0.5);
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace pipebench

#endif  // PIPEBENCH_UTIL_H_
