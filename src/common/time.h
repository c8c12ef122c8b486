#ifndef BISTRO_COMMON_TIME_H_
#define BISTRO_COMMON_TIME_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace bistro {

/// Microseconds since the Unix epoch. All Bistro timestamps use this unit.
using TimePoint = int64_t;
/// Microseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// Broken-down civil time (UTC). Used by the pattern language to assemble
/// timestamps from filename fields and by the normalizer to render them.
struct CivilTime {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31
  int hour = 0;
  int minute = 0;
  int second = 0;

  bool operator==(const CivilTime&) const = default;
};

/// Converts civil UTC time to a TimePoint. Out-of-range fields are
/// normalized arithmetically (e.g. month 13 -> next year's January).
TimePoint FromCivil(const CivilTime& c);

/// Converts a TimePoint to civil UTC time (drops sub-second precision).
CivilTime ToCivil(TimePoint t);

/// Formats as "YYYY-MM-DD HH:MM:SS" (UTC).
std::string FormatTime(TimePoint t);

/// Formats a duration in adaptive units ("1.5s", "230ms", "3m12s").
std::string FormatDuration(Duration d);

/// Parses "YYYY-MM-DD HH:MM:SS" or "YYYY-MM-DD".
std::optional<TimePoint> ParseTime(std::string_view s);

/// Parses a config-style duration: "500ms", "30s", "5m", "2h", "1d".
/// Returns nullopt when the value does not fit int64 microseconds.
std::optional<Duration> ParseDuration(std::string_view s);

/// Clock abstraction so every Bistro component can run under real time
/// (examples, live deployments) or simulated time (tests, benchmarks).
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time.
  virtual TimePoint Now() const = 0;
  /// Blocks (or advances simulated time) for `d`.
  virtual void SleepFor(Duration d) = 0;
};

/// Wall-clock implementation.
class RealClock : public Clock {
 public:
  TimePoint Now() const override;
  void SleepFor(Duration d) override;

  /// Process-wide shared instance.
  static RealClock* Get();
};

/// Manually advanced clock for deterministic tests and simulations.
///
/// Thread-safe: SleepFor() blocks the calling thread until another thread
/// advances the clock past the wakeup point, which lets multi-threaded
/// components run under simulated time.
class SimClock : public Clock {
 public:
  explicit SimClock(TimePoint start = 0) : now_(start) {}

  TimePoint Now() const override;
  void SleepFor(Duration d) override;

  /// Advances the clock, waking any sleepers whose deadline passed.
  void AdvanceTo(TimePoint t);
  void Advance(Duration d);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  TimePoint now_;
};

}  // namespace bistro

#endif  // BISTRO_COMMON_TIME_H_
