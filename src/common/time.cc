#include "common/time.h"

#include <chrono>
#include <thread>

#include "common/strings.h"

namespace bistro {

namespace {

// Days since epoch for a civil date, using the classic Howard Hinnant
// algorithm (valid for a far wider range than we need).
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned dd = doy - (153 * mp + 2) / 5 + 1;                      // [1, 31]
  const unsigned mm = mp + (mp < 10 ? 3 : -9);                           // [1, 12]
  *y = static_cast<int>(yy + (mm <= 2));
  *m = static_cast<int>(mm);
  *d = static_cast<int>(dd);
}

}  // namespace

TimePoint FromCivil(const CivilTime& c) {
  // Normalize month into [1,12], carrying into the year.
  int y = c.year;
  int m = c.month;
  if (m < 1 || m > 12) {
    int months = y * 12 + (m - 1);
    y = months / 12;
    m = months % 12 + 1;
    if (m < 1) {
      m += 12;
      y -= 1;
    }
  }
  int64_t days = DaysFromCivil(y, m, c.day);
  int64_t secs = days * 86400 + c.hour * 3600 + c.minute * 60 + c.second;
  return secs * kSecond;
}

CivilTime ToCivil(TimePoint t) {
  int64_t secs = t / kSecond;
  if (t < 0 && t % kSecond != 0) --secs;  // floor division
  int64_t days = secs / 86400;
  int64_t sod = secs % 86400;
  if (sod < 0) {
    sod += 86400;
    --days;
  }
  CivilTime c;
  CivilFromDays(days, &c.year, &c.month, &c.day);
  c.hour = static_cast<int>(sod / 3600);
  c.minute = static_cast<int>((sod % 3600) / 60);
  c.second = static_cast<int>(sod % 60);
  return c;
}

std::string FormatTime(TimePoint t) {
  CivilTime c = ToCivil(t);
  return StrFormat("%04d-%02d-%02d %02d:%02d:%02d", c.year, c.month, c.day,
                   c.hour, c.minute, c.second);
}

std::string FormatDuration(Duration d) {
  bool neg = d < 0;
  if (neg) d = -d;
  std::string out;
  if (d < kMillisecond) {
    out = StrFormat("%lldus", static_cast<long long>(d));
  } else if (d < kSecond) {
    out = StrFormat("%.1fms", static_cast<double>(d) / kMillisecond);
  } else if (d < kMinute) {
    out = StrFormat("%.2fs", static_cast<double>(d) / kSecond);
  } else if (d < kHour) {
    out = StrFormat("%lldm%llds", static_cast<long long>(d / kMinute),
                    static_cast<long long>((d % kMinute) / kSecond));
  } else {
    out = StrFormat("%lldh%lldm", static_cast<long long>(d / kHour),
                    static_cast<long long>((d % kHour) / kMinute));
  }
  return neg ? "-" + out : out;
}

std::optional<TimePoint> ParseTime(std::string_view s) {
  CivilTime c;
  int n = 0;
  std::string buf(s);
  int matched = std::sscanf(buf.c_str(), "%d-%d-%d %d:%d:%d%n", &c.year,
                            &c.month, &c.day, &c.hour, &c.minute, &c.second,
                            &n);
  if (matched == 6 && static_cast<size_t>(n) == buf.size()) return FromCivil(c);
  c = CivilTime{};
  matched = std::sscanf(buf.c_str(), "%d-%d-%d%n", &c.year, &c.month, &c.day, &n);
  if (matched == 3 && static_cast<size_t>(n) == buf.size()) return FromCivil(c);
  return std::nullopt;
}

std::optional<Duration> ParseDuration(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  size_t i = 0;
  while (i < s.size() && (IsDigit(s[i]) || s[i] == '.' || s[i] == '-')) ++i;
  std::string_view num = s.substr(0, i);
  std::string_view unit = s.substr(i);
  Duration scale;
  if (unit == "us") {
    scale = kMicrosecond;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s" || unit.empty()) {
    scale = kSecond;
  } else if (unit == "m" || unit == "min") {
    scale = kMinute;
  } else if (unit == "h") {
    scale = kHour;
  } else if (unit == "d") {
    scale = kDay;
  } else {
    return std::nullopt;
  }
  // Whole numbers stay exact; either way a value that does not fit int64
  // microseconds is an error, not an overflowed cast.
  if (num.find('.') == std::string_view::npos) {
    auto n = ParseInt(num);
    Duration d;
    if (!n || __builtin_mul_overflow(*n, scale, &d)) return std::nullopt;
    return d;
  }
  auto x = ParseDouble(num);
  if (!x) return std::nullopt;
  double d = *x * static_cast<double>(scale);
  if (!(d >= -0x1p63 && d < 0x1p63)) return std::nullopt;
  return static_cast<Duration>(d);
}

TimePoint RealClock::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void RealClock::SleepFor(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::microseconds(d));
}

RealClock* RealClock::Get() {
  static RealClock clock;
  return &clock;
}

TimePoint SimClock::Now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void SimClock::SleepFor(Duration d) {
  std::unique_lock<std::mutex> lock(mu_);
  TimePoint deadline = now_ + d;
  cv_.wait(lock, [&] { return now_ >= deadline; });
}

void SimClock::AdvanceTo(TimePoint t) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (t > now_) now_ = t;
  }
  cv_.notify_all();
}

void SimClock::Advance(Duration d) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += d;
  }
  cv_.notify_all();
}

}  // namespace bistro
