// Unit tests for the common substrate: Status/Result, strings, time,
// hashing, RNG, thread pool, blocking queue.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "common/time.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing feed");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing feed");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IoError("disk full").WithContext("staging write");
  EXPECT_EQ(s.ToString(), "IoError: staging write: disk full");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Aborted("boom"); };
  auto wrapper = [&]() -> Status {
    BISTRO_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kAborted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("value");
    return Status::NotFound("nope");
  };
  auto use = [&](bool ok) -> Status {
    BISTRO_ASSIGN_OR_RETURN(std::string v, make(ok));
    EXPECT_EQ(v, "value");
    return Status::OK();
  };
  EXPECT_TRUE(use(true).ok());
  EXPECT_TRUE(use(false).IsNotFound());
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
  EXPECT_EQ(SplitSkipEmpty("a,b,,c", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("MEMORY_poller1", "MEMORY"));
  EXPECT_FALSE(StartsWith("MEM", "MEMORY"));
  EXPECT_TRUE(EndsWith("file.csv.gz", ".gz"));
  EXPECT_FALSE(EndsWith("gz", "csv.gz"));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(ParseInt("123"), 123);
  EXPECT_EQ(ParseInt("-5"), -5);
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(StrFormat("%05d", 42), "00042");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  // Symmetry.
  EXPECT_EQ(EditDistance("poller1", "Poller12"), EditDistance("Poller12", "poller1"));
}

// ---------------------------------------------------------------- Time

TEST(TimeTest, CivilRoundTrip) {
  CivilTime c{2010, 12, 30, 23, 59, 58};
  TimePoint t = FromCivil(c);
  EXPECT_EQ(ToCivil(t), c);
}

TEST(TimeTest, EpochIsZero) {
  CivilTime c{1970, 1, 1, 0, 0, 0};
  EXPECT_EQ(FromCivil(c), 0);
}

TEST(TimeTest, FormatAndParse) {
  CivilTime c{2011, 6, 12, 9, 30, 0};
  TimePoint t = FromCivil(c);
  EXPECT_EQ(FormatTime(t), "2011-06-12 09:30:00");
  EXPECT_EQ(ParseTime("2011-06-12 09:30:00"), t);
  EXPECT_EQ(ParseTime("2011-06-12"), FromCivil(CivilTime{2011, 6, 12}));
  EXPECT_FALSE(ParseTime("junk").has_value());
}

TEST(TimeTest, ParseDuration) {
  EXPECT_EQ(ParseDuration("30s"), 30 * kSecond);
  EXPECT_EQ(ParseDuration("5m"), 5 * kMinute);
  EXPECT_EQ(ParseDuration("500ms"), 500 * kMillisecond);
  EXPECT_EQ(ParseDuration("2h"), 2 * kHour);
  EXPECT_EQ(ParseDuration("1d"), kDay);
  EXPECT_FALSE(ParseDuration("5 parsecs").has_value());
  // Values beyond int64 microseconds are errors, not overflowed casts.
  EXPECT_FALSE(ParseDuration("99999999999999999d").has_value());
  EXPECT_FALSE(ParseDuration("300000000000d").has_value());
  EXPECT_FALSE(ParseDuration("99999999999999999999999.5s").has_value());
  EXPECT_FALSE(ParseDuration("99999999999999999.5d").has_value());
  EXPECT_EQ(ParseDuration("9223372036854775807us"), INT64_MAX);
  EXPECT_EQ(ParseDuration("1.5s"), 1500 * kMillisecond);
}

TEST(TimeTest, SimClockAdvance) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // never goes backwards
  EXPECT_EQ(clock.Now(), 150);
}

TEST(TimeTest, SimClockSleepUnblocksOnAdvance) {
  SimClock clock(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(1000);
    woke = true;
  });
  // The sleeper's deadline is at least 1000, so it cannot have woken yet.
  clock.AdvanceTo(999);
  EXPECT_FALSE(woke.load());
  // The sleeper may not have entered SleepFor yet (its deadline is
  // computed on entry), so keep advancing until it wakes.
  while (!woke.load()) {
    clock.Advance(1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, Crc32KnownVector) {
  // CRC32("123456789") == 0xCBF43926 is the canonical check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Bit-serial CRC32 (reflected IEEE polynomial), one bit per step: the
// definition the table-driven kernel must reproduce.
uint32_t BitSerialCrcStep(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
  }
  return state;
}

TEST(HashTest, Crc32MatchesBitSerialReference) {
  Rng rng(2005);
  std::string buf(1100 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  const uint32_t seeds[] = {0, static_cast<uint32_t>(rng.Next()),
                            static_cast<uint32_t>(rng.Next())};
  // Every length 0..1100 at every start offset 0..7 covers each
  // alignment and every tail length of the 8-byte main loop.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (uint32_t seed : seeds) {
      uint32_t state = seed ^ 0xFFFFFFFFu;
      for (size_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(Crc32(buf.data() + offset, len, seed), state ^ 0xFFFFFFFFu)
            << "offset=" << offset << " len=" << len << " seed=" << seed;
        state =
            BitSerialCrcStep(state, static_cast<uint8_t>(buf[offset + len]));
      }
    }
  }
}

TEST(HashTest, Crc32ChainsThroughSeed) {
  Rng rng(8);
  for (int round = 0; round < 200; ++round) {
    std::string a = rng.AlnumString(rng.Uniform(300));
    std::string b = rng.AlnumString(rng.Uniform(300));
    EXPECT_EQ(Crc32(b.data(), b.size(), Crc32(a)), Crc32(a + b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(HashTest, Crc32CountsEveryByteOnce) {
  uint64_t before = Crc32BytesTotal();
  std::string data(1000, 'x');
  Crc32(data);
  Crc32(data.data(), 10, Crc32(data.data(), 90));
  EXPECT_EQ(Crc32BytesTotal() - before, 1100u);
}

TEST(HashTest, Fnv1aDistinct) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("feed"), Fnv1a64("feed"));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ZipfSkewsLow) {
  Rng rng(11);
  ZipfGenerator zipf(100, 0.99, &rng);
  int low = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 100u);
    if (v < 10) ++low;
  }
  // With theta~1, the first 10% of ranks should dominate.
  EXPECT_GT(low, kSamples / 2);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, MemorySinkCapturesRecords) {
  SimClock clock(5 * kSecond);
  Logger logger(&clock);
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  logger.Info("classifier", "matched file");
  logger.Alarm("monitor", "feed stalled");
  EXPECT_EQ(sink->Count(), 2u);
  EXPECT_EQ(sink->CountAtLeast(LogLevel::kAlarm), 1u);
  auto records = sink->TakeRecords();
  EXPECT_EQ(records[0].component, "classifier");
  EXPECT_EQ(records[0].time, 5 * kSecond);
  EXPECT_EQ(sink->Count(), 0u);
}

TEST(LoggingTest, MinLevelFilters) {
  Logger logger;
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  logger.SetMinLevel(LogLevel::kWarning);
  logger.Debug("x", "dropped");
  logger.Info("x", "dropped");
  logger.Warning("x", "kept");
  EXPECT_EQ(sink->Count(), 1u);
}

// ---------------------------------------------------------------- Backoff

// Twelve consecutive waits from a fresh schedule.
std::vector<Duration> Schedule(Duration min, Duration max, double multiplier,
                               Rng* jitter) {
  std::vector<Duration> waits;
  Duration last = 0;
  for (int i = 0; i < 12; ++i) {
    last = NextBackoff(last, min, max, multiplier, jitter);
    waits.push_back(last);
  }
  return waits;
}

// The expected sequences are what the delivery engine's and the socket
// transport's own copies of this schedule produced before they shared
// NextBackoff: every wait and every jitter draw is kept.
TEST(BackoffScheduleTest, DeliveryRetriesWithJitter) {
  Rng rng(0x42);  // DeliveryEngine::Options::backoff_seed
  EXPECT_EQ(Schedule(2 * kSecond, 5 * kMinute, 2.0, &rng),
            (std::vector<Duration>{2000000, 2266777, 4228376, 7313634,
                                   8523018, 4201810, 5211618, 5474875,
                                   2751594, 4601780, 6715021, 9719824}));
}

TEST(BackoffScheduleTest, DeliveryRetriesWithoutJitterDoubleToTheCap) {
  EXPECT_EQ(Schedule(2 * kSecond, 5 * kMinute, 2.0, nullptr),
            (std::vector<Duration>{2000000, 4000000, 8000000, 16000000,
                                   32000000, 64000000, 128000000, 256000000,
                                   300000000, 300000000, 300000000,
                                   300000000}));
}

TEST(BackoffScheduleTest, SocketReconnectsTripleWithJitter) {
  Rng rng(1);  // SocketTransport::Options::backoff_seed
  EXPECT_EQ(Schedule(10 * kMillisecond, 30 * kMillisecond, 3.0, &rng),
            (std::vector<Duration>{10000, 11507, 23447, 13383, 10035, 22644,
                                   12377, 21264, 18334, 22418, 20933,
                                   20669}));
}

TEST(BackoffScheduleTest, BaseEqualToCapWaitsTheBaseAndDrawsNothing) {
  Rng rng(7), untouched(7);
  EXPECT_EQ(Schedule(kSecond, kSecond, 2.0, &rng),
            std::vector<Duration>(12, kSecond));
  // A cap below the base is clamped to it.
  EXPECT_EQ(Schedule(10 * kMillisecond, kMillisecond, 3.0, &rng),
            std::vector<Duration>(12, 10 * kMillisecond));
  EXPECT_EQ(rng.Next(), untouched.Next());
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter++; }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// ---------------------------------------------------------------- Queue

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseUnblocksConsumers) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  q.Close();
  consumer.join();
  EXPECT_FALSE(q.Push(1));
}

TEST(BlockingQueueTest, ProducerConsumer) {
  BlockingQueue<int> q;
  std::atomic<long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  long expected = 0;
  for (int i = 1; i <= 1000; ++i) {
    q.Push(i);
    expected += i;
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace bistro
