// Randomized end-to-end property tests: for arbitrary mixes of feeds,
// subscribers, traffic, transient network failures and offline episodes,
// the system must converge to the core Bistro guarantee (paper §4.2):
//
//   every file classified into a feed is delivered to every subscriber of
//   that feed EXACTLY once (per delivery receipt), and the subscriber-side
//   filesystem holds exactly the staged bytes.
//
// Each seed generates a different scenario; the invariants are checked
// by the shared exactly-once oracle (tests/audit.h) after the simulation
// settles. BISTRO_CHAOS_SEED_BASE shifts the seed window.

#include <set>

#include <gtest/gtest.h>

#include "audit.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

struct Scenario {
  int num_feeds;
  int num_subscribers;
  int num_files;
  double junk_prob;        // files matching no feed
  double link_failure;     // transient per-transfer failure probability
  bool offline_episode;    // one subscriber goes down mid-run
};

class E2EPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(E2EPropertyTest, EveryClassifiedFileDeliveredExactlyOnce) {
  const int seed = audit::SeedBase() + GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  Scenario sc;
  sc.num_feeds = 1 + static_cast<int>(rng.Uniform(4));
  sc.num_subscribers = 1 + static_cast<int>(rng.Uniform(4));
  sc.num_files = 50 + static_cast<int>(rng.Uniform(150));
  sc.junk_prob = rng.NextDouble() * 0.2;
  sc.link_failure = rng.Bernoulli(0.5) ? rng.NextDouble() * 0.2 : 0.0;
  sc.offline_episode = rng.Bernoulli(0.5);

  TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  // Build a random config.
  std::string config_text;
  for (int f = 0; f < sc.num_feeds; ++f) {
    config_text += StrFormat(
        "feed FEED%c { pattern \"feed%c_%%i_%%Y%%m%%d%%H%%M.dat\"; "
        "tardiness 2m; }\n",
        'A' + f, 'a' + f);
  }
  std::vector<audit::Sink> sinks(sc.num_subscribers);
  for (int s = 0; s < sc.num_subscribers; ++s) {
    config_text += StrFormat("subscriber sub%d { feeds ", s);
    std::set<int> feeds;
    int count = 1 + static_cast<int>(rng.Uniform(sc.num_feeds));
    while (static_cast<int>(feeds.size()) < count) {
      feeds.insert(static_cast<int>(rng.Uniform(sc.num_feeds)));
    }
    bool first = true;
    for (int f : feeds) {
      if (!first) config_text += ", ";
      config_text += StrFormat("FEED%c", 'A' + f);
      sinks[s].feeds.push_back(StrFormat("FEED%c", 'A' + f));
      first = false;
    }
    config_text += "; method push; }\n";
  }
  auto config = ParseConfig(config_text);
  ASSERT_TRUE(config.ok()) << config.status() << "\n" << config_text;

  for (int s = 0; s < sc.num_subscribers; ++s) {
    LinkSpec link;
    link.failure_prob = sc.link_failure;
    network.SetLink(StrFormat("sub%d", s), link);
    transport.Register(StrFormat("sub%d", s), &sinks[s].endpoint);
  }

  BistroServer::Options opts;
  config->delivery.retry_backoff_min = 5 * kSecond;
  config->delivery.probe_interval = 30 * kSecond;
  // Transient failures must not drop files.
  config->delivery.max_attempts = 1000;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();

  // Random traffic over one simulated hour.
  audit::Expected expected;
  int junk_count = 0;
  for (int i = 0; i < sc.num_files; ++i) {
    TimePoint t = start + static_cast<Duration>(rng.Uniform(kHour));
    bool junk = rng.Bernoulli(sc.junk_prob);
    std::string name, content;
    if (junk) {
      name = "junk_" + rng.AlnumString(10);
      content = "junk";
      ++junk_count;
    } else {
      int f = static_cast<int>(rng.Uniform(sc.num_feeds));
      CivilTime c = ToCivil(t);
      name = StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f, i,
                       c.year, c.month, c.day, c.hour, c.minute);
      content = rng.AlnumString(10 + rng.Uniform(500));
      expected[name] = {StrFormat("FEED%c", 'A' + f), content};
    }
    loop.PostAt(t, [&, name, content] {
      ASSERT_TRUE((*server)->Deposit("src", name, content).ok());
    });
  }

  // Optional offline episode for subscriber 0.
  if (sc.offline_episode) {
    loop.PostAt(start + 10 * kMinute,
                [&] { network.SetOnline("sub0", false); });
    loop.PostAt(start + 35 * kMinute,
                [&] { network.SetOnline("sub0", true); });
  }

  // Run well past the traffic plus retries/probes/backfills.
  loop.RunUntil(start + 4 * kHour);

  // ---- Invariants ----
  const ServerStats& stats = (*server)->stats();
  EXPECT_EQ(stats.files_received, static_cast<uint64_t>(sc.num_files));
  EXPECT_EQ(stats.files_unmatched, static_cast<uint64_t>(junk_count));
  EXPECT_EQ(stats.files_classified, expected.size());

  // Exactly-once: each subscriber holds exactly its feeds' files with
  // the deposited bytes (duplicates would inflate its count; receipts
  // dedupe retries), and the receipts show every queue drained.
  for (int s = 0; s < sc.num_subscribers; ++s) {
    audit::AuditSink(StrFormat("sub%d", s), &sinks[s], expected);
  }
  audit::AuditDrained(server->get(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, E2EPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace bistro
