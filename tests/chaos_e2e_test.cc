// Chaos end-to-end property test: the full simulated pipeline runs under
// a randomized, seeded fault plan — injected write errors, torn writes,
// fsync failures, transient send failures, payload corruption, lost acks,
// a scheduled link flap, a degraded link, AND a mid-run crash/restart of
// the server — and must still converge to the Bistro delivery guarantee:
//
//   every deposited file that matches a feed reaches every subscriber of
//   that feed exactly once (no loss, no double-landing), the recomputed
//   delivery queues drain empty, and the injected-fault / dead-letter
//   counters are visible in the Prometheus export.
//
// Sources retry failed deposits (a cooperating source re-notifies when
// the server errors) and stash deposits attempted while the server is
// down, mirroring how real feeds behave across a feed-manager outage.
//
// The CI chaos job shifts the seed window via BISTRO_CHAOS_SEED_BASE so
// different matrix legs explore different fault plans.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fault/faulty_transport.h"
#include "fault/faulty_vfs.h"
#include "fanout/group.h"
#include "fanout/relay.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

int SeedBase() {
  const char* env = std::getenv("BISTRO_CHAOS_SEED_BASE");
  return env == nullptr ? 0 : std::atoi(env);
}

class ChaosE2ETest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosE2ETest, ExactlyOnceDeliveryUnderFaultsAndCrash) {
  const int seed = SeedBase() + GetParam();
  Rng scenario_rng(static_cast<uint64_t>(seed) * 31337 + 7);

  // ---- Fault plan: moderate, seed-scaled probabilities everywhere.
  FaultPlan plan;
  plan.seed = static_cast<uint64_t>(seed) * 97 + 5;
  plan.vfs.write_error_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.torn_write_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.sync_error_prob = scenario_rng.NextDouble() * 0.02;
  plan.vfs.scope = "";  // everything: landing, staging, receipt DB
  plan.net.send_failure_prob = scenario_rng.NextDouble() * 0.15;
  plan.net.corrupt_prob = scenario_rng.NextDouble() * 0.08;
  plan.net.ack_loss_prob = scenario_rng.NextDouble() * 0.05;

  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  LinkFlap flap;
  flap.endpoint = "sub0";
  flap.down_at = start + 10 * kMinute;
  flap.up_at = start + 25 * kMinute;
  plan.net.flaps.push_back(flap);
  LinkDegrade degrade;
  degrade.endpoint = "sub1";
  degrade.factor = 2.0;
  plan.net.degrades.push_back(degrade);

  // ---- World: sim clock/loop, faulty FS over memfs, faulty transport
  // over a simulated WAN.
  SimClock clock(start);
  EventLoop loop(&clock);
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector(plan, &registry);
  FaultyFileSystem fs(&base_fs, &injector);
  Rng net_rng(static_cast<uint64_t>(seed) * 101 + 3);
  SimNetwork network(&net_rng);
  SimTransport sim_transport(&loop, &network);
  FaultyTransport transport(&sim_transport, &loop, &injector);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  constexpr int kNumFeeds = 2;
  constexpr int kNumSubs = 3;
  auto config = ParseConfig(R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber sub1 { feeds FEEDA; method push; }
subscriber sub2 { feeds FEEDB; method push; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const std::vector<std::vector<int>> subscriptions = {{0, 1}, {0}, {1}};

  std::vector<std::unique_ptr<InMemoryFileSystem>> sub_fs;
  std::vector<std::unique_ptr<FileSinkEndpoint>> sinks;
  for (int s = 0; s < kNumSubs; ++s) {
    network.SetLink(StrFormat("sub%d", s), LinkSpec::Fast());
    sub_fs.push_back(std::make_unique<InMemoryFileSystem>());
    sinks.push_back(
        std::make_unique<FileSinkEndpoint>(sub_fs.back().get(), "/recv"));
    sim_transport.Register(StrFormat("sub%d", s), sinks.back().get());
  }
  injector.Arm(&loop, &network);  // schedule the flap, apply the degrade

  // ---- Server options: crash-consistent durability + patient retries.
  BistroServer::Options opts;
  opts.kv.sync_wal = true;
  opts.sync_staging = true;
  opts.metrics = &registry;
  config->delivery.retry_backoff_min = 2 * kSecond;
  config->delivery.retry_backoff_max = 30 * kSecond;
  config->delivery.probe_interval = 20 * kSecond;
  config->delivery.max_attempts = 100000;  // chaos must not drop files
  opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 1;

  std::unique_ptr<BistroServer> server;
  auto boot = [&]() {
    auto created = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
  };
  boot();
  ASSERT_NE(server, nullptr);

  // ---- Cooperating sources: retry on error, stash while the server is
  // down, re-deposit after restart. A failed Deposit leaves no arrival
  // receipt, so re-depositing cannot double-deliver.
  std::vector<std::pair<std::string, std::string>> stashed;
  std::function<void(std::string, std::string)> deposit =
      [&](std::string name, std::string content) {
        if (server == nullptr) {
          stashed.emplace_back(std::move(name), std::move(content));
          return;
        }
        Status s = server->Deposit("src", name, content);
        if (!s.ok()) {
          loop.PostAfter(10 * kSecond, [&deposit, name, content] {
            deposit(name, content);
          });
        }
      };

  // ---- Traffic: ~80 matching files over one simulated hour.
  const int num_files = 60 + static_cast<int>(scenario_rng.Uniform(40));
  std::map<std::string, std::pair<int, std::string>> expected;
  for (int i = 0; i < num_files; ++i) {
    TimePoint t = start + static_cast<Duration>(scenario_rng.Uniform(kHour));
    int f = static_cast<int>(scenario_rng.Uniform(kNumFeeds));
    CivilTime c = ToCivil(t);
    std::string name = StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f,
                                 i, c.year, c.month, c.day, c.hour, c.minute);
    std::string content =
        scenario_rng.AlnumString(20 + scenario_rng.Uniform(400));
    expected[name] = {f, content};
    loop.PostAt(t, [&deposit, name, content] { deposit(name, content); });
  }

  // ---- Mid-run crash: the server dies, unsynced bytes evaporate, and a
  // fresh server recovers from the (crash-consistent) receipt database.
  loop.PostAt(start + 30 * kMinute, [&] {
    server.reset();
    ASSERT_TRUE(fs.SimulateCrash().ok());
  });
  loop.PostAt(start + 32 * kMinute, [&] {
    boot();
    std::vector<std::pair<std::string, std::string>> pending;
    pending.swap(stashed);
    for (auto& [name, content] : pending) {
      deposit(std::move(name), std::move(content));
    }
  });

  // Run far past the traffic so retries, probes and backfills settle.
  loop.RunUntil(start + 6 * kHour);

  // ---- Invariants ----
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(stashed.empty());
  EXPECT_GT(injector.injected(), 0u) << "fault plan injected nothing (seed "
                                     << seed << ")";

  for (int s = 0; s < kNumSubs; ++s) {
    size_t want = 0;
    for (const auto& [name, info] : expected) {
      bool subscribed = false;
      for (int f : subscriptions[s]) subscribed |= (f == info.first);
      if (!subscribed) continue;
      ++want;
      std::string dest =
          StrFormat("/recv/FEED%c/%s", 'A' + info.first, name.c_str());
      auto got = sub_fs[s]->ReadFile(dest);
      ASSERT_TRUE(got.ok()) << "sub" << s << " lost " << dest << " (seed "
                            << seed << ")";
      EXPECT_EQ(*got, info.second) << dest << " (seed " << seed << ")";
    }
    // No file lost, none double-landed: redeliveries (lost acks, the
    // crash window) must be absorbed by receipts + endpoint dedupe.
    EXPECT_EQ(sinks[s]->files_received(), want)
        << "sub" << s << " delivery count off (seed " << seed << ")";
  }

  // Receipt-side convergence: nothing left undelivered anywhere.
  for (int s = 0; s < kNumSubs; ++s) {
    const SubscriberSpec* spec =
        server->registry()->FindSubscriber(StrFormat("sub%d", s));
    ASSERT_NE(spec, nullptr);
    auto queue = server->receipts()->ComputeDeliveryQueue(
        spec->name, server->registry()->SubscribedFeeds(*spec));
    EXPECT_TRUE(queue.empty()) << "sub" << s << " still has " << queue.size()
                               << " undelivered files (seed " << seed << ")";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "chaos run dead-lettered a file (seed " << seed << ")";

  // Observability: the injected faults and the dead-letter counter are in
  // the same scrape as the delivery metrics.
  std::string scrape = ExportPrometheus(&registry);
  EXPECT_NE(scrape.find("bistro_fault_"), std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_dead_letter_total"), std::string::npos);
}

// Same world, same fault plan, same crash — but the ingest pipeline runs
// with real worker threads and group-committed receipts. The exactly-once
// guarantee must hold unchanged. Two differences in the harness follow
// from the threaded ack contract (Deposit acks at admission):
//
//  - recovery of files that fail *after* admission (a stage write error,
//    a failed group commit, a queue dropped by the crash) is the
//    landing-zone rescan's job, so the harness scans periodically the way
//    bistrod does — the source is never re-notified;
//  - a cooperating source deposits atomically: when Deposit itself
//    errors, it removes the torn/unsynced landing leftover before
//    retrying, so a rescan can never ingest a partial deposit.
TEST_P(ChaosE2ETest, ThreadedPipelineExactlyOnceUnderFaultsAndCrash) {
  const int seed = SeedBase() + GetParam();
  Rng scenario_rng(static_cast<uint64_t>(seed) * 52711 + 11);

  FaultPlan plan;
  plan.seed = static_cast<uint64_t>(seed) * 89 + 13;
  plan.vfs.write_error_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.torn_write_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.sync_error_prob = scenario_rng.NextDouble() * 0.02;
  plan.vfs.scope = "";
  plan.net.send_failure_prob = scenario_rng.NextDouble() * 0.15;
  plan.net.corrupt_prob = scenario_rng.NextDouble() * 0.08;
  plan.net.ack_loss_prob = scenario_rng.NextDouble() * 0.05;

  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  LinkFlap flap;
  flap.endpoint = "sub0";
  flap.down_at = start + 10 * kMinute;
  flap.up_at = start + 25 * kMinute;
  plan.net.flaps.push_back(flap);

  SimClock clock(start);
  EventLoop loop(&clock);
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector(plan, &registry);
  FaultyFileSystem fs(&base_fs, &injector);
  Rng net_rng(static_cast<uint64_t>(seed) * 103 + 9);
  SimNetwork network(&net_rng);
  SimTransport sim_transport(&loop, &network);
  FaultyTransport transport(&sim_transport, &loop, &injector);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  constexpr int kNumFeeds = 2;
  constexpr int kNumSubs = 3;
  auto config = ParseConfig(R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber sub1 { feeds FEEDA; method push; }
subscriber sub2 { feeds FEEDB; method push; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const std::vector<std::vector<int>> subscriptions = {{0, 1}, {0}, {1}};

  std::vector<std::unique_ptr<InMemoryFileSystem>> sub_fs;
  std::vector<std::unique_ptr<FileSinkEndpoint>> sinks;
  for (int s = 0; s < kNumSubs; ++s) {
    network.SetLink(StrFormat("sub%d", s), LinkSpec::Fast());
    sub_fs.push_back(std::make_unique<InMemoryFileSystem>());
    sinks.push_back(
        std::make_unique<FileSinkEndpoint>(sub_fs.back().get(), "/recv"));
    sim_transport.Register(StrFormat("sub%d", s), sinks.back().get());
  }
  injector.Arm(&loop, &network);

  BistroServer::Options opts;
  opts.kv.sync_wal = true;
  opts.sync_staging = true;
  opts.metrics = &registry;
  config->delivery.retry_backoff_min = 2 * kSecond;
  config->delivery.retry_backoff_max = 30 * kSecond;
  config->delivery.probe_interval = 20 * kSecond;
  config->delivery.max_attempts = 100000;
  opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 1;
  config->ingest.workers = 3;
  config->ingest.queue_depth = 64;
  config->ingest.batch = 8;
  config->ingest.overload_policy = OverloadPolicy::kBlock;

  std::unique_ptr<BistroServer> server;
  auto boot = [&]() {
    auto created = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
  };
  boot();
  ASSERT_NE(server, nullptr);

  std::vector<std::pair<std::string, std::string>> stashed;
  std::function<void(std::string, std::string)> deposit =
      [&](std::string name, std::string content) {
        if (server == nullptr) {
          stashed.emplace_back(std::move(name), std::move(content));
          return;
        }
        Status s = server->Deposit("src", name, content);
        if (!s.ok()) {
          (void)fs.Delete("/bistro/landing/src/" + name);
          loop.PostAfter(10 * kSecond, [&deposit, name, content] {
            deposit(name, content);
          });
        }
      };

  // Periodic landing-zone rescan (bistrod's --scan-interval): the only
  // recovery path for post-admission failures in threaded mode.
  std::function<void()> periodic_scan = [&] {
    if (server != nullptr) (void)server->ScanLandingZone();
    if (loop.Now() < start + 5 * kHour) {
      loop.PostAfter(97 * kSecond, periodic_scan);
    }
  };
  loop.PostAfter(97 * kSecond, periodic_scan);

  const int num_files = 60 + static_cast<int>(scenario_rng.Uniform(40));
  std::map<std::string, std::pair<int, std::string>> expected;
  for (int i = 0; i < num_files; ++i) {
    TimePoint t = start + static_cast<Duration>(scenario_rng.Uniform(kHour));
    int f = static_cast<int>(scenario_rng.Uniform(kNumFeeds));
    CivilTime c = ToCivil(t);
    std::string name = StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f,
                                 i, c.year, c.month, c.day, c.hour, c.minute);
    std::string content =
        scenario_rng.AlnumString(20 + scenario_rng.Uniform(400));
    expected[name] = {f, content};
    loop.PostAt(t, [&deposit, name, content] { deposit(name, content); });
  }

  // Mid-run crash: worker queues evaporate with the process; admitted but
  // uncommitted files persist only as their (fsynced) landing copies.
  loop.PostAt(start + 30 * kMinute, [&] {
    server.reset();
    ASSERT_TRUE(fs.SimulateCrash().ok());
  });
  loop.PostAt(start + 32 * kMinute, [&] {
    boot();
    std::vector<std::pair<std::string, std::string>> pending;
    pending.swap(stashed);
    for (auto& [name, content] : pending) {
      deposit(std::move(name), std::move(content));
    }
  });

  loop.RunUntil(start + 6 * kHour);

  // Settle: drain the worker threads, rescan for anything a fault pushed
  // back to the landing zone, and let retries/backfills play out.
  for (int round = 0; round < 60; ++round) {
    ASSERT_NE(server, nullptr);
    server->ingest()->WaitIdle();
    (void)server->ScanLandingZone();
    server->ingest()->WaitIdle();
    loop.RunUntil(loop.Now() + kMinute);
  }

  ASSERT_TRUE(stashed.empty());
  EXPECT_GT(injector.injected(), 0u) << "fault plan injected nothing (seed "
                                     << seed << ")";
  EXPECT_EQ(server->ingest()->stats().in_flight, 0u);

  for (int s = 0; s < kNumSubs; ++s) {
    size_t want = 0;
    for (const auto& [name, info] : expected) {
      bool subscribed = false;
      for (int f : subscriptions[s]) subscribed |= (f == info.first);
      if (!subscribed) continue;
      ++want;
      std::string dest =
          StrFormat("/recv/FEED%c/%s", 'A' + info.first, name.c_str());
      auto got = sub_fs[s]->ReadFile(dest);
      ASSERT_TRUE(got.ok()) << "sub" << s << " lost " << dest << " (seed "
                            << seed << ")";
      EXPECT_EQ(*got, info.second) << dest << " (seed " << seed << ")";
    }
    EXPECT_EQ(sinks[s]->files_received(), want)
        << "sub" << s << " delivery count off (seed " << seed << ")";
  }

  for (int s = 0; s < kNumSubs; ++s) {
    const SubscriberSpec* spec =
        server->registry()->FindSubscriber(StrFormat("sub%d", s));
    ASSERT_NE(spec, nullptr);
    auto queue = server->receipts()->ComputeDeliveryQueue(
        spec->name, server->registry()->SubscribedFeeds(*spec));
    EXPECT_TRUE(queue.empty()) << "sub" << s << " still has " << queue.size()
                               << " undelivered files (seed " << seed << ")";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "chaos run dead-lettered a file (seed " << seed << ")";

  // The pipeline's counters ride the same scrape as everything else.
  std::string scrape = ExportPrometheus(&registry);
  EXPECT_NE(scrape.find("bistro_ingest_admitted_total"), std::string::npos);
  EXPECT_NE(scrape.find("bistro_ingest_committed_total"), std::string::npos);
}

// Same world, same crash — with the fan-out fast path fully enabled:
// pipelined send windows (> 1 in flight per subscriber, pipelined acks on
// the simulated links), small-file frame coalescing, and group-committed
// delivery receipts. None of it may weaken exactly-once: a crash can only
// lose a *suffix* of a buffered receipt group, and the resulting
// redeliveries must be absorbed by the subscriber-side FileId dedupe.
TEST_P(ChaosE2ETest, FastPathExactlyOnceUnderFaultsAndCrash) {
  const int seed = SeedBase() + GetParam();
  Rng scenario_rng(static_cast<uint64_t>(seed) * 40087 + 19);

  FaultPlan plan;
  plan.seed = static_cast<uint64_t>(seed) * 83 + 29;
  plan.vfs.write_error_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.torn_write_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.sync_error_prob = scenario_rng.NextDouble() * 0.02;
  plan.vfs.scope = "";
  plan.net.send_failure_prob = scenario_rng.NextDouble() * 0.15;
  plan.net.corrupt_prob = scenario_rng.NextDouble() * 0.08;
  plan.net.ack_loss_prob = scenario_rng.NextDouble() * 0.05;

  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  LinkFlap flap;
  flap.endpoint = "sub0";
  flap.down_at = start + 10 * kMinute;
  flap.up_at = start + 25 * kMinute;
  plan.net.flaps.push_back(flap);
  LinkDegrade degrade;
  degrade.endpoint = "sub1";
  degrade.factor = 2.0;
  plan.net.degrades.push_back(degrade);

  SimClock clock(start);
  EventLoop loop(&clock);
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector(plan, &registry);
  FaultyFileSystem fs(&base_fs, &injector);
  Rng net_rng(static_cast<uint64_t>(seed) * 107 + 17);
  SimNetwork network(&net_rng);
  network.SetPipelinedAcks(true);  // windows > 1 overlap ack latency
  SimTransport sim_transport(&loop, &network);
  FaultyTransport transport(&sim_transport, &loop, &injector);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  constexpr int kNumFeeds = 2;
  constexpr int kNumSubs = 3;
  auto config = ParseConfig(R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber sub1 { feeds FEEDA; method push; }
subscriber sub2 { feeds FEEDB; method push; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const std::vector<std::vector<int>> subscriptions = {{0, 1}, {0}, {1}};

  std::vector<std::unique_ptr<InMemoryFileSystem>> sub_fs;
  std::vector<std::unique_ptr<FileSinkEndpoint>> sinks;
  for (int s = 0; s < kNumSubs; ++s) {
    network.SetLink(StrFormat("sub%d", s), LinkSpec::Fast());
    sub_fs.push_back(std::make_unique<InMemoryFileSystem>());
    sinks.push_back(
        std::make_unique<FileSinkEndpoint>(sub_fs.back().get(), "/recv"));
    sim_transport.Register(StrFormat("sub%d", s), sinks.back().get());
  }
  injector.Arm(&loop, &network);

  BistroServer::Options opts;
  opts.kv.sync_wal = true;
  opts.sync_staging = true;
  opts.metrics = &registry;
  config->delivery.retry_backoff_min = 2 * kSecond;
  config->delivery.retry_backoff_max = 30 * kSecond;
  config->delivery.probe_interval = 20 * kSecond;
  config->delivery.max_attempts = 100000;
  opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 1;
  // The fan-out fast path under test:
  config->delivery.window = 4;
  config->delivery.coalesce_bytes = 4096;
  config->delivery.receipt_group = 8;
  config->delivery.receipt_flush_interval = 200 * kMillisecond;

  std::unique_ptr<BistroServer> server;
  auto boot = [&]() {
    auto created = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
  };
  boot();
  ASSERT_NE(server, nullptr);

  std::vector<std::pair<std::string, std::string>> stashed;
  std::function<void(std::string, std::string)> deposit =
      [&](std::string name, std::string content) {
        if (server == nullptr) {
          stashed.emplace_back(std::move(name), std::move(content));
          return;
        }
        Status s = server->Deposit("src", name, content);
        if (!s.ok()) {
          loop.PostAfter(10 * kSecond, [&deposit, name, content] {
            deposit(name, content);
          });
        }
      };

  const int num_files = 60 + static_cast<int>(scenario_rng.Uniform(40));
  std::map<std::string, std::pair<int, std::string>> expected;
  for (int i = 0; i < num_files; ++i) {
    TimePoint t = start + static_cast<Duration>(scenario_rng.Uniform(kHour));
    int f = static_cast<int>(scenario_rng.Uniform(kNumFeeds));
    CivilTime c = ToCivil(t);
    std::string name = StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f,
                                 i, c.year, c.month, c.day, c.hour, c.minute);
    std::string content =
        scenario_rng.AlnumString(20 + scenario_rng.Uniform(400));
    expected[name] = {f, content};
    loop.PostAt(t, [&deposit, name, content] { deposit(name, content); });
  }

  // Mid-run crash: buffered delivery-receipt groups die with the process;
  // recovery must re-offer (and the sinks dedupe) at most that suffix.
  loop.PostAt(start + 30 * kMinute, [&] {
    server.reset();
    ASSERT_TRUE(fs.SimulateCrash().ok());
  });
  loop.PostAt(start + 32 * kMinute, [&] {
    boot();
    std::vector<std::pair<std::string, std::string>> pending;
    pending.swap(stashed);
    for (auto& [name, content] : pending) {
      deposit(std::move(name), std::move(content));
    }
  });

  loop.RunUntil(start + 6 * kHour);

  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(stashed.empty());
  EXPECT_GT(injector.injected(), 0u) << "fault plan injected nothing (seed "
                                     << seed << ")";

  for (int s = 0; s < kNumSubs; ++s) {
    size_t want = 0;
    for (const auto& [name, info] : expected) {
      bool subscribed = false;
      for (int f : subscriptions[s]) subscribed |= (f == info.first);
      if (!subscribed) continue;
      ++want;
      std::string dest =
          StrFormat("/recv/FEED%c/%s", 'A' + info.first, name.c_str());
      auto got = sub_fs[s]->ReadFile(dest);
      ASSERT_TRUE(got.ok()) << "sub" << s << " lost " << dest << " (seed "
                            << seed << ")";
      EXPECT_EQ(*got, info.second) << dest << " (seed " << seed << ")";
    }
    EXPECT_EQ(sinks[s]->files_received(), want)
        << "sub" << s << " delivery count off (seed " << seed << ")";
  }

  for (int s = 0; s < kNumSubs; ++s) {
    const SubscriberSpec* spec =
        server->registry()->FindSubscriber(StrFormat("sub%d", s));
    ASSERT_NE(spec, nullptr);
    auto queue = server->receipts()->ComputeDeliveryQueue(
        spec->name, server->registry()->SubscribedFeeds(*spec));
    EXPECT_TRUE(queue.empty()) << "sub" << s << " still has " << queue.size()
                               << " undelivered files (seed " << seed << ")";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "chaos run dead-lettered a file (seed " << seed << ")";
  // No receipt may linger in the buffer once the run quiesces.
  EXPECT_EQ(server->delivery()->buffered_receipts(), 0u);
  // The grouped-receipt path actually ran.
  EXPECT_GT(server->delivery_stats().receipt_group_flushes, 0u);

  std::string scrape = ExportPrometheus(&registry);
  EXPECT_NE(scrape.find("bistro_delivery_coalesced_files_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_receipt_group_flushes_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_cache_hits_total"),
            std::string::npos);
}

// A member endpoint that is hard-down for a fixed window of the run:
// deterministic per seed, long enough to drive the group's straggler
// machinery (consecutive failures -> excluded from the ack set -> missed
// files tracked -> catch-up replay after recovery).
class OutageEndpoint : public Endpoint {
 public:
  OutageEndpoint(Endpoint* inner, EventLoop* loop, TimePoint down_at,
                 TimePoint up_at)
      : inner_(inner), loop_(loop), down_at_(down_at), up_at_(up_at) {}

  Status HandleMessage(const Message& msg) override {
    if (msg.type == MessageType::kFileData && loop_->Now() >= down_at_ &&
        loop_->Now() < up_at_) {
      ++rejected_;
      return Status::Unavailable("member outage");
    }
    return inner_->HandleMessage(msg);
  }

  uint64_t rejected() const { return rejected_; }

 private:
  Endpoint* inner_;
  EventLoop* loop_;
  TimePoint down_at_;
  TimePoint up_at_;
  uint64_t rejected_ = 0;
};

// Same world, same fault plan, same crash — with the million-subscriber
// fan-out stack enabled end to end: a subscriber group (one delivery
// cursor + one receipt row shared by three members, straggler catch-up
// for a member that is hard-down across the crash), a dissemination
// relay (durable spool, ack-then-forward) in front of two leaves, and
// the receipt database hash-sharded four ways. Exactly-once must hold at
// every terminal endpoint: group members, relay leaves and the plain
// subscriber all land each matching file exactly once, and the group
// still holds only ONE delivery receipt row per file.
TEST_P(ChaosE2ETest, FanoutGroupsRelaysShardsExactlyOnceUnderFaultsAndCrash) {
  const int seed = SeedBase() + GetParam();
  Rng scenario_rng(static_cast<uint64_t>(seed) * 68111 + 23);

  FaultPlan plan;
  plan.seed = static_cast<uint64_t>(seed) * 79 + 31;
  plan.vfs.write_error_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.torn_write_prob = scenario_rng.NextDouble() * 0.03;
  plan.vfs.sync_error_prob = scenario_rng.NextDouble() * 0.02;
  plan.vfs.scope = "";  // receipts, staging, AND the relay spool
  plan.net.send_failure_prob = scenario_rng.NextDouble() * 0.15;
  plan.net.corrupt_prob = scenario_rng.NextDouble() * 0.08;
  plan.net.ack_loss_prob = scenario_rng.NextDouble() * 0.05;

  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  LinkFlap flap;
  flap.endpoint = "sub0";
  flap.down_at = start + 10 * kMinute;
  flap.up_at = start + 25 * kMinute;
  plan.net.flaps.push_back(flap);

  SimClock clock(start);
  EventLoop loop(&clock);
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector(plan, &registry);
  FaultyFileSystem fs(&base_fs, &injector);
  Rng net_rng(static_cast<uint64_t>(seed) * 109 + 21);
  SimNetwork network(&net_rng);
  SimTransport sim_transport(&loop, &network);
  FaultyTransport transport(&sim_transport, &loop, &injector);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  constexpr int kNumFeeds = 2;
  auto config = ParseConfig(R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber relaysub { feeds FEEDB; method push; host "relayR"; }
group grp1 {
  feeds FEEDA;
  members m0, m1, m2;
  straggler_after 3;
}
receipts { shards 4; }
)");
  ASSERT_TRUE(config.ok()) << config.status();

  // Terminal endpoints: the plain subscriber, three group members (m2 is
  // hard-down from +5m to +40m, spanning the crash), two relay leaves.
  network.SetLink("sub0", LinkSpec::Fast());
  network.SetLink("grp1", LinkSpec::Fast());
  network.SetLink("relayR", LinkSpec::Fast());
  InMemoryFileSystem sub0_fs;
  FileSinkEndpoint sub0(&sub0_fs, "/recv");
  sim_transport.Register("sub0", &sub0);
  std::map<std::string, std::unique_ptr<InMemoryFileSystem>> member_fs;
  std::map<std::string, std::unique_ptr<FileSinkEndpoint>> member_sinks;
  for (const char* m : {"m0", "m1", "m2"}) {
    member_fs[m] = std::make_unique<InMemoryFileSystem>();
    member_sinks[m] =
        std::make_unique<FileSinkEndpoint>(member_fs[m].get(), "/recv");
  }
  OutageEndpoint m2_flaky(member_sinks["m2"].get(), &loop,
                          start + 5 * kMinute, start + 40 * kMinute);
  std::map<std::string, std::unique_ptr<InMemoryFileSystem>> leaf_fs;
  std::map<std::string, std::unique_ptr<FileSinkEndpoint>> leaf_sinks;
  for (const char* l : {"leaf0", "leaf1"}) {
    network.SetLink(l, LinkSpec::Fast());
    leaf_fs[l] = std::make_unique<InMemoryFileSystem>();
    leaf_sinks[l] =
        std::make_unique<FileSinkEndpoint>(leaf_fs[l].get(), "/recv");
    sim_transport.Register(l, leaf_sinks[l].get());
  }
  injector.Arm(&loop, &network);

  BistroServer::Options opts;
  opts.kv.sync_wal = true;
  opts.sync_staging = true;
  opts.metrics = &registry;
  config->delivery.retry_backoff_min = 2 * kSecond;
  config->delivery.retry_backoff_max = 30 * kSecond;
  config->delivery.probe_interval = 20 * kSecond;
  config->delivery.max_attempts = 100000;
  opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 1;

  std::unique_ptr<BistroServer> server;
  std::unique_ptr<fanout::RelayNode> relay;
  std::unique_ptr<fanout::GroupManager> groups;
  auto boot = [&](bool rebooting) {
    auto created = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
    // The relay restarts from its durable spool (replaying entries the
    // crash left with unacked children), on the same faulty transport.
    fanout::RelayNode::Options relay_options;
    relay_options.spool_dir = "/bistro/relay-spool";
    relay_options.retry_backoff = 3 * kSecond;
    relay_options.kv.sync_wal = true;
    auto opened =
        fanout::RelayNode::Open("relayR", {"leaf0", "leaf1"}, &fs, &transport,
                                &loop, &logger, relay_options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    relay = std::move(*opened);
    sim_transport.Register("relayR", relay.get());
    fanout::GroupManager::Options group_options;
    group_options.catchup_interval = 45 * kSecond;
    groups = std::make_unique<fanout::GroupManager>(
        server.get(), &fs, &loop, &logger, group_options);
    ASSERT_TRUE(groups
                    ->Wire(
                        config->groups,
                        [&](const std::string& m) -> Endpoint* {
                          if (m == "m2") return &m2_flaky;
                          return member_sinks[m].get();
                        },
                        [&](const std::string& name, Endpoint* ep) {
                          sim_transport.Register(name, ep);
                        })
                    .ok());
    if (rebooting) {
      // In-memory straggler state died with the process: re-offer the
      // group's delivered history; member dedupe absorbs the repeats.
      ASSERT_TRUE(groups->Resync().ok());
    }
  };
  boot(false);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->receipts()->shard_count(), 4u);

  std::vector<std::pair<std::string, std::string>> stashed;
  std::function<void(std::string, std::string)> deposit =
      [&](std::string name, std::string content) {
        if (server == nullptr) {
          stashed.emplace_back(std::move(name), std::move(content));
          return;
        }
        Status s = server->Deposit("src", name, content);
        if (!s.ok()) {
          loop.PostAfter(10 * kSecond, [&deposit, name, content] {
            deposit(name, content);
          });
        }
      };

  const int num_files = 60 + static_cast<int>(scenario_rng.Uniform(40));
  std::map<std::string, std::pair<int, std::string>> expected;
  for (int i = 0; i < num_files; ++i) {
    TimePoint t = start + static_cast<Duration>(scenario_rng.Uniform(kHour));
    int f = static_cast<int>(scenario_rng.Uniform(kNumFeeds));
    CivilTime c = ToCivil(t);
    std::string name = StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f,
                                 i, c.year, c.month, c.day, c.hour, c.minute);
    std::string content =
        scenario_rng.AlnumString(20 + scenario_rng.Uniform(400));
    expected[name] = {f, content};
    loop.PostAt(t, [&deposit, name, content] { deposit(name, content); });
  }

  // Mid-run crash: server, group manager AND relay die together; the
  // sharded receipt stores and the relay spool recover from their WALs.
  loop.PostAt(start + 30 * kMinute, [&] {
    // The relay and group relays die with the server process: take their
    // addresses off the wire so in-flight messages bounce, then destroy.
    sim_transport.Unregister("relayR");
    sim_transport.Unregister("grp1");
    groups.reset();
    relay.reset();
    server.reset();
    ASSERT_TRUE(fs.SimulateCrash().ok());
  });
  loop.PostAt(start + 32 * kMinute, [&] {
    boot(true);
    std::vector<std::pair<std::string, std::string>> pending;
    pending.swap(stashed);
    for (auto& [name, content] : pending) {
      deposit(std::move(name), std::move(content));
    }
  });

  loop.RunUntil(start + 6 * kHour);

  // ---- Invariants ----
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(stashed.empty());
  EXPECT_GT(injector.injected(), 0u) << "fault plan injected nothing (seed "
                                     << seed << ")";
  EXPECT_GT(m2_flaky.rejected(), 0u)
      << "member outage window saw no traffic (seed " << seed << ")";

  size_t want_a = 0, want_b = 0;
  for (const auto& [name, info] : expected) {
    (info.first == 0 ? want_a : want_b) += 1;
  }
  auto check_sink = [&](InMemoryFileSystem* sink_fs, FileSinkEndpoint* sink,
                        int feed, size_t want, const std::string& who) {
    for (const auto& [name, info] : expected) {
      if (info.first != feed) continue;
      std::string dest =
          StrFormat("/recv/FEED%c/%s", 'A' + info.first, name.c_str());
      auto got = sink_fs->ReadFile(dest);
      ASSERT_TRUE(got.ok()) << who << " lost " << dest << " (seed " << seed
                            << ")";
      EXPECT_EQ(*got, info.second) << dest << " (seed " << seed << ")";
    }
    EXPECT_EQ(sink->files_received(), want)
        << who << " delivery count off (seed " << seed << ")";
  };
  // The plain subscriber sees both feeds...
  for (const auto& [name, info] : expected) {
    std::string dest =
        StrFormat("/recv/FEED%c/%s", 'A' + info.first, name.c_str());
    auto got = sub0_fs.ReadFile(dest);
    ASSERT_TRUE(got.ok()) << "sub0 lost " << dest << " (seed " << seed << ")";
    EXPECT_EQ(*got, info.second);
  }
  EXPECT_EQ(sub0.files_received(), want_a + want_b);
  // ...every group member (including the one that was down for 35
  // simulated minutes across the crash) landed every FEEDA file once...
  for (const char* m : {"m0", "m1", "m2"}) {
    check_sink(member_fs[m].get(), member_sinks[m].get(), 0, want_a, m);
  }
  // ...and both relay leaves landed every FEEDB file once.
  for (const char* l : {"leaf0", "leaf1"}) {
    check_sink(leaf_fs[l].get(), leaf_sinks[l].get(), 1, want_b, l);
  }

  // Group state converged: no straggler, no owed files, and the receipt
  // audit shows ONE shared d/ row per file for the whole group.
  fanout::GroupRelay* group_relay = groups->relay("grp1");
  ASSERT_NE(group_relay, nullptr);
  EXPECT_EQ(group_relay->straggler_count(), 0u);
  EXPECT_EQ(group_relay->straggler_lag(), 0u);
  size_t group_rows = 0;
  for (size_t i = 0; i < server->receipts()->shard_count(); ++i) {
    group_rows += server->receipts()->kv(i)->ScanPrefix("d/grp1/").size();
  }
  EXPECT_EQ(group_rows, want_a)
      << "group receipt rows != FEEDA files (seed " << seed << ")";

  // Relay spool drained; queues recompute empty; nothing dead-lettered.
  EXPECT_EQ(relay->Backlog(), 0u);
  for (const char* name : {"sub0", "relaysub", "grp1"}) {
    const SubscriberSpec* spec = server->registry()->FindSubscriber(name);
    ASSERT_NE(spec, nullptr) << name;
    auto queue = server->receipts()->ComputeDeliveryQueue(
        spec->name, server->registry()->SubscribedFeeds(*spec));
    EXPECT_TRUE(queue.empty()) << name << " still has " << queue.size()
                               << " undelivered files (seed " << seed << ")";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "chaos run dead-lettered a file (seed " << seed << ")";
  EXPECT_EQ(server->registry()->subscriber_scans(), 0u)
      << "fan-out fell back to the full subscriber scan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosE2ETest, ::testing::Range(0, 5));

}  // namespace
}  // namespace bistro
