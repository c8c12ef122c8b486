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

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fanout/group.h"
#include "fanout/relay.h"
#include "fault/faulty_transport.h"
#include "fault/faulty_vfs.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

/// The world's two feeds; a scenario's config adds its subscribers.
constexpr char kFeeds[] = R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
)";

/// Three push subscribers: the world of scenarios 1–3.
constexpr char kThreeSubs[] = R"(
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber sub1 { feeds FEEDA; method push; }
subscriber sub2 { feeds FEEDB; method push; }
)";

/// A per-scenario seed derivation: seed * mul + add.
struct Derive {
  uint64_t mul, add;
  uint64_t Of(int s) const { return static_cast<uint64_t>(s) * mul + add; }
};

/// What a scenario declares; the world supplies everything else.
struct Scenario {
  Derive rng;   // fault-plan probabilities, then the traffic
  Derive plan;  // the injector's own draws
  Derive net;   // the simulated WAN
  const char* config = kThreeSubs;
  const char* tuning = "";  // the config blocks under test
  bool degrade_sub1 = false;
  bool pipelined_acks = false;
  bool threaded = false;  // see ThreadedPipelineExactlyOnce... below
};

/// The chaos world: sim clock/loop, a faulty FS over memfs, a faulty
/// transport over a simulated WAN, push sinks, cooperating sources, an
/// hour of traffic, and a crash at +30m with a restart at +32m.
struct ChaosWorld {
  ChaosWorld(int param, const Scenario& scenario)
      : seed(audit::SeedBase() + param), sc(scenario) {}

  /// Moderate, seed-scaled probabilities everywhere, a sub0 link flap.
  FaultPlan MakePlan() {
    FaultPlan plan;
    plan.seed = sc.plan.Of(seed);
    plan.vfs.write_error_prob = rng.NextDouble() * 0.03;
    plan.vfs.torn_write_prob = rng.NextDouble() * 0.03;
    plan.vfs.sync_error_prob = rng.NextDouble() * 0.02;
    plan.vfs.scope = "";  // everything: landing, staging, receipts, spool
    plan.net.send_failure_prob = rng.NextDouble() * 0.15;
    plan.net.corrupt_prob = rng.NextDouble() * 0.08;
    plan.net.ack_loss_prob = rng.NextDouble() * 0.05;
    plan.net.flaps.push_back(
        {"sub0", start + 10 * kMinute, start + 25 * kMinute});
    if (sc.degrade_sub1) plan.net.degrades.push_back({"sub1", 2.0});
    return plan;
  }

  /// A terminal endpoint that must land every file of `feeds`; a `wired`
  /// one sits on a fast WAN link under its own name.
  void AddSink(const std::string& name, std::vector<FeedName> feeds,
               bool wired = true) {
    audit::Sink& sink = sinks[name];
    sink.feeds = std::move(feeds);
    if (wired) {
      network.SetLink(name, LinkSpec::Fast());
      sim_transport.Register(name, &sink.endpoint);
    }
  }

  void Boot(bool rebooting) {
    auto created = BistroServer::Create(opts, config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
    if (on_boot) on_boot(rebooting);
  }

  // Cooperating sources: retry on error, stash while the server is down,
  // re-deposit after restart. A failed Deposit leaves no arrival receipt,
  // so re-depositing cannot double-deliver.
  void Deposit(const std::string& name, const std::string& content) {
    if (server == nullptr) {
      stashed.emplace_back(name, content);
      return;
    }
    if (server->Deposit("src", name, content).ok()) return;
    if (sc.threaded) (void)fs.Delete("/bistro/landing/src/" + name);
    loop.PostAfter(10 * kSecond,
                   [this, name, content] { Deposit(name, content); });
  }

  // Periodic landing-zone rescan (bistrod's --scan-interval): the only
  // recovery path for post-admission failures in threaded mode.
  void ScanPeriodically() {
    loop.PostAfter(97 * kSecond, [this] {
      if (server != nullptr) (void)server->ScanLandingZone();
      if (loop.Now() < start + 5 * kHour) ScanPeriodically();
    });
  }

  void Run() {
    auto parsed = ParseConfig(std::string(kFeeds) + sc.config + sc.tuning);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    config = std::move(*parsed);
    // Every subscriber the server pushes to directly is a sink.
    for (const SubscriberSpec& spec : config.subscribers) {
      if (spec.host.empty()) AddSink(spec.name, spec.feeds);
    }
    injector.Arm(&loop, &network);  // schedule the flap, apply the degrade
    network.SetPipelinedAcks(sc.pipelined_acks);  // windows > 1 overlap acks
    logger.SetMinLevel(LogLevel::kAlarm);

    // Crash-consistent durability + patient retries.
    opts.kv.sync_wal = true;
    opts.sync_staging = true;
    opts.metrics = &registry;
    config.delivery.retry_backoff_min = 2 * kSecond;
    config.delivery.retry_backoff_max = 30 * kSecond;
    config.delivery.probe_interval = 20 * kSecond;
    config.delivery.max_attempts = 100000;  // chaos must not drop files
    opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 1;
    Boot(false);
    ASSERT_NE(server, nullptr);
    if (sc.threaded) ScanPeriodically();

    // Traffic: ~80 matching files over one simulated hour.
    const int num_files = 60 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < num_files; ++i) {
      TimePoint t = start + static_cast<Duration>(rng.Uniform(kHour));
      int f = static_cast<int>(rng.Uniform(2));
      CivilTime c = ToCivil(t);
      std::string name =
          StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f, i, c.year,
                    c.month, c.day, c.hour, c.minute);
      std::string content = rng.AlnumString(20 + rng.Uniform(400));
      expected[name] = {StrFormat("FEED%c", 'A' + f), content};
      loop.PostAt(t, [this, name, content] { Deposit(name, content); });
    }

    // Mid-run crash: the server dies, unsynced bytes evaporate, and a
    // fresh server recovers from the (crash-consistent) receipt database.
    loop.PostAt(start + 30 * kMinute, [this] {
      if (on_crash) on_crash();
      server.reset();
      ASSERT_TRUE(fs.SimulateCrash().ok());
    });
    loop.PostAt(start + 32 * kMinute, [this] {
      Boot(true);
      for (const auto& [name, content] : std::exchange(stashed, {})) {
        Deposit(name, content);
      }
    });

    // Run far past the traffic so retries, probes and backfills settle.
    loop.RunUntil(start + 6 * kHour);

    // Threaded settle: drain the worker threads, rescan for anything a
    // fault pushed back to the landing zone, let retries play out.
    for (int round = 0; sc.threaded && round < 60; ++round) {
      ASSERT_NE(server, nullptr);
      server->ingest()->WaitIdle();
      (void)server->ScanLandingZone();
      server->ingest()->WaitIdle();
      loop.RunUntil(loop.Now() + kMinute);
    }

    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(stashed.empty());
    EXPECT_GT(injector.injected(), 0u) << "fault plan injected nothing";

    // The oracle: every sink landed its feeds exactly once, and the server
    // drained. Redeliveries (lost acks, the crash window) must have been
    // absorbed by receipts + endpoint dedupe.
    for (auto& [name, sink] : sinks) audit::AuditSink(name, &sink, expected);
    audit::AuditDrained(server.get(), expected);
  }

  /// The injected faults and the pipeline's counters ride one scrape.
  void ExpectScraped(std::initializer_list<const char*> metrics) {
    std::string scrape = ExportPrometheus(&registry);
    for (const char* metric : metrics) {
      EXPECT_NE(scrape.find(metric), std::string::npos) << metric;
    }
  }

  const int seed;
  ::testing::ScopedTrace trace{__FILE__, __LINE__,
                               "seed " + std::to_string(seed)};
  const Scenario sc;
  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  Rng rng{sc.rng.Of(seed)};
  SimClock clock{start};
  EventLoop loop{&clock};
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector{MakePlan(), &registry};
  FaultyFileSystem fs{&base_fs, &injector};
  Rng net_rng{sc.net.Of(seed)};
  SimNetwork network{&net_rng};
  SimTransport sim_transport{&loop, &network};
  FaultyTransport transport{&sim_transport, &loop, &injector};
  CallbackInvoker invoker;
  Logger logger{&clock};
  std::map<std::string, audit::Sink> sinks;
  ServerConfig config;
  BistroServer::Options opts;
  std::unique_ptr<BistroServer> server;
  std::function<void(bool rebooting)> on_boot;  // extra processes to start
  std::function<void()> on_crash;               // ...and to kill first
  std::vector<std::pair<std::string, std::string>> stashed;
  audit::Expected expected;
};

class ChaosE2ETest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosE2ETest, ExactlyOnceDeliveryUnderFaultsAndCrash) {
  ChaosWorld w(GetParam(), {.rng = {31337, 7}, .plan = {97, 5},
                            .net = {101, 3}, .degrade_sub1 = true});
  ASSERT_NO_FATAL_FAILURE(w.Run());
  w.ExpectScraped({"bistro_fault_", "bistro_delivery_dead_letter_total"});
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
//
// At the crash, worker queues evaporate with the process; admitted but
// uncommitted files persist only as their (fsynced) landing copies.
TEST_P(ChaosE2ETest, ThreadedPipelineExactlyOnceUnderFaultsAndCrash) {
  ChaosWorld w(GetParam(), {.rng = {52711, 11}, .plan = {89, 13},
                            .net = {103, 9}, .tuning = R"(
ingest { workers 3; queue_depth 64; batch 8; overload_policy block; }
)",
                            .threaded = true});
  ASSERT_NO_FATAL_FAILURE(w.Run());
  EXPECT_EQ(w.server->ingest()->stats().in_flight, 0u);
  w.ExpectScraped(
      {"bistro_ingest_admitted_total", "bistro_ingest_committed_total"});
}

// Same world, same crash — with the fan-out fast path fully enabled:
// pipelined send windows (> 1 in flight per subscriber, pipelined acks on
// the simulated links), small-file frame coalescing, and group-committed
// delivery receipts. None of it may weaken exactly-once: a crash can only
// lose a *suffix* of a buffered receipt group, and the resulting
// redeliveries must be absorbed by the subscriber-side FileId dedupe.
TEST_P(ChaosE2ETest, FastPathExactlyOnceUnderFaultsAndCrash) {
  ChaosWorld w(GetParam(), {.rng = {40087, 19}, .plan = {83, 29},
                            .net = {107, 17}, .tuning = R"(
delivery { window 4; coalesce_bytes 4096;
           receipt_group 8; receipt_flush_interval 200ms; }
)",
                            .degrade_sub1 = true, .pipelined_acks = true});
  ASSERT_NO_FATAL_FAILURE(w.Run());
  // No receipt may linger in the buffer once the run quiesces.
  EXPECT_EQ(w.server->delivery()->buffered_receipts(), 0u);
  // The grouped-receipt path actually ran.
  EXPECT_GT(w.server->delivery_stats().receipt_group_flushes, 0u);
  w.ExpectScraped({"bistro_delivery_coalesced_files_total",
                   "bistro_delivery_receipt_group_flushes_total",
                   "bistro_delivery_cache_hits_total"});
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
//
// The crash takes the server, group manager AND relay down together; the
// sharded receipt stores and the relay spool recover from their WALs.
TEST_P(ChaosE2ETest, FanoutGroupsRelaysShardsExactlyOnceUnderFaultsAndCrash) {
  ChaosWorld w(GetParam(), {.rng = {68111, 23}, .plan = {79, 31},
                            .net = {109, 21}, .config = R"(
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber relaysub { feeds FEEDB; method push; host "relayR"; }
group grp1 {
  feeds FEEDA;
  members m0, m1, m2;
  straggler_after 3;
}
receipts { shards 4; }
)"});

  // Terminal endpoints beside the plain subscriber: three group members
  // (m2 is hard-down from +5m to +40m, spanning the crash), two relay
  // leaves.
  w.network.SetLink("grp1", LinkSpec::Fast());
  w.network.SetLink("relayR", LinkSpec::Fast());
  for (const char* m : {"m0", "m1", "m2"}) w.AddSink(m, {"FEEDA"}, false);
  for (const char* l : {"leaf0", "leaf1"}) w.AddSink(l, {"FEEDB"});
  OutageEndpoint m2_flaky(&w.sinks["m2"].endpoint, &w.loop,
                          w.start + 5 * kMinute, w.start + 40 * kMinute);
  auto member = [&](const std::string& m) -> Endpoint* {
    if (m == "m2") return &m2_flaky;
    return &w.sinks[m].endpoint;
  };
  auto wire = [&](const std::string& name, Endpoint* ep) {
    w.sim_transport.Register(name, ep);
  };

  std::unique_ptr<fanout::RelayNode> relay;
  std::unique_ptr<fanout::GroupManager> groups;
  w.on_boot = [&](bool rebooting) {
    EXPECT_EQ(w.server->receipts()->shard_count(), 4u);
    // The relay restarts from its durable spool (replaying entries the
    // crash left with unacked children), on the same faulty transport.
    fanout::RelayNode::Options relay_options;
    relay_options.spool_dir = "/bistro/relay-spool";
    relay_options.retry_backoff = 3 * kSecond;
    relay_options.kv.sync_wal = true;
    auto opened = fanout::RelayNode::Open("relayR", {"leaf0", "leaf1"}, &w.fs,
                                          &w.transport, &w.loop, &w.logger,
                                          relay_options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    relay = std::move(*opened);
    w.sim_transport.Register("relayR", relay.get());
    fanout::GroupManager::Options group_options;
    group_options.catchup_interval = 45 * kSecond;
    groups = std::make_unique<fanout::GroupManager>(
        w.server.get(), &w.fs, &w.loop, &w.logger, group_options);
    ASSERT_TRUE(groups->Wire(w.config.groups, member, wire).ok());
    if (rebooting) {
      // In-memory straggler state died with the process: re-offer the
      // group's delivered history; member dedupe absorbs the repeats.
      ASSERT_TRUE(groups->Resync().ok());
    }
  };
  w.on_crash = [&] {
    // The relay and group relays die with the server process: take their
    // addresses off the wire so in-flight messages bounce, then destroy.
    w.sim_transport.Unregister("relayR");
    w.sim_transport.Unregister("grp1");
    groups.reset();
    relay.reset();
  };
  ASSERT_NO_FATAL_FAILURE(w.Run());
  EXPECT_GT(m2_flaky.rejected(), 0u) << "member outage window saw no traffic";
  // Run() audited every group member (including the one that was down for
  // 35 simulated minutes across the crash) and both relay leaves as sinks.

  // Group state converged: no straggler, no owed files, and the receipt
  // audit shows ONE shared d/ row per file for the whole group.
  fanout::GroupRelay* group_relay = groups->relay("grp1");
  ASSERT_NE(group_relay, nullptr);
  EXPECT_EQ(group_relay->straggler_count(), 0u);
  EXPECT_EQ(group_relay->straggler_lag(), 0u);
  size_t group_rows = 0, want_a = 0;
  for (size_t i = 0; i < w.server->receipts()->shard_count(); ++i) {
    group_rows += w.server->receipts()->kv(i)->ScanPrefix("d/grp1/").size();
  }
  for (const auto& [name, file] : w.expected) want_a += file.feed == "FEEDA";
  EXPECT_EQ(group_rows, want_a) << "group receipt rows != FEEDA files";

  // Relay spool drained; fan-out never fell back to the subscriber scan.
  EXPECT_EQ(relay->Backlog(), 0u);
  EXPECT_EQ(w.server->registry()->subscriber_scans(), 0u)
      << "fan-out fell back to the full subscriber scan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosE2ETest, ::testing::Range(0, 5));

}  // namespace
}  // namespace bistro
