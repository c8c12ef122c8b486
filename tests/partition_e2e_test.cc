// Partition-matrix end-to-end test: an upstream Bistro server federates
// to in-process downstream servers over REAL loopback TCP, with a
// PartitionableTransport shim interposed on every link so network
// partitions, one-way blackholes, link flaps, and failover outages are
// injected deterministically — no root, no iptables, seeded.
//
// Every cell ends the same way: the downstream servers are torn down and
// their receipt databases reopened post-mortem, and the Bistro guarantee
// is audited cold — every deposited file ingested exactly once per
// downstream, payload bytes intact — no matter what the wire did in
// between. The cells additionally pin the peer-health state machine
// (healthy -> suspect -> down -> probation -> healthy), the circuit
// breaker (a down peer fails fast instead of burning the outbound
// queue), and replica failover with primary catch-up on heal.
//
// The CI partition-chaos job shifts seeds via BISTRO_CHAOS_SEED_BASE.

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fault/partition.h"
#include "fault/plan.h"
#include "federation/federation.h"
#include "federation/health.h"
#include "kv/receipts.h"
#include "net/socket_transport.h"
#include "vfs/localfs.h"

namespace bistro {
namespace {

int SeedBase() {
  const char* env = std::getenv("BISTRO_CHAOS_SEED_BASE");
  return env == nullptr ? 0 : std::atoi(env);
}

constexpr char kFeedConfig[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; tardiness 1m; }
)";

// --------------------------------------------------------- downstreams

/// One in-process downstream server with its own listener, inbound
/// endpoint, and durable state root. Call CloseServer() before auditing
/// its receipt DB post-mortem.
class Downstream {
 public:
  Downstream(EventLoop* loop, LocalFileSystem* fs, Logger* logger,
             const std::string& root)
      : root_(root), transport_(loop, ListenOptions()) {
    Init(loop, fs, logger, root);
  }

  /// ASSERTs need a void function; the constructor delegates here.
  void Init(EventLoop* loop, LocalFileSystem* fs, Logger* logger,
            const std::string& root) {
    EXPECT_TRUE(transport_.Listen().ok());
    auto config = ParseConfig(kFeedConfig);
    ASSERT_TRUE(config.ok()) << config.status();
    BistroServer::Options opts;
    opts.landing_root = root + "/landing";
    opts.staging_root = root + "/staging";
    opts.db_dir = root + "/db";
    auto server = BistroServer::Create(opts, *config, fs, &transport_, loop,
                                       &invoker_, logger);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    inbound_ = std::make_unique<FederationInbound>(server_.get(), logger);
    transport_.SetInboundEndpoint(inbound_.get());
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(transport_.listen_port());
  }
  const std::string& root() const { return root_; }
  FederationInbound* inbound() { return inbound_.get(); }

  /// Tears the server down cleanly so the receipt DB can be reopened.
  void CloseServer() {
    transport_.Shutdown();
    inbound_.reset();
    server_.reset();
  }

 private:
  static SocketTransport::Options ListenOptions() {
    SocketTransport::Options opts;
    opts.listen_address = "127.0.0.1:0";
    return opts;
  }

  std::string root_;
  CallbackInvoker invoker_;
  SocketTransport transport_;
  std::unique_ptr<BistroServer> server_;
  std::unique_ptr<FederationInbound> inbound_;
};

// -------------------------------------------------------- the upstream

/// Upstream server + health/failover runtime + chaos harness. The
/// harness IS the server's transport (production wiring plus an
/// interposed wire); the inner SocketTransport carries the observer and
/// the circuit-breaker gate.
class Upstream {
 public:
  /// `peer_config` holds the `peer { ... }` blocks, one per entry of
  /// `downstreams` in order; each placeholder address is rewritten to
  /// the matching downstream's shim.
  Upstream(int seed, EventLoop* loop, LocalFileSystem* fs, Logger* logger,
           const std::string& root, const std::string& peer_config,
           std::vector<Downstream*> downstreams, bool with_runtime,
           std::function<void(ServerConfig*)> tweak = nullptr) {
    Init(seed, loop, fs, logger, root, peer_config, std::move(downstreams),
         with_runtime, std::move(tweak));
  }

  /// ASSERTs need a void function; the constructor delegates here.
  void Init(int seed, EventLoop* loop, LocalFileSystem* fs, Logger* logger,
            const std::string& root, const std::string& peer_config,
            std::vector<Downstream*> downstreams, bool with_runtime,
            std::function<void(ServerConfig*)> tweak) {
    auto config = ParseConfig(std::string(kFeedConfig) + peer_config);
    ASSERT_TRUE(config.ok()) << config.status();
    config_ = std::make_unique<ServerConfig>(std::move(*config));
    config_->server.reconnect_backoff_min = 20 * kMillisecond;
    config_->server.reconnect_backoff_max = 100 * kMillisecond;
    config_->server.ack_timeout = 300 * kMillisecond;

    transport_ = std::make_unique<SocketTransport>(
        loop, SocketTransport::Options{config_->server,
                                       static_cast<uint64_t>(seed) + 1});
    harness_ = std::make_unique<PartitionableTransport>(
        loop, transport_.get(), "up");

    BistroServer::Options opts;
    opts.landing_root = root + "/up/landing";
    opts.staging_root = root + "/up/staging";
    opts.db_dir = root + "/up/db";
    config_->delivery.retry_backoff_min = 50 * kMillisecond;
    config_->delivery.retry_backoff_max = 400 * kMillisecond;
    config_->delivery.probe_interval = 100 * kMillisecond;
    config_->delivery.max_attempts = 1000000;  // an outage must not drop files
    opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 2;
    if (tweak) tweak(config_.get());
    auto server = BistroServer::Create(opts, *config_, fs, harness_.get(),
                                       loop, &invoker_, logger);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);

    if (with_runtime) {
      runtime_ = std::make_unique<FederationRuntime>(
          server_.get(), transport_.get(), loop, logger);
      ASSERT_TRUE(runtime_->Start(*config_).ok());
    } else {
      ASSERT_TRUE(
          WirePeers(*config_, server_.get(), transport_.get(), logger).ok());
    }
    // Re-point every peer at its shim (config addresses are
    // placeholders); the inner transport reconnects through the relay.
    ASSERT_EQ(config_->peers.size(), downstreams.size());
    for (size_t i = 0; i < downstreams.size(); ++i) {
      ASSERT_TRUE(harness_
                      ->AddPeer(config_->peers[i].name,
                                downstreams[i]->address())
                      .ok());
    }
  }

  BistroServer* server() { return server_.get(); }
  SocketTransport* transport() { return transport_.get(); }
  PartitionableTransport* harness() { return harness_.get(); }
  FederationRuntime* runtime() { return runtime_.get(); }

  size_t Queue(const std::string& peer) {
    return server_->receipts()->ComputeDeliveryQueue(peer, {"FED"}).size();
  }

 private:
  CallbackInvoker invoker_;
  std::unique_ptr<ServerConfig> config_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<PartitionableTransport> harness_;
  std::unique_ptr<BistroServer> server_;
  std::unique_ptr<FederationRuntime> runtime_;
};

// ------------------------------------------------------------ the test

class PartitionE2ETest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    char dir_template[] = "/tmp/bistro_part_e2e_XXXXXX";
    ASSERT_NE(mkdtemp(dir_template), nullptr);
    root_ = dir_template;
    seed_ = SeedBase() + GetParam();
    rng_ = std::make_unique<Rng>(static_cast<uint64_t>(seed_) * 6271 + 29);
    clock_ = RealClock::Get();
    loop_ = std::make_unique<EventLoop>(clock_);
    logger_ = std::make_unique<Logger>(clock_);
    logger_->SetMinLevel(LogLevel::kAlarm);
  }

  void TearDown() override {
    (void)std::system(("rm -rf " + root_).c_str());
  }

  /// Deposits file #i upstream and records its expected payload.
  /// Returns the file name.
  std::string Deposit(Upstream* up, int i, size_t min_bytes = 64,
                      size_t spread = 2048) {
    std::string name = StrFormat("fed_%d_202608080%d%02d.dat", i,
                                 1 + i / 60, i % 60);
    std::string content =
        rng_->AlnumString(min_bytes + rng_->Uniform(spread));
    expected_[name] = content;
    EXPECT_TRUE(up->server()->Deposit("src", name, content).ok());
    return name;
  }

  /// Pumps real time until `pred()` holds or `patience` expires.
  bool PumpUntil(const std::function<bool()>& pred,
                 Duration patience = 60 * kSecond) {
    TimePoint deadline = clock_->Now() + patience;
    while (!pred() && clock_->Now() < deadline) {
      loop_->RunFor(10 * kMillisecond);
    }
    return pred();
  }

  /// Pumps real time for a fixed span.
  void Pump(Duration span) {
    TimePoint deadline = clock_->Now() + span;
    while (clock_->Now() < deadline) loop_->RunFor(10 * kMillisecond);
  }

  /// Post-mortem audit of one downstream's receipt DB: every ingested
  /// name unique, expected, payload intact. Returns the names seen.
  std::set<std::string> AuditExactlyOnce(Downstream* down) {
    LocalFileSystem fs;
    auto db = ReceiptDatabase::Open(&fs, down->root() + "/db");
    EXPECT_TRUE(db.ok()) << db.status();
    std::set<std::string> seen;
    if (!db.ok()) return seen;
    for (FileId id : (*db)->FilesInFeed("FED")) {
      auto receipt = (*db)->GetArrival(id);
      EXPECT_TRUE(receipt.ok()) << receipt.status();
      if (!receipt.ok()) continue;
      EXPECT_TRUE(seen.insert(receipt->name).second)
          << "name ingested twice: " << receipt->name << " (seed " << seed_
          << ")";
      auto it = expected_.find(receipt->name);
      EXPECT_NE(it, expected_.end())
          << "unexpected file: " << receipt->name << " (seed " << seed_
          << ")";
      if (it == expected_.end()) continue;
      auto staged = fs.ReadFile(receipt->staged_path);
      EXPECT_TRUE(staged.ok()) << receipt->staged_path << ": "
                               << staged.status();
      if (staged.ok()) {
        EXPECT_EQ(*staged, it->second) << receipt->name;
      }
    }
    EXPECT_EQ((*db)->ArrivalCount(), seen.size());
    return seen;
  }

  std::string root_;
  int seed_ = 0;
  std::unique_ptr<Rng> rng_;
  RealClock* clock_ = nullptr;
  LocalFileSystem fs_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<Logger> logger_;
  std::map<std::string, std::string> expected_;
};

/// One tracked peer with fast health thresholds (tests only; production
/// defaults are in PeerHealthSpec).
constexpr char kTrackedPeer[] = R"(
peer down { address "127.0.0.1:1"; feeds FED;
            probe_interval 100ms; suspect_after 1; down_after 3; }
)";

// Cell A: a two-way partition lands mid-window and heals, armed from a
// parsed FaultPlan so the scenario is a seedable text artifact rather
// than ad-hoc test code. Reconnect attempts bounce off the severed shim
// until the heal; afterwards health recovers and every file converges.
TEST_P(PartitionE2ETest, TwoWayPartitionMidWindowThenHeal) {
  SCOPED_TRACE("seed " + std::to_string(seed_));
  Downstream down(loop_.get(), &fs_, logger_.get(), root_ + "/down");
  Upstream up(seed_, loop_.get(), &fs_, logger_.get(), root_, kTrackedPeer,
              {&down}, /*with_runtime=*/true);

  // First wave flows while the link is clean; pump until part of it is
  // acked so the partition lands mid-window, receipts on both sides.
  const int wave1 = 6 + static_cast<int>(rng_->Uniform(4));
  for (int i = 0; i < wave1; ++i) Deposit(&up, i);
  ASSERT_TRUE(PumpUntil([&] {
    return up.Queue("down") <= static_cast<size_t>(wave1) / 2;
  })) << "first wave never flowed";

  auto plan = ParseFaultPlan(R"(
fault_plan {
  net {
    partition "up" "down" at 0s;
    heal "up" "down" at 1200ms;
  }
}
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  up.harness()->Arm(*plan);

  // Second wave lands inside the outage.
  for (int i = wave1; i < wave1 + 6; ++i) Deposit(&up, i);
  Pump(600 * kMillisecond);
  // Mid-outage: reconnects bounce off the severed shim and the health
  // verdict has left healthy.
  EXPECT_GT(up.harness()->severed_rejects(), 0u);
  EXPECT_NE(up.runtime()->tracker()->Health("down"), PeerHealth::kHealthy);

  // After the armed heal: everything converges and health recovers.
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }))
      << "undelivered files after heal";
  ASSERT_TRUE(PumpUntil([&] {
    return up.runtime()->tracker()->Health("down") == PeerHealth::kHealthy;
  })) << "health never recovered after heal";
  EXPECT_TRUE(up.server()->delivery()->dead_letters().empty());
  EXPECT_GT(up.runtime()->tracker()->transitions(), 0u);

  down.CloseServer();
  EXPECT_EQ(AuditExactlyOnce(&down).size(), expected_.size());
}

// Cell B: a one-way blackhole eats acks while deliveries keep landing —
// the half-open failure mode only ack timeouts can see. Retries
// redeliver already-ingested files; the downstream's receipt dedupe
// absorbs every duplicate, and post-mortem the DB still shows each file
// exactly once.
TEST_P(PartitionE2ETest, OneWayBlackholeDropsAcksAndDedupeAbsorbs) {
  SCOPED_TRACE("seed " + std::to_string(seed_));
  Downstream down(loop_.get(), &fs_, logger_.get(), root_ + "/down");
  Upstream up(seed_, loop_.get(), &fs_, logger_.get(), root_, kTrackedPeer,
              {&down}, /*with_runtime=*/true);

  // Warm the connection with one clean file.
  Deposit(&up, 0);
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }));

  up.harness()->Blackhole("down", /*to_peer=*/false);  // acks vanish
  for (int i = 1; i <= 5; ++i) Deposit(&up, i);

  // Deliveries arrive and ingest while every ack dies on the wire — the
  // half-open shape: the downstream holds files the upstream cannot
  // prove delivered. (A frame still queued when the ack-timeout drops
  // the connection only crosses after the heal, so not every file need
  // land yet.) The timeouts walk the peer out of healthy and the open
  // circuit parks the retries.
  ASSERT_TRUE(PumpUntil(
      [&] {
        return up.transport()->ack_timeouts() > 0 &&
               down.inbound()->files_ingested() >= 2;
      },
      30 * kSecond))
      << "deliveries/timeouts never happened under the blackhole";
  EXPECT_GT(up.harness()->dropped_bytes(), 0u);
  EXPECT_NE(up.runtime()->tracker()->Health("down"), PeerHealth::kHealthy);

  up.harness()->Heal("down");
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }))
      << "undelivered files after heal";
  ASSERT_TRUE(PumpUntil([&] {
    return up.runtime()->tracker()->Health("down") == PeerHealth::kHealthy;
  }));
  // Earning the missing delivery receipts required redelivering files
  // the downstream already had: receipt dedupe absorbed every one.
  EXPECT_GE(down.inbound()->duplicates_absorbed(), 1u);
  EXPECT_TRUE(up.server()->delivery()->dead_letters().empty());

  down.CloseServer();
  EXPECT_EQ(AuditExactlyOnce(&down).size(), expected_.size());
}

// Cell C: a flapping link — repeated partition/heal cycles with traffic
// throughout. The health machine churns, reconnect and outage-duration
// stats accumulate, and the guarantee still converges.
TEST_P(PartitionE2ETest, FlappingLinkStillConvergesExactlyOnce) {
  SCOPED_TRACE("seed " + std::to_string(seed_));
  Downstream down(loop_.get(), &fs_, logger_.get(), root_ + "/down");
  Upstream up(seed_, loop_.get(), &fs_, logger_.get(), root_, kTrackedPeer,
              {&down}, /*with_runtime=*/true);

  int next = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    Deposit(&up, next++);
    Deposit(&up, next++);
    up.harness()->Partition("down");
    Pump((120 + rng_->Uniform(80)) * kMillisecond);
    up.harness()->Heal("down");
    Pump((120 + rng_->Uniform(80)) * kMillisecond);
  }

  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }))
      << "undelivered files after flapping stopped";
  ASSERT_TRUE(PumpUntil([&] {
    return up.runtime()->tracker()->Health("down") == PeerHealth::kHealthy;
  }));
  EXPECT_GE(up.runtime()->tracker()->transitions(), 2u);
  // The flaps are visible in the per-peer wire stats (satellite: the
  // `peers` admin table renders these same numbers).
  SocketTransport::PeerNetStats stats = up.transport()->GetPeerStats("down");
  EXPECT_TRUE(stats.known);
  EXPECT_GE(stats.reconnect_attempts, 1u);
  EXPECT_GT(stats.disconnected_total, 0);
  EXPECT_TRUE(up.server()->delivery()->dead_letters().empty());

  down.CloseServer();
  EXPECT_EQ(AuditExactlyOnce(&down).size(), expected_.size());
}

/// Primary with a configured standby replica. Fast thresholds so the
/// outage is detected in test time.
constexpr char kFailoverPeers[] = R"(
peer down1 { address "127.0.0.1:1"; feeds FED; failover down2;
             probe_interval 100ms; suspect_after 1; down_after 2; }
peer down2 { address "127.0.0.1:1"; }
)";

// Cell D: the primary is black-holed (TCP stays up, nothing arrives —
// the worst case for queue burn). The health machine must declare it
// down, open the circuit so sends fail fast instead of queueing toward
// the outbound byte cap, and re-route onto the standby replica; on heal
// the primary catches up and fresh traffic routes to it again.
TEST_P(PartitionE2ETest, FailoverToReplicaThenHealCatchesUp) {
  SCOPED_TRACE("seed " + std::to_string(seed_));
  Downstream d1(loop_.get(), &fs_, logger_.get(), root_ + "/down1");
  Downstream d2(loop_.get(), &fs_, logger_.get(), root_ + "/down2");
  Upstream up(seed_, loop_.get(), &fs_, logger_.get(), root_,
              kFailoverPeers, {&d1, &d2}, /*with_runtime=*/true);

  // Clean wave to the primary; the standby takes no feeds yet.
  const int wave1 = 5;
  for (int i = 0; i < wave1; ++i) Deposit(&up, i);
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down1") == 0; }))
      << "clean wave never reached the primary";

  // Black-hole the primary's inbound direction and push one canary: its
  // ack timeouts walk the peer to `down` and trip the failover.
  up.harness()->Blackhole("down1", /*to_peer=*/true);
  std::vector<std::string> wave2;
  wave2.push_back(Deposit(&up, wave1, 16 * 1024, 32 * 1024));
  ASSERT_TRUE(PumpUntil([&] { return up.runtime()->failovers() == 1; },
                        30 * kSecond))
      << "failover never activated";
  EXPECT_EQ(up.runtime()->tracker()->Health("down1"), PeerHealth::kDown);

  // Rest of the outage wave lands while failed over.
  for (int i = wave1 + 1; i < wave1 + 5; ++i) {
    wave2.push_back(Deposit(&up, i, 16 * 1024, 32 * 1024));
  }

  // Circuit open: the retry that hits the gate fails fast, and the
  // primary's outbound queue never fills toward the byte cap.
  ASSERT_TRUE(PumpUntil(
      [&] { return up.runtime()->tracker()->fast_fails() > 0; },
      15 * kSecond))
      << "no send ever failed fast on the open circuit";
  EXPECT_LT(up.transport()->GetPeerStats("down1").queued_bytes,
            size_t{1} << 20);

  // The replica (now holding the primary's feeds) receives everything.
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down2") == 0; }))
      << "replica never converged during the outage";

  up.harness()->Heal("down1");
  ASSERT_TRUE(PumpUntil([&] { return up.runtime()->failbacks() == 1; },
                        30 * kSecond))
      << "fail-back never happened after heal";
  ASSERT_TRUE(PumpUntil([&] {
    return up.runtime()->tracker()->Health("down1") == PeerHealth::kHealthy;
  }));

  // Catch-up: the recovered primary drains the files it missed.
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down1") == 0; }))
      << "primary never caught up after heal";

  // Fresh traffic routes to the recovered primary, not the replica.
  std::string post_heal = Deposit(&up, wave1 + 5);
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down1") == 0; }))
      << "post-heal file never reached the primary";
  Pump(200 * kMillisecond);  // give a mis-route time to show up
  EXPECT_TRUE(up.server()->delivery()->dead_letters().empty());

  d1.CloseServer();
  d2.CloseServer();
  std::set<std::string> s1 = AuditExactlyOnce(&d1);
  std::set<std::string> s2 = AuditExactlyOnce(&d2);
  // The primary ends with every file exactly once (outage files via
  // catch-up); the replica served during the outage — it holds the
  // failed-over wave, but never the post-heal file.
  EXPECT_EQ(s1.size(), expected_.size());
  EXPECT_FALSE(s2.empty());
  for (const std::string& name : wave2) {
    EXPECT_EQ(s2.count(name), 1u) << "replica missed " << name;
  }
  EXPECT_EQ(s2.count(post_heal), 0u)
      << "post-heal traffic leaked to the replica";
}

// Satellite: an ack timeout lands on an in-flight coalesced multi-file
// bundle. Every file in the bundle must be retried and land exactly
// once — none dropped, none double-committed.
TEST_P(PartitionE2ETest, AckTimeoutOnCoalescedBundleRetriesEveryFile) {
  SCOPED_TRACE("seed " + std::to_string(seed_));
  Downstream down(loop_.get(), &fs_, logger_.get(), root_ + "/down");
  Upstream up(seed_, loop_.get(), &fs_, logger_.get(), root_,
              R"(peer down { address "127.0.0.1:1"; feeds FED; })", {&down},
              /*with_runtime=*/false, [](ServerConfig* config) {
                config->delivery.coalesce_bytes = 64 * 1024;
                config->delivery.window = 8;
                config->delivery.retry_backoff_min = 250 * kMillisecond;
                // Keep the direct-retry path in play: never flag the
                // subscriber offline.
                config->delivery.offline_after = 1000000;
              });

  // Warm the connection, then eat acks only: the bundle will arrive and
  // ingest, but its acks die on the wire.
  Deposit(&up, 0, 64, 256);
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }));
  up.harness()->Blackhole("down", /*to_peer=*/false);

  // Park a batch behind a manual offline flag so it dispatches in one
  // round — the coalescible shape (same trick as the engine tests).
  const int kBatch = 6;
  up.server()->delivery()->SetOffline("down", true);
  for (int i = 1; i <= kBatch; ++i) Deposit(&up, i, 512, 4096);
  Pump(100 * kMillisecond);
  up.server()->delivery()->SetOffline("down", false);

  // Every file of the bundle arrives downstream; every ack is dropped.
  ASSERT_TRUE(PumpUntil(
      [&] {
        return down.inbound()->files_ingested() ==
                   static_cast<uint64_t>(kBatch) + 1 &&
               up.transport()->ack_timeouts() > 0;
      },
      30 * kSecond))
      << "bundle never fully arrived / never timed out";
  EXPECT_GT(up.server()->delivery_stats().coalesced_files, 0u);

  up.harness()->Heal("down");
  ASSERT_TRUE(PumpUntil([&] { return up.Queue("down") == 0; }))
      << "bundle files still undelivered after heal";
  EXPECT_TRUE(up.server()->delivery()->dead_letters().empty());

  // Each bundle file was ingested exactly once (the first arrival); the
  // post-heal retries that earned the acks were all absorbed as
  // duplicates.
  EXPECT_EQ(down.inbound()->files_ingested(),
            static_cast<uint64_t>(kBatch) + 1);
  EXPECT_GE(down.inbound()->duplicates_absorbed(),
            static_cast<uint64_t>(kBatch));

  down.CloseServer();
  EXPECT_EQ(AuditExactlyOnce(&down).size(), expected_.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionE2ETest, ::testing::Range(0, 3));

}  // namespace
}  // namespace bistro
