// Multi-process federation end-to-end test: two REAL OS processes — an
// upstream Bistro server in this (parent) process and a downstream
// server in a fork()ed child — exchange a feed over real loopback TCP,
// and the downstream is SIGKILLed mid-stream and restarted from its
// durable state. The Bistro guarantee must hold across the crash:
//
//   every file deposited upstream is ingested downstream exactly once —
//   one arrival receipt per name, payload bytes intact — even though the
//   kill lands between deliveries and the upstream redelivers everything
//   unacked after the restart.
//
// The handoff is exactly-once by composition (DESIGN.md §12): the
// upstream retries until its delivery receipt is durable, the downstream
// acks an already-receipted name without re-ingesting, and a child ack
// is only sent after the arrival receipt's WAL write fsynced — so a
// SIGKILL at any instant either loses an unacked delivery (retried) or
// kills an acked one whose receipt already survives.
//
// The CI federation job shifts seeds via BISTRO_CHAOS_SEED_BASE.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "federation/federation.h"
#include "kv/receipts.h"
#include "net/socket_transport.h"
#include "trigger/trigger.h"
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

// ---------------------------------------------------------- downstream

/// Downstream server body, run inside a fork()ed child. Listens on an
/// ephemeral port (written atomically to `port_file`), ingests whatever
/// the upstream pushes, and runs until SIGKILLed. Never returns.
[[noreturn]] void RunDownstream(const std::string& root,
                                const std::string& port_file) {
  LocalFileSystem fs;
  RealClock clock;
  EventLoop loop(&clock);
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  CallbackInvoker invoker;

  SocketTransport::Options topts;
  topts.listen_address = "127.0.0.1:0";
  SocketTransport transport(&loop, topts);
  if (!transport.Listen().ok()) _exit(3);

  auto config = ParseConfig(kFeedConfig);
  if (!config.ok()) _exit(4);

  BistroServer::Options opts;
  opts.landing_root = root + "/landing";
  opts.staging_root = root + "/staging";
  opts.db_dir = root + "/db";
  // Crash-consistent durability: an ack must never precede its receipt.
  opts.sync_staging = true;
  opts.kv.sync_wal = true;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  if (!server.ok()) _exit(5);

  FederationInbound inbound(server->get(), &logger);
  transport.SetInboundEndpoint(&inbound);

  // Port goes out only when the server is ready to ingest; the atomic
  // rename keeps the parent from reading a half-written file.
  std::string tmp = port_file + ".tmp";
  if (!fs.WriteFile(tmp, std::to_string(transport.listen_port())).ok() ||
      !fs.Rename(tmp, port_file).ok()) {
    _exit(6);
  }

  for (;;) loop.RunFor(50 * kMillisecond);
}

pid_t ForkDownstream(const std::string& root, const std::string& port_file) {
  pid_t pid = fork();
  if (pid == 0) RunDownstream(root, port_file);  // never returns
  return pid;
}

/// Polls (in real time) for the child's port file.
int AwaitPort(LocalFileSystem* fs, const std::string& port_file) {
  RealClock* clock = RealClock::Get();
  TimePoint deadline = clock->Now() + 30 * kSecond;
  while (clock->Now() < deadline) {
    if (fs->Exists(port_file)) {
      auto text = fs->ReadFile(port_file);
      if (text.ok() && !text->empty()) return std::atoi(text->c_str());
    }
    clock->SleepFor(10 * kMillisecond);
  }
  return -1;
}

void KillDownstream(pid_t pid) {
  ASSERT_GT(pid, 0);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
}

// ------------------------------------------------------------ the test

class FederationE2ETest : public ::testing::TestWithParam<int> {};

TEST_P(FederationE2ETest, ExactlyOnceAcrossDownstreamSigkill) {
  const int seed = SeedBase() + GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);

  char dir_template[] = "/tmp/bistro_fed_e2e_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string root = dir_template;
  const std::string up_root = root + "/up";
  const std::string down_root = root + "/down";

  LocalFileSystem fs;
  RealClock* clock = RealClock::Get();

  // ---- First downstream incarnation.
  pid_t child = ForkDownstream(down_root, root + "/port1");
  ASSERT_GT(child, 0);
  int port = AwaitPort(&fs, root + "/port1");
  ASSERT_GT(port, 0) << "downstream never published its port";

  // ---- Upstream server in this process, peer wired from config.
  EventLoop loop(clock);
  Logger logger(clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  CallbackInvoker invoker;

  auto config = ParseConfig(std::string(kFeedConfig) + R"(
peer down { address "127.0.0.1:1"; feeds FED; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  config->peers[0].address = "127.0.0.1:" + std::to_string(port);
  config->server.reconnect_backoff_min = 20 * kMillisecond;
  config->server.reconnect_backoff_max = 200 * kMillisecond;
  config->server.ack_timeout = 2 * kSecond;

  SocketTransport transport(
      &loop, {config->server, static_cast<uint64_t>(seed) + 1});

  BistroServer::Options opts;
  opts.landing_root = up_root + "/landing";
  opts.staging_root = up_root + "/staging";
  opts.db_dir = up_root + "/db";
  opts.sync_staging = true;
  opts.kv.sync_wal = true;
  config->delivery.retry_backoff_min = 50 * kMillisecond;
  config->delivery.retry_backoff_max = 500 * kMillisecond;
  config->delivery.probe_interval = 100 * kMillisecond;
  config->delivery.max_attempts = 1000000;  // the outage must not drop files
  opts.engine.backoff_seed = static_cast<uint64_t>(seed) + 2;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE(
      WirePeers(*config, server->get(), &transport, &logger).ok());

  // ---- Traffic: N files with randomized payloads.
  const int num_files = 32 + static_cast<int>(rng.Uniform(16));
  std::map<std::string, std::string> expected;
  auto deposit = [&](int i) {
    std::string name = StrFormat("fed_%d_202608080%d%02d.dat", i,
                                 1 + i / 60, i % 60);
    std::string content = rng.AlnumString(64 + rng.Uniform(4096));
    expected[name] = content;
    ASSERT_TRUE((*server)->Deposit("src", name, content).ok());
  };

  auto queue_size = [&] {
    return (*server)
        ->receipts()
        ->ComputeDeliveryQueue("down", {"FED"})
        .size();
  };

  // First wave flows while the downstream is up; pump until some (a
  // seed-dependent fraction) are acked, so the kill lands mid-stream
  // with receipts on both sides of it.
  const int first_wave = num_files / 2;
  for (int i = 0; i < first_wave; ++i) deposit(i);
  const size_t drain_to =
      static_cast<size_t>(rng.Uniform(static_cast<uint64_t>(first_wave)));
  TimePoint deadline = clock->Now() + 60 * kSecond;
  while (queue_size() > drain_to && clock->Now() < deadline) {
    loop.RunFor(10 * kMillisecond);
  }
  ASSERT_LE(queue_size(), drain_to) << "first wave never flowed (seed "
                                    << seed << ")";

  // ---- SIGKILL the downstream mid-stream.
  KillDownstream(child);

  // Second wave lands during the outage; every send fails Unavailable
  // and parks in the retry/probe machinery.
  for (int i = first_wave; i < num_files; ++i) deposit(i);
  loop.RunFor(200 * kMillisecond);

  // ---- Restart the downstream on the same root: receipts and staged
  // bytes recover from the WAL; the listener binds a fresh port.
  child = ForkDownstream(down_root, root + "/port2");
  ASSERT_GT(child, 0);
  port = AwaitPort(&fs, root + "/port2");
  ASSERT_GT(port, 0) << "restarted downstream never published its port";
  transport.AddPeer("down", "127.0.0.1:" + std::to_string(port));

  // ---- Convergence: every file acquires a durable delivery receipt.
  deadline = clock->Now() + 120 * kSecond;
  while (queue_size() > 0 && clock->Now() < deadline) {
    loop.RunFor(10 * kMillisecond);
  }
  EXPECT_EQ(queue_size(), 0u)
      << "undelivered files after restart (seed " << seed << ")";
  EXPECT_TRUE((*server)->delivery()->dead_letters().empty());

  // ---- Kill the survivor too: the guarantee must already be durable.
  KillDownstream(child);

  // ---- Inspect the downstream's receipt database post-mortem.
  auto down_db = ReceiptDatabase::Open(&fs, down_root + "/db");
  ASSERT_TRUE(down_db.ok()) << down_db.status();
  EXPECT_EQ((*down_db)->ArrivalCount(), expected.size())
      << "downstream ingest count != deposited count (seed " << seed
      << "): a dup or a loss slipped through the crash";
  std::set<std::string> seen;
  for (FileId id : (*down_db)->FilesInFeed("FED")) {
    auto receipt = (*down_db)->GetArrival(id);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    EXPECT_TRUE(seen.insert(receipt->name).second)
        << "name ingested twice: " << receipt->name << " (seed " << seed
        << ")";
    auto it = expected.find(receipt->name);
    ASSERT_NE(it, expected.end()) << "unexpected file: " << receipt->name;
    // Payload bytes survived two TCP hops and a crash intact.
    auto staged = fs.ReadFile(receipt->staged_path);
    ASSERT_TRUE(staged.ok()) << receipt->staged_path << ": "
                             << staged.status();
    EXPECT_EQ(*staged, it->second) << receipt->name;
  }
  EXPECT_EQ(seen.size(), expected.size());

  transport.Shutdown();
  (void)std::system(("rm -rf " + root).c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationE2ETest, ::testing::Range(0, 3));

}  // namespace
}  // namespace bistro
