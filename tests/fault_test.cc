// Tests for the fault-injection framework (src/fault/) and the hardening
// it drove into the rest of the system: WAL rollback of failed appends,
// crash-consistent sync_wal recovery, exponential retry backoff with a
// cap, dead-letter parking + redrive, end-to-end payload CRC NACKs, and
// endpoint-side redelivery dedupe.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fault/faulty_transport.h"
#include "fault/faulty_vfs.h"
#include "fault/injector.h"
#include "fault/partition.h"
#include "fault/plan.h"
#include "net/socket_transport.h"
#include "kv/kvstore.h"
#include "kv/wal.h"
#include "sim/sources.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ------------------------------------------------------------ fault plan

constexpr char kFullPlan[] = R"(
fault_plan {
  seed 42;
  vfs {
    write_error 0.02; torn_write 0.01; sync_error 0.005;
    scope "/bistro/db";
  }
  net {
    send_failure 0.1; corrupt 0.03; ack_loss 0.01;
    flap "sub0" down 10m up 35m;
    degrade "sub1" 4.0;
  }
}
)";

TEST(FaultPlanTest, ParsesFullSyntax) {
  auto plan = ParseFaultPlan(kFullPlan);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->vfs.write_error_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan->vfs.torn_write_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan->vfs.sync_error_prob, 0.005);
  EXPECT_EQ(plan->vfs.scope, "/bistro/db");
  EXPECT_DOUBLE_EQ(plan->net.send_failure_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan->net.corrupt_prob, 0.03);
  EXPECT_DOUBLE_EQ(plan->net.ack_loss_prob, 0.01);
  ASSERT_EQ(plan->net.flaps.size(), 1u);
  EXPECT_EQ(plan->net.flaps[0].endpoint, "sub0");
  EXPECT_EQ(plan->net.flaps[0].down_at, 10 * kMinute);
  EXPECT_EQ(plan->net.flaps[0].up_at, 35 * kMinute);
  ASSERT_EQ(plan->net.degrades.size(), 1u);
  EXPECT_EQ(plan->net.degrades[0].endpoint, "sub1");
  EXPECT_DOUBLE_EQ(plan->net.degrades[0].factor, 4.0);
}

TEST(FaultPlanTest, FormatRoundTrips) {
  auto plan = ParseFaultPlan(kFullPlan);
  ASSERT_TRUE(plan.ok());
  std::string text = FormatFaultPlan(*plan);
  auto again = ParseFaultPlan(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  EXPECT_EQ(*again, *plan) << text;
}

TEST(FaultPlanTest, EmptyPlanIsValid) {
  auto plan = ParseFaultPlan("fault_plan { }");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(*plan, FaultPlan{});
}

TEST(FaultPlanTest, RejectsBadInput) {
  // Probability out of range.
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { vfs { write_error 1.5; } }").ok());
  // A flap that heals before it fails.
  EXPECT_FALSE(
      ParseFaultPlan(
          "fault_plan { net { flap \"s\" down 10m up 5m; } }")
          .ok());
  // Degradation below 1 would amplify the link.
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { net { degrade \"s\" 0.5; } }").ok());
  // Unknown attribute.
  EXPECT_FALSE(ParseFaultPlan("fault_plan { vfs { frobnicate 1; } }").ok());
}

constexpr char kLinkPlan[] = R"(
fault_plan {
  seed 7;
  net {
    slow_link "up" "down" 200ms at 0s;
    partition "up" "down" at 2s;
    blackhole "down" "up" at 2s;
    heal "up" "down" at 6s;
  }
}
)";

TEST(FaultPlanTest, ParsesLinkDirectives) {
  auto plan = ParseFaultPlan(kLinkPlan);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->net.link_faults.size(), 3u);
  EXPECT_EQ(plan->net.link_faults[0].kind, LinkFault::Kind::kSlowLink);
  EXPECT_EQ(plan->net.link_faults[0].from, "up");
  EXPECT_EQ(plan->net.link_faults[0].to, "down");
  EXPECT_EQ(plan->net.link_faults[0].delay, 200 * kMillisecond);
  EXPECT_EQ(plan->net.link_faults[0].at, 0);
  EXPECT_EQ(plan->net.link_faults[1].kind, LinkFault::Kind::kPartition);
  EXPECT_EQ(plan->net.link_faults[1].at, 2 * kSecond);
  EXPECT_EQ(plan->net.link_faults[2].kind, LinkFault::Kind::kBlackhole);
  EXPECT_EQ(plan->net.link_faults[2].from, "down");
  EXPECT_EQ(plan->net.link_faults[2].to, "up");
  ASSERT_EQ(plan->net.link_heals.size(), 1u);
  EXPECT_EQ(plan->net.link_heals[0].from, "up");
  EXPECT_EQ(plan->net.link_heals[0].to, "down");
  EXPECT_EQ(plan->net.link_heals[0].at, 6 * kSecond);
}

TEST(FaultPlanTest, LinkDirectivesRoundTrip) {
  auto plan = ParseFaultPlan(kLinkPlan);
  ASSERT_TRUE(plan.ok());
  std::string text = FormatFaultPlan(*plan);
  auto again = ParseFaultPlan(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  EXPECT_EQ(*again, *plan) << text;
}

// A random plan touching every field; endpoint names carry quotes and
// backslashes, probabilities and factors carry more than six digits.
FaultPlan RandomFaultPlan(Rng* rng) {
  auto name = [rng] {
    return rng->AlnumString(1 + rng->Uniform(6)) +
           (rng->Bernoulli(0.3) ? "\"q\\" : "");
  };
  auto time = [rng] {
    return static_cast<Duration>(rng->Uniform(3)) * kHour +
           static_cast<Duration>(rng->Uniform(1000)) * kMillisecond;
  };
  FaultPlan plan;
  plan.seed = rng->Next();
  plan.vfs.write_error_prob = rng->NextDouble();
  plan.vfs.torn_write_prob = rng->Bernoulli(0.5) ? rng->NextDouble() : 0.0;
  plan.vfs.sync_error_prob = rng->NextDouble() / 1000;
  if (rng->Bernoulli(0.7)) plan.vfs.scope = "/" + name();
  plan.net.send_failure_prob = rng->NextDouble();
  plan.net.corrupt_prob = rng->Bernoulli(0.5) ? rng->NextDouble() : 1.0;
  plan.net.ack_loss_prob = rng->NextDouble() / 1e6;
  for (int i = static_cast<int>(rng->Uniform(3)); i > 0; --i) {
    LinkFlap flap{name(), time(), 0};
    flap.up_at = flap.down_at + 1 + time();
    plan.net.flaps.push_back(flap);
    plan.net.degrades.push_back({name(), 1.0 + rng->NextDouble() * 9});
  }
  for (int i = static_cast<int>(rng->Uniform(4)); i > 0; --i) {
    LinkFault fault;
    fault.kind = static_cast<LinkFault::Kind>(rng->Uniform(3));
    fault.from = "a" + name();
    fault.to = "b" + name();
    if (fault.kind == LinkFault::Kind::kSlowLink) fault.delay = 1 + time();
    fault.at = time();
    plan.net.link_faults.push_back(fault);
    plan.net.link_heals.push_back({fault.from, fault.to, fault.at + time()});
  }
  return plan;
}

TEST(FaultPlanTest, RandomPlansRoundTrip) {
  FaultPlan edge;
  edge.seed = (1ull << 63) + 1;  // above INT64_MAX
  edge.vfs.scope = "a\"b";
  std::vector<FaultPlan> plans = {edge};
  Rng rng(17);
  for (int i = 0; i < 300; ++i) plans.push_back(RandomFaultPlan(&rng));
  for (const FaultPlan& plan : plans) {
    std::string text = FormatFaultPlan(plan);
    auto again = ParseFaultPlan(text);
    ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
    EXPECT_EQ(*again, plan) << text;
  }
  // Numbers may still start with a '.'.
  auto dot = ParseFaultPlan("fault_plan { vfs { write_error .25; } }");
  ASSERT_TRUE(dot.ok()) << dot.status();
  EXPECT_EQ(dot->vfs.write_error_prob, 0.25);
}

TEST(FaultPlanTest, RejectsBadLinkDirectives) {
  // A link needs two distinct endpoints.
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { net { partition \"a\" \"a\" at 1s; } }")
          .ok());
  // slow_link must actually slow something down.
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { net { slow_link \"a\" \"b\" 0s at 1s; } }")
          .ok());
  // The schedule time is mandatory.
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { net { partition \"a\" \"b\"; } }").ok());
  EXPECT_FALSE(
      ParseFaultPlan("fault_plan { net { heal \"a\" \"b\"; } }").ok());
}

// ------------------------------------------------------------- injector

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  auto plan = ParseFaultPlan(
      "fault_plan { seed 7; vfs { write_error 0.3; } "
      "net { send_failure 0.4; } }");
  ASSERT_TRUE(plan.ok());
  FaultInjector a(*plan), b(*plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.InjectWriteError("/x"), b.InjectWriteError("/x"));
    EXPECT_EQ(a.InjectSendFailure("s"), b.InjectSendFailure("s"));
  }
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0u);  // 200 draws at 0.3/0.4 must fire some
}

TEST(FaultInjectorTest, ScopeFiltersVfsDecisions) {
  auto plan = ParseFaultPlan(
      "fault_plan { vfs { write_error 1.0; torn_write 1.0; sync_error 1.0; "
      "scope \"/db\"; } }");
  ASSERT_TRUE(plan.ok());
  FaultInjector inj(*plan);
  EXPECT_FALSE(inj.InjectWriteError("/landing/file"));
  EXPECT_FALSE(inj.InjectTornWrite("/landing/file"));
  EXPECT_FALSE(inj.InjectSyncError("/landing/file"));
  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_TRUE(inj.InjectWriteError("/db/wal.log"));
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjectorTest, CountersLandInSharedRegistry) {
  MetricsRegistry registry;
  auto plan =
      ParseFaultPlan("fault_plan { net { send_failure 1.0; corrupt 1.0; } }");
  ASSERT_TRUE(plan.ok());
  FaultInjector inj(*plan, &registry);
  EXPECT_TRUE(inj.InjectSendFailure("s"));
  EXPECT_TRUE(inj.InjectCorruption("s"));
  EXPECT_EQ(registry.GetCounter("bistro_fault_net_send_failures_total", "")
                ->value(),
            1u);
  EXPECT_EQ(
      registry.GetCounter("bistro_fault_net_corruptions_total", "")->value(),
      1u);
}

TEST(FaultInjectorTest, CorruptPayloadAlwaysChangesBytes) {
  FaultPlan plan;
  plan.seed = 3;
  FaultInjector inj(plan);
  for (int i = 0; i < 32; ++i) {
    std::string payload = "payload-" + std::to_string(i);
    std::string before = payload;
    inj.CorruptPayload(&payload);
    EXPECT_NE(payload, before);
    EXPECT_EQ(payload.size(), before.size());
  }
  std::string empty;
  inj.CorruptPayload(&empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, ArmSchedulesFlapsAndAppliesDegrades) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng net_rng(1);
  SimNetwork network(&net_rng);
  network.SetLink("sub0", LinkSpec::Fast());
  network.SetLink("sub1", LinkSpec::Fast());
  auto base_cost = network.TransferDuration("sub1", 1 << 20);
  ASSERT_TRUE(base_cost.ok());

  auto plan = ParseFaultPlan(
      "fault_plan { net { flap \"sub0\" down 10s up 20s; "
      "degrade \"sub1\" 4.0; } }");
  ASSERT_TRUE(plan.ok());
  FaultInjector inj(*plan);
  inj.Arm(&loop, &network);

  // Degradation applies immediately and slows the link down.
  auto slow_cost = network.TransferDuration("sub1", 1 << 20);
  ASSERT_TRUE(slow_cost.ok());
  EXPECT_GT(*slow_cost, *base_cost);

  EXPECT_TRUE(network.IsOnline("sub0"));
  loop.RunUntil(15 * kSecond);
  EXPECT_FALSE(network.IsOnline("sub0"));
  loop.RunUntil(25 * kSecond);
  EXPECT_TRUE(network.IsOnline("sub0"));
  EXPECT_GE(inj.injected(), 1u);  // the flap counted as an injected fault
}

// ----------------------------------------------------------- faulty vfs

FaultPlan PlanFromText(const std::string& text) {
  auto plan = ParseFaultPlan(text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

TEST(FaultyVfsTest, CleanWriteErrorLeavesNothing) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { vfs { write_error 1.0; } }"));
  FaultyFileSystem fs(&base, &inj);
  EXPECT_FALSE(fs.WriteFile("/f", "hello").ok());
  EXPECT_FALSE(base.Exists("/f"));
}

TEST(FaultyVfsTest, TornWriteLandsPrefixAndReportsError) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { vfs { torn_write 1.0; } }"));
  FaultyFileSystem fs(&base, &inj);
  EXPECT_FALSE(fs.AppendFile("/f", "0123456789").ok());
  auto got = base.ReadFile("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->size(), 0u);
  EXPECT_LT(got->size(), 10u);
  EXPECT_EQ(*got, std::string("0123456789").substr(0, got->size()));
}

TEST(FaultyVfsTest, CrashDiscardsUnsyncedAppendedBytes) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { }"));  // no faults: crash only
  FaultyFileSystem fs(&base, &inj);

  // Pre-existing bytes written before injection started count as durable.
  ASSERT_TRUE(fs.WriteFile("/log", "base|").ok());
  ASSERT_TRUE(fs.AppendFile("/log", "synced|").ok());
  ASSERT_TRUE(fs.Sync("/log").ok());
  ASSERT_TRUE(fs.AppendFile("/log", "volatile").ok());
  ASSERT_TRUE(fs.SimulateCrash().ok());

  auto got = fs.ReadFile("/log");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "base|synced|");
}

TEST(FaultyVfsTest, SyncErrorKeepsBytesVolatile) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { vfs { sync_error 1.0; } }"));
  FaultyFileSystem fs(&base, &inj);
  ASSERT_TRUE(fs.AppendFile("/log", "tail").ok());
  EXPECT_FALSE(fs.Sync("/log").ok());
  ASSERT_TRUE(fs.SimulateCrash().ok());
  auto got = fs.ReadFile("/log");
  // The file was created by the append; the crash rolls it back to its
  // durable length, zero.
  if (got.ok()) {
    EXPECT_EQ(*got, "");
  }
}

// ------------------------------------------------- WAL under injection

TEST(WalFaultTest, SyncedAppendsSurviveCrashUnsyncedDoNot) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { }"));
  FaultyFileSystem fs(&base, &inj);

  {
    WriteAheadLog wal(&fs, "/wal");
    wal.set_sync_on_append(true);
    ASSERT_TRUE(wal.Append("one").ok());
    ASSERT_TRUE(wal.Append("two").ok());
    wal.set_sync_on_append(false);
    ASSERT_TRUE(wal.Append("three").ok());  // buffered only
  }
  ASSERT_TRUE(fs.SimulateCrash().ok());

  WriteAheadLog wal(&fs, "/wal");
  std::vector<std::string> records;
  ASSERT_TRUE(
      wal.Replay([&](std::string_view r) { records.emplace_back(r); }).ok());
  EXPECT_EQ(records, (std::vector<std::string>{"one", "two"}));
}

TEST(WalFaultTest, FailedSyncRollsTheRecordBack) {
  InMemoryFileSystem base;
  FaultInjector inj(
      PlanFromText("fault_plan { vfs { sync_error 1.0; scope \"/wal\"; } }"));
  FaultyFileSystem fs(&base, &inj);

  WriteAheadLog wal(&fs, "/wal");
  wal.set_sync_on_append(true);
  EXPECT_FALSE(wal.Append("uncommitted").ok());
  // The record must not linger in the file: a later successful sync (or
  // the rollback write itself, which is durable) would otherwise make a
  // record the caller saw fail reappear at recovery.
  auto raw = base.ReadFile("/wal");
  if (raw.ok()) {
    EXPECT_EQ(*raw, "");
  }
  std::vector<std::string> records;
  WriteAheadLog reopened(&base, "/wal");
  ASSERT_TRUE(
      reopened.Replay([&](std::string_view r) { records.emplace_back(r); })
          .ok());
  EXPECT_TRUE(records.empty());
}

TEST(WalFaultTest, TornAppendNeverBecomesMidLogCorruption) {
  InMemoryFileSystem base;
  // First build a committed prefix with no faults.
  {
    WriteAheadLog wal(&base, "/wal");
    ASSERT_TRUE(wal.Append("alpha").ok());
  }
  // Now a torn append: the write fails and its rollback also runs under
  // injection (worst case).
  {
    FaultInjector inj(
        PlanFromText("fault_plan { vfs { torn_write 1.0; } }"));
    FaultyFileSystem fs(&base, &inj);
    WriteAheadLog wal(&fs, "/wal");
    EXPECT_FALSE(wal.Append("beta").ok());
  }
  // A subsequent clean append must land behind the committed prefix, not
  // behind torn garbage (which replay would flag as mid-log corruption).
  {
    WriteAheadLog wal(&base, "/wal");
    ASSERT_TRUE(wal.Append("gamma").ok());
  }
  WriteAheadLog wal(&base, "/wal");
  std::vector<std::string> records;
  ASSERT_TRUE(
      wal.Replay([&](std::string_view r) { records.emplace_back(r); }).ok());
  EXPECT_EQ(records, (std::vector<std::string>{"alpha", "gamma"}));
}

TEST(WalFaultTest, CorruptionBeforeTailIsAnError) {
  InMemoryFileSystem fs;
  {
    WriteAheadLog wal(&fs, "/wal");
    ASSERT_TRUE(wal.Append("record-one").ok());
    ASSERT_TRUE(wal.Append("record-two").ok());
    ASSERT_TRUE(wal.Append("record-three").ok());
  }
  // Flip a payload byte in the middle record: not a torn tail, so replay
  // must report corruption rather than silently truncate.
  auto raw = fs.ReadFile("/wal");
  ASSERT_TRUE(raw.ok());
  std::string bytes = *raw;
  size_t frame = 4 + 1 + 10;  // crc + 1-byte varint + "record-one"
  bytes[frame + 4 + 1 + 2] ^= 0x01;
  ASSERT_TRUE(fs.WriteFile("/wal", bytes).ok());

  WriteAheadLog wal(&fs, "/wal");
  Status s = wal.Replay([](std::string_view) {});
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST(KvStoreFaultTest, AppendAfterTornTailRecoversCleanly) {
  InMemoryFileSystem fs;
  {
    auto kv = KvStore::Open(&fs, "/db");
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("a", "1").ok());
  }
  // Simulate a crash mid-append: garbage bytes at the WAL tail.
  auto raw = fs.ReadFile("/db/wal.log");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(fs.WriteFile("/db/wal.log", *raw + "\x7F\x01torn").ok());
  {
    auto kv = KvStore::Open(&fs, "/db");
    ASSERT_TRUE(kv.ok());
    EXPECT_TRUE((*kv)->recovered_torn_tail());
    // Regression: this append used to land *behind* the torn bytes, which
    // the next recovery then reported as mid-log corruption.
    ASSERT_TRUE((*kv)->Put("b", "2").ok());
  }
  auto kv = KvStore::Open(&fs, "/db");
  ASSERT_TRUE(kv.ok()) << kv.status();
  EXPECT_EQ(*(*kv)->Get("a"), "1");
  EXPECT_EQ(*(*kv)->Get("b"), "2");
}

TEST(KvStoreFaultTest, SyncWalSurvivesCrash) {
  InMemoryFileSystem base;
  FaultInjector inj(PlanFromText("fault_plan { }"));
  FaultyFileSystem fs(&base, &inj);
  {
    KvStore::Options options;
    options.sync_wal = true;
    auto kv = KvStore::Open(&fs, "/db", options);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("durable", "yes").ok());
  }
  ASSERT_TRUE(fs.SimulateCrash().ok());
  auto kv = KvStore::Open(&base, "/db");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(*(*kv)->Get("durable"), "yes");
}

// ----------------------------------------------- endpoint CRC + dedupe

Message FileDataMessage(FileId id, const std::string& payload) {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = id;
  msg.feed = "F";
  msg.name = "f.dat";
  msg.dest_path = "F/f.dat";
  msg.payload = payload;
  msg.payload_crc = Crc32(payload);
  return msg;
}

TEST(FileSinkEndpointTest, RejectsPayloadCrcMismatch) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/r");
  Message msg = FileDataMessage(1, "payload");
  msg.payload.mutable_str()[0] ^= 0x5A;  // corrupt after the CRC was computed
  Status s = sink.HandleMessage(msg);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_EQ(sink.corrupt_rejected(), 1u);
  EXPECT_EQ(sink.files_received(), 0u);
  EXPECT_FALSE(fs.Exists("/r/F/f.dat"));
}

TEST(FileSinkEndpointTest, DedupesRedeliveryByFileId) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/r");
  Message msg = FileDataMessage(7, "payload");
  ASSERT_TRUE(sink.HandleMessage(msg).ok());
  ASSERT_TRUE(sink.HandleMessage(msg).ok());  // lost-ack redelivery: acked
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(*fs.ReadFile("/r/F/f.dat"), "payload");
}

// ------------------------------------------------- faulty transport

struct TransportRig {
  SimClock clock{0};
  EventLoop loop{&clock};
  LoopbackTransport base{&loop};
  InMemoryFileSystem sink_fs;
  FileSinkEndpoint sink{&sink_fs, "/r"};

  TransportRig() { base.Register("s", &sink); }
};

TEST(FaultyTransportTest, SendFailureNeverReachesTheWire) {
  TransportRig rig;
  FaultInjector inj(
      PlanFromText("fault_plan { net { send_failure 1.0; } }"));
  FaultyTransport transport(&rig.base, &rig.loop, &inj);
  Status result = Status::OK();
  transport.Send("s", FileDataMessage(1, "x"),
                 [&](const Status& s) { result = s; });
  rig.loop.RunUntil(kSecond);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(rig.sink.files_received(), 0u);
}

TEST(FaultyTransportTest, CorruptionIsCaughtByPayloadCrcOnly) {
  TransportRig rig;
  FaultInjector inj(PlanFromText("fault_plan { net { corrupt 1.0; } }"));
  FaultyTransport transport(&rig.base, &rig.loop, &inj);
  Status result = Status::OK();
  transport.Send("s", FileDataMessage(1, "payload"),
                 [&](const Status& s) { result = s; });
  rig.loop.RunUntil(kSecond);
  // The frame CRC is recomputed on encode, so the wire frame is valid and
  // only the endpoint's end-to-end check can NACK it.
  EXPECT_TRUE(result.IsCorruption()) << result;
  EXPECT_EQ(rig.sink.corrupt_rejected(), 1u);
  EXPECT_EQ(rig.sink.files_received(), 0u);
}

TEST(FaultyTransportTest, AckLossDeliversButReportsFailure) {
  TransportRig rig;
  FaultInjector inj(PlanFromText("fault_plan { net { ack_loss 1.0; } }"));
  FaultyTransport transport(&rig.base, &rig.loop, &inj);
  Status result = Status::OK();
  transport.Send("s", FileDataMessage(1, "payload"),
                 [&](const Status& s) { result = s; });
  rig.loop.RunUntil(kSecond);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(rig.sink.files_received(), 1u);  // it DID land
  // A retry of the same file is absorbed by the dedupe set.
  transport.Send("s", FileDataMessage(1, "payload"), [](const Status&) {});
  rig.loop.RunUntil(2 * kSecond);
  EXPECT_EQ(rig.sink.files_received(), 1u);
  EXPECT_EQ(rig.sink.duplicates(), 1u);
}

// --------------------------------------------- engine: backoff schedule

struct EngineRig {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  LoopbackTransport transport{&loop};
  RecordingInvoker invoker;
  Logger logger{&clock};
  std::unique_ptr<BistroServer> server;

  /// `delivery` is the config's `delivery { }` block.
  explicit EngineRig(const DeliveryTuningSpec& delivery) {
    logger.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
)");
    EXPECT_TRUE(config.ok()) << config.status();
    config->delivery = delivery;
    auto s = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                  &transport, &loop, &invoker, &logger);
    EXPECT_TRUE(s.ok()) << s.status();
    server = std::move(*s);
  }
};

TEST(BackoffTest, ExponentialScheduleGrowsToCapWithoutJitter) {
  DeliveryTuningSpec tune;
  tune.retry_backoff_min = kSecond;
  tune.retry_backoff_max = 10 * kSecond;
  tune.retry_multiplier = 3.0;
  tune.retry_jitter = false;
  tune.max_attempts = 5;
  tune.offline_after = 100;
  EngineRig rig(tune);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);

  TimePoint t0 = rig.clock.Now();
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());

  // Attempts at t0, +1s, +4s (1+3), +13s (+9), +23s (+10, capped).
  rig.loop.RunUntil(t0 + kSecond / 2);
  EXPECT_EQ(rig.server->delivery_stats().send_failures, 1u);
  rig.loop.RunUntil(t0 + 2 * kSecond);
  EXPECT_EQ(rig.server->delivery_stats().send_failures, 2u);
  rig.loop.RunUntil(t0 + 5 * kSecond);
  EXPECT_EQ(rig.server->delivery_stats().send_failures, 3u);
  rig.loop.RunUntil(t0 + 14 * kSecond);
  EXPECT_EQ(rig.server->delivery_stats().send_failures, 4u);
  rig.loop.RunUntil(t0 + 30 * kSecond);
  const DeliveryStats d = rig.server->delivery_stats();
  EXPECT_EQ(d.send_failures, 5u);
  EXPECT_EQ(d.retries, 4u);
  EXPECT_EQ(d.dead_lettered, 1u);
}

TEST(BackoffTest, JitteredRetriesStayWithinEnvelope) {
  DeliveryTuningSpec tune;
  tune.retry_backoff_min = kSecond;
  tune.retry_backoff_max = 8 * kSecond;
  tune.retry_multiplier = 2.0;
  tune.retry_jitter = true;
  tune.max_attempts = 6;
  tune.offline_after = 100;
  EngineRig rig(tune);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);

  TimePoint t0 = rig.clock.Now();
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  // Worst case: first retry at +1s, then 5 sleeps of at most the 8s cap.
  rig.loop.RunUntil(t0 + kMinute);
  const DeliveryStats d = rig.server->delivery_stats();
  EXPECT_EQ(d.send_failures, 6u);
  EXPECT_EQ(d.dead_lettered, 1u);
}

TEST(DeadLetterTest, RedriveResubmitsWithFreshBudget) {
  DeliveryTuningSpec tune;
  tune.retry_backoff_min = kSecond;
  tune.retry_jitter = false;
  tune.max_attempts = 2;
  tune.offline_after = 100;
  EngineRig rig(tune);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  ASSERT_EQ(rig.server->delivery()->dead_letters().size(), 1u);
  EXPECT_EQ(rig.server->delivery_stats().dead_lettered, 1u);
  EXPECT_EQ(sink.files_received(), 0u);

  // Operator fixes the subscriber and redrives.
  sink.SetFailing(false);
  rig.server->delivery()->RedriveDeadLetters();
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  EXPECT_TRUE(rig.server->delivery()->dead_letters().empty());
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_TRUE(rig.server->receipts()->Delivered("s", 1));
}

// --------------------------------------- Torn delivery-receipt groups

TEST(ReceiptFaultTest, TornDeliveryGroupVanishesWholeAndRecomputesQueue) {
  InMemoryFileSystem base;
  KvStore::Options kv_opts;
  kv_opts.sync_wal = true;
  // Durable history, no injection: three arrivals, file 1 delivered.
  {
    auto db = ReceiptDatabase::Open(&base, "/db", kv_opts);
    ASSERT_TRUE(db.ok());
    std::vector<ArrivalReceipt> group;
    for (int i = 1; i <= 3; ++i) {
      ArrivalReceipt r;
      r.name = StrFormat("f%d.csv", i);
      r.staged_path = "/staging/F/" + r.name;
      r.rel_path = "F/" + r.name;
      r.size = 3;
      r.arrival_time = 10 + i;
      r.feeds = {"F"};
      group.push_back(std::move(r));
    }
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
    ASSERT_TRUE((*db)->RecordDelivery("s", 1, 20).ok());
  }
  // A delivery group commit tears mid-append, then the machine dies.
  {
    FaultInjector inj(PlanFromText(
        "fault_plan { vfs { torn_write 1.0; scope \"/db\"; } }"));
    FaultyFileSystem fs(&base, &inj);
    auto db = ReceiptDatabase::Open(&fs, "/db", kv_opts);
    ASSERT_TRUE(db.ok());
    std::vector<ReceiptDatabase::DeliveryRecord> deliveries = {{"s", 2, 30},
                                                               {"s", 3, 31}};
    EXPECT_FALSE((*db)->RecordDeliveryGroup(deliveries).ok());
    // The failed group must not be visible even before the crash: the
    // in-memory table only applies after the WAL append succeeds.
    EXPECT_FALSE((*db)->Delivered("s", 2));
    ASSERT_TRUE(fs.SimulateCrash().ok());
  }
  // Recovery: the committed history is intact, the torn group is wholly
  // absent (no mid-log corruption), and queue recomputation re-offers
  // exactly the receipts the group lost — the redelivery that the
  // subscriber-side FileId dedupe then absorbs.
  auto db = ReceiptDatabase::Open(&base, "/db", kv_opts);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->ArrivalCount(), 3u);
  EXPECT_TRUE((*db)->Delivered("s", 1));
  EXPECT_FALSE((*db)->Delivered("s", 2));
  EXPECT_FALSE((*db)->Delivered("s", 3));
  auto queue = (*db)->ComputeDeliveryQueue("s", {"F"});
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].file_id, 2u);
  EXPECT_EQ(queue[1].file_id, 3u);
  // The database still accepts group commits after recovery.
  ASSERT_TRUE(
      (*db)->RecordDeliveryGroup({{"s", 2, 40}, {"s", 3, 41}}).ok());
  EXPECT_TRUE((*db)->ComputeDeliveryQueue("s", {"F"}).empty());
}

// A transport that corrupts the first kFileData payload, then behaves:
// proves the full NACK -> retry -> success path through the engine.
class CorruptOnceTransport : public Transport {
 public:
  explicit CorruptOnceTransport(Transport* base) : base_(base) {}

  void Send(const std::string& endpoint, const Message& msg,
            SendCallback done) override {
    if (!corrupted_ && msg.type == MessageType::kFileData &&
        !msg.payload.empty()) {
      corrupted_ = true;
      Message mangled = msg;
      mangled.payload.mutable_str()[0] =
          static_cast<char>(mangled.payload[0] ^ 0x5A);
      base_->Send(endpoint, mangled, std::move(done));
      return;
    }
    base_->Send(endpoint, msg, std::move(done));
  }
  Duration EstimateCost(const std::string& endpoint,
                        uint64_t bytes) const override {
    return base_->EstimateCost(endpoint, bytes);
  }

 private:
  Transport* base_;
  bool corrupted_ = false;
};

TEST(EndToEndCrcTest, CorruptDeliveryNacksAndRetrySucceeds) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  LoopbackTransport base(&loop);
  CorruptOnceTransport transport(&base);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
)");
  ASSERT_TRUE(config.ok());
  config->delivery.retry_backoff_min = kSecond;
  config->delivery.retry_jitter = false;
  config->delivery.offline_after = 100;
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok());
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  base.Register("s", &sink);

  ASSERT_TRUE(
      (*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "bytes").ok());
  loop.RunUntil(clock.Now() + kMinute);

  EXPECT_EQ(sink.corrupt_rejected(), 1u);     // first attempt NACKed
  EXPECT_EQ(sink.files_received(), 1u);       // retry landed the real bytes
  EXPECT_EQ(*sub_fs.ReadFile("/r/CPU/CPU_POLL1_201009250400.txt"), "bytes");
  const DeliveryStats d = (*server)->delivery_stats();
  EXPECT_EQ(d.send_failures, 1u);
  EXPECT_EQ(d.retries, 1u);
  EXPECT_EQ(d.files_delivered, 1u);
}

TEST(ConfigWiringTest, DeliveryBlockTunesTheEngine) {
  // The config file's delivery block must override the compiled defaults:
  // max_attempts 2 + failing sink => dead letter after exactly 2 sends.
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  LoopbackTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
delivery {
  retry_backoff_min 1s; retry_jitter off; max_attempts 2; offline_after 100;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  transport.Register("s", &sink);
  ASSERT_TRUE(
      (*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  loop.RunUntil(clock.Now() + kMinute);
  const DeliveryStats d = (*server)->delivery_stats();
  EXPECT_EQ(d.send_failures, 2u);
  EXPECT_EQ(d.dead_lettered, 1u);
}

TEST(ConfigWiringTest, DeliveryFastPathKeysTuneTheEngine) {
  // window / coalesce_bytes / cache_bytes / receipt_group from the config
  // file must reach the engine: with all of them set, a 3-file backfill
  // round coalesces into one frame, receipts ride one group commit, and
  // the zero cache budget forces a fresh staging read per dispatch.
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  LoopbackTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
delivery {
  window 8; coalesce_bytes 4096; cache_bytes 0;
  receipt_group 16; receipt_flush_interval 50ms;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  transport.Register("s", &sink);
  (*server)->delivery()->SetOffline("s", true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*server)
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  loop.RunUntil(clock.Now() + kSecond);
  (*server)->delivery()->SetOffline("s", false);
  loop.RunUntil(clock.Now() + kMinute);
  const DeliveryStats d = (*server)->delivery_stats();
  EXPECT_EQ(d.files_delivered, 3u);
  EXPECT_EQ(d.coalesced_frames, 1u);
  EXPECT_EQ(d.coalesced_files, 3u);
  EXPECT_EQ(d.receipt_group_flushes, 1u);
  EXPECT_EQ(d.staging_cache_hits, 0u);  // cache_bytes 0: no retention
  EXPECT_EQ(d.staging_reads, 3u);
  EXPECT_EQ(sink.files_received(), 3u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

// ------------------------------------------------ source-side metrics

TEST(SourceMetricsTest, FleetCountersExportThroughRegistry) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(11);
  MetricsRegistry registry;
  PollerFleet::Options options;
  options.num_pollers = 4;
  options.period = kMinute;
  options.dropout_prob = 0.4;
  options.late_prob = 0.3;
  options.max_delay = kSecond;
  uint64_t deposits = 0;
  PollerFleet fleet(
      &loop, &rng, options,
      [&](const std::string&, const std::string&, std::string) {
        ++deposits;
      });
  fleet.AttachMetrics(&registry);
  fleet.ScheduleInterval(0, 30 * kMinute);
  loop.RunUntil(kHour);

  EXPECT_EQ(
      registry.GetCounter("bistro_source_files_generated_total", "")->value(),
      fleet.files_generated());
  EXPECT_EQ(
      registry.GetCounter("bistro_source_files_dropped_total", "")->value(),
      fleet.files_dropped());
  EXPECT_EQ(registry.GetCounter("bistro_source_files_late_total", "")->value(),
            fleet.files_late());
  EXPECT_EQ(registry.GetGauge("bistro_source_pollers", "")->value(),
            fleet.current_pollers());
  EXPECT_GT(fleet.files_dropped(), 0u);  // 0.4 dropout over 120 slots
  EXPECT_EQ(deposits, fleet.files_generated());
}

// ------------------------------------------- partition chaos harness

// Endpoint recording inbound messages (server side of a shimmed link).
class SinkEndpoint : public Endpoint {
 public:
  Status HandleMessage(const Message& msg) override {
    messages.push_back(msg);
    return Status::OK();
  }
  std::vector<Message> messages;
};

// Runs the real-clock loop in slices until `pred` holds (or 10s).
void PumpRealUntil(EventLoop* loop, const std::function<bool()>& pred) {
  TimePoint deadline = RealClock::Get()->Now() + 10 * kSecond;
  while (!pred() && RealClock::Get()->Now() < deadline) {
    loop->RunFor(10 * kMillisecond);
  }
}

// One upstream transport wired to one downstream through a shim; the test
// fixture for every harness behavior below.
struct ShimmedPair {
  explicit ShimmedPair(EventLoop* loop)
      : server_opts(MakeServerOpts()),
        server(loop, server_opts),
        client_opts(MakeClientOpts()),
        client(loop, client_opts),
        harness(loop, &client, "up") {
    server.SetInboundEndpoint(&inbound);
    EXPECT_TRUE(server.Listen().ok());
    EXPECT_TRUE(harness
                    .AddPeer("down", "127.0.0.1:" +
                                         std::to_string(server.listen_port()))
                    .ok());
  }

  static SocketTransport::Options MakeServerOpts() {
    SocketTransport::Options o;
    o.listen_address = "127.0.0.1:0";
    return o;
  }
  static SocketTransport::Options MakeClientOpts() {
    SocketTransport::Options o;
    o.reconnect_backoff_min = 10 * kMillisecond;
    o.reconnect_backoff_max = 30 * kMillisecond;
    o.ack_timeout = 300 * kMillisecond;
    return o;
  }

  // Sends one small file and returns its final status.
  Status SendOne(EventLoop* loop, const std::string& name) {
    Message msg;
    msg.type = MessageType::kFileData;
    msg.name = name;
    msg.payload = "payload";
    Status result = Status::TimedOut("no callback");
    bool done = false;
    harness.Send("down", msg, [&](const Status& s) {
      result = s;
      done = true;
    });
    PumpRealUntil(loop, [&] { return done; });
    return result;
  }

  SocketTransport::Options server_opts;
  SocketTransport server;
  SinkEndpoint inbound;
  SocketTransport::Options client_opts;
  SocketTransport client;
  PartitionableTransport harness;
};

TEST(PartitionableTransportTest, RelaysTransparently) {
  EventLoop loop(RealClock::Get());
  ShimmedPair pair(&loop);
  // The inner transport talks to the shim, not the real address.
  EXPECT_NE(pair.harness.ShimAddress("down"), "");
  EXPECT_NE(pair.harness.ShimAddress("down"),
            "127.0.0.1:" + std::to_string(pair.server.listen_port()));
  Status s = pair.SendOne(&loop, "clean.dat");
  EXPECT_TRUE(s.ok()) << s;
  ASSERT_EQ(pair.inbound.messages.size(), 1u);
  EXPECT_EQ(pair.inbound.messages[0].name, "clean.dat");
  EXPECT_GE(pair.harness.relay_count(), 1u);
}

TEST(PartitionableTransportTest, PartitionSeversAndHealRestores) {
  EventLoop loop(RealClock::Get());
  ShimmedPair pair(&loop);
  ASSERT_TRUE(pair.SendOne(&loop, "before.dat").ok());

  pair.harness.Partition("down");
  Status severed = pair.SendOne(&loop, "during.dat");
  EXPECT_TRUE(severed.IsUnavailable()) << severed;
  EXPECT_EQ(pair.inbound.messages.size(), 1u);  // never crossed the wire
  // Reconnect attempts during the partition are accepted-then-closed.
  PumpRealUntil(&loop, [&] { return pair.harness.severed_rejects() > 0; });
  EXPECT_GT(pair.harness.severed_rejects(), 0u);

  pair.harness.Heal("down");
  Status healed = pair.SendOne(&loop, "after.dat");
  EXPECT_TRUE(healed.ok()) << healed;
  EXPECT_EQ(pair.inbound.messages.back().name, "after.dat");
}

TEST(PartitionableTransportTest, BlackholeLosesAcksNotDelivery) {
  EventLoop loop(RealClock::Get());
  ShimmedPair pair(&loop);
  ASSERT_TRUE(pair.SendOne(&loop, "before.dat").ok());

  // Drop peer->self bytes: the file still arrives, its ack never returns
  // — the duplicate-generating half-open case.
  pair.harness.Blackhole("down", /*to_peer=*/false);
  Status lost = pair.SendOne(&loop, "unacked.dat");
  EXPECT_TRUE(lost.IsUnavailable()) << lost;
  EXPECT_EQ(pair.inbound.messages.back().name, "unacked.dat");
  EXPECT_GT(pair.harness.dropped_bytes(), 0u);
  EXPECT_GE(pair.client.ack_timeouts(), 1u);

  pair.harness.Heal("down");
  EXPECT_TRUE(pair.SendOne(&loop, "after.dat").ok());
}

TEST(PartitionableTransportTest, SlowLinkDelaysTraffic) {
  EventLoop loop(RealClock::Get());
  ShimmedPair pair(&loop);
  ASSERT_TRUE(pair.SendOne(&loop, "warm.dat").ok());

  pair.harness.SlowLink("down", 100 * kMillisecond);
  TimePoint start = RealClock::Get()->Now();
  Status slow = pair.SendOne(&loop, "slow.dat");
  Duration elapsed = RealClock::Get()->Now() - start;
  EXPECT_TRUE(slow.ok()) << slow;
  EXPECT_GE(elapsed, 100 * kMillisecond);  // at least one delayed leg
  EXPECT_GT(pair.harness.delayed_chunks(), 0u);
}

TEST(PartitionableTransportTest, ArmSchedulesDirectivesFromPlan) {
  EventLoop loop(RealClock::Get());
  ShimmedPair pair(&loop);
  ASSERT_TRUE(pair.SendOne(&loop, "before.dat").ok());

  auto plan = ParseFaultPlan(R"(
fault_plan {
  net {
    partition "up" "down" at 50ms;
    heal "up" "down" at 700ms;
  }
}
)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  pair.harness.Arm(*plan);

  // Let the partition engage, then verify the link is dead.
  TimePoint until = RealClock::Get()->Now() + 150 * kMillisecond;
  while (RealClock::Get()->Now() < until) loop.RunFor(10 * kMillisecond);
  Status severed = pair.SendOne(&loop, "during.dat");
  EXPECT_TRUE(severed.IsUnavailable()) << severed;

  // After the scheduled heal the link carries traffic again.
  until = RealClock::Get()->Now() + 700 * kMillisecond;
  while (RealClock::Get()->Now() < until) loop.RunFor(10 * kMillisecond);
  Status healed = pair.SendOne(&loop, "after.dat");
  EXPECT_TRUE(healed.ok()) << healed;
  EXPECT_EQ(pair.inbound.messages.back().name, "after.dat");
}

}  // namespace
}  // namespace bistro
