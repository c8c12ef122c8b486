// Tests for the staged ingest pipeline: the group-commit KV layer
// (AppendBatch / ApplyMulti / RecordArrivalGroup), both pipeline modes
// (synchronous inline and threaded), per-feed ordering, the overload
// policies, and the crash-consistency contract with the landing-zone
// scan and the startup backfill.

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "ingest/pipeline.h"
#include "kv/kvstore.h"
#include "kv/receipts.h"
#include "kv/wal.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ------------------------------------------------------ WAL group append

TEST(WalBatchTest, AppendBatchReplaysEveryRecord) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"one", "two", "three"}).ok());
  ASSERT_TRUE(wal.Append("four").ok());
  std::vector<std::string> seen;
  bool torn = false;
  ASSERT_TRUE(
      wal.Replay([&](std::string_view r) { seen.emplace_back(r); }, &torn)
          .ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two", "three", "four"}));
}

TEST(WalBatchTest, TornGroupRecoversCleanPrefix) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"alpha", "beta", "gamma"}).ok());
  // Crash mid-group-write: the file keeps a byte prefix that tears the
  // last record. Replay must keep the intact records and flag the tail.
  std::string data = *fs.ReadFile("/db/wal.log");
  ASSERT_TRUE(
      fs.WriteFile("/db/wal.log",
                   std::string_view(data).substr(0, data.size() - 3))
          .ok());
  std::vector<std::string> seen;
  bool torn = false;
  ASSERT_TRUE(
      wal.Replay([&](std::string_view r) { seen.emplace_back(r); }, &torn)
          .ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(WalBatchTest, EmptyBatchIsNoOp) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({}).ok());
  EXPECT_EQ(wal.SizeBytes(), 0u);
}

// --------------------------------------------------- KvStore ApplyMulti

TEST(KvMultiTest, ApplyMultiAppliesAndSurvivesReopen) {
  InMemoryFileSystem fs;
  {
    auto kv = KvStore::Open(&fs, "/db");
    ASSERT_TRUE(kv.ok());
    std::vector<std::vector<KvStore::Write>> batches;
    batches.push_back({KvStore::Write::Put("a", "1")});
    batches.push_back(
        {KvStore::Write::Put("b", "2"), KvStore::Write::Put("c", "3")});
    batches.push_back({KvStore::Write::Del("a")});
    ASSERT_TRUE((*kv)->ApplyMulti(batches).ok());
    EXPECT_FALSE((*kv)->Contains("a"));
    EXPECT_EQ(*(*kv)->Get("b"), "2");
  }
  auto kv = KvStore::Open(&fs, "/db");
  ASSERT_TRUE(kv.ok());
  EXPECT_FALSE((*kv)->Contains("a"));
  EXPECT_EQ(*(*kv)->Get("b"), "2");
  EXPECT_EQ(*(*kv)->Get("c"), "3");
}

// --------------------------------------------- Receipt group commit

ArrivalReceipt SampleReceipt(const std::string& name, const FeedName& feed,
                             TimePoint at) {
  ArrivalReceipt r;
  r.name = name;
  r.staged_path = "/bistro/staging/" + feed + "/" + name;
  r.rel_path = feed + "/" + name;
  r.size = 3;
  r.arrival_time = at;
  r.feeds = {feed};
  return r;
}

TEST(ReceiptGroupTest, GroupCommitAssignsAscendingIdsAndIndexes) {
  InMemoryFileSystem fs;
  {
    auto db = ReceiptDatabase::Open(&fs, "/db");
    ASSERT_TRUE(db.ok());
    std::vector<ArrivalReceipt> group = {SampleReceipt("f1.csv", "F", 10),
                                         SampleReceipt("f2.csv", "F", 11),
                                         SampleReceipt("f3.csv", "G", 12)};
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
    EXPECT_EQ(group[0].file_id, 1u);
    EXPECT_EQ(group[1].file_id, 2u);
    EXPECT_EQ(group[2].file_id, 3u);
    EXPECT_EQ((*db)->FilesInFeed("F"),
              (std::vector<FileId>{1, 2}));
    EXPECT_EQ(*(*db)->FindIdByName("f2.csv"), 2u);
  }
  // The group (and the sequence bump) is durable across reopen: the next
  // id continues after the group, never reusing a committed id.
  auto db = ReceiptDatabase::Open(&fs, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ArrivalCount(), 3u);
  EXPECT_EQ(*(*db)->NextFileId(), 4u);
  auto arrival = (*db)->GetArrival(3);
  ASSERT_TRUE(arrival.ok());
  EXPECT_EQ(arrival->name, "f3.csv");
  EXPECT_EQ(arrival->feeds, (std::vector<FeedName>{"G"}));
}

TEST(ReceiptGroupTest, DeliveryGroupCommitIsDurableAndCounted) {
  InMemoryFileSystem fs;
  MetricsRegistry registry;
  {
    auto db = ReceiptDatabase::Open(&fs, "/db");
    ASSERT_TRUE(db.ok());
    (*db)->AttachMetrics(&registry);
    std::vector<ArrivalReceipt> group = {SampleReceipt("f1.csv", "F", 10),
                                         SampleReceipt("f2.csv", "F", 11),
                                         SampleReceipt("f3.csv", "F", 12)};
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
    std::vector<ReceiptDatabase::DeliveryRecord> deliveries = {
        {"s", 1, 20}, {"s", 2, 21}, {"t", 1, 22}};
    ASSERT_TRUE((*db)->RecordDeliveryGroup(deliveries).ok());
    EXPECT_TRUE((*db)->Delivered("s", 1));
    EXPECT_TRUE((*db)->Delivered("s", 2));
    EXPECT_TRUE((*db)->Delivered("t", 1));
    EXPECT_FALSE((*db)->Delivered("t", 2));
    EXPECT_EQ(registry
                  .GetCounter("bistro_receipts_delivery_group_commits_total",
                              "")
                  ->value(),
              1u);
    EXPECT_EQ(
        registry.GetCounter("bistro_receipts_delivery_group_files_total", "")
            ->value(),
        3u);
  }
  // The whole group survives reopen and drops out of the recomputed
  // delivery queues.
  auto db = ReceiptDatabase::Open(&fs, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Delivered("s", 1));
  EXPECT_TRUE((*db)->Delivered("t", 1));
  auto queue_s = (*db)->ComputeDeliveryQueue("s", {"F"});
  ASSERT_EQ(queue_s.size(), 1u);
  EXPECT_EQ(queue_s[0].file_id, 3u);
  EXPECT_EQ((*db)->ComputeDeliveryQueue("t", {"F"}).size(), 2u);
}

TEST(ReceiptGroupTest, EmptyDeliveryGroupIsANoOp) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->RecordDeliveryGroup({}).ok());
}

TEST(ReceiptGroupTest, FindIdByNameTracksLatestArrival) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/db");
  ASSERT_TRUE(db.ok());
  std::vector<ArrivalReceipt> first = {SampleReceipt("same.csv", "F", 10)};
  ASSERT_TRUE((*db)->RecordArrivalGroup(&first).ok());
  std::vector<ArrivalReceipt> second = {SampleReceipt("same.csv", "F", 20)};
  ASSERT_TRUE((*db)->RecordArrivalGroup(&second).ok());
  EXPECT_EQ(*(*db)->FindIdByName("same.csv"), second[0].file_id);
  EXPECT_TRUE((*db)->FindIdByName("never.csv").status().IsNotFound());
}

// ------------------------------------------------- Pipeline (standalone)

constexpr char kTwoFeedConfig[] = R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
feed MEM { pattern "MEM_POLL%i_%Y%m%d%H%M.txt"; }
)";

struct PipelineRig {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  Logger logger{&clock};
  std::unique_ptr<FeedRegistry> registry;
  std::unique_ptr<FeedClassifier> classifier;
  std::unique_ptr<ReceiptDatabase> receipts;
  std::unique_ptr<IngestPipeline> pipeline;
  std::vector<std::string> committed;
  std::vector<Status> errors;

  explicit PipelineRig(IngestPipeline::Options opts) {
    logger.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(kTwoFeedConfig);
    EXPECT_TRUE(config.ok()) << config.status();
    auto reg = FeedRegistry::Create(*config);
    EXPECT_TRUE(reg.ok()) << reg.status();
    registry = std::move(*reg);
    classifier = std::make_unique<FeedClassifier>(registry.get());
    auto db = ReceiptDatabase::Open(&fs, "/bistro/db");
    EXPECT_TRUE(db.ok()) << db.status();
    receipts = std::move(*db);
    pipeline = std::make_unique<IngestPipeline>(
        opts, &fs, classifier.get(), registry.get(), receipts.get(), &loop,
        &logger, nullptr);
    pipeline->SetCallbacks(
        nullptr, nullptr,
        [this](const IngestPipeline::Committed& c) {
          committed.push_back(c.staged.name);
        },
        [this](const IncomingFile&, const Status& s) { errors.push_back(s); });
  }

  /// Writes `name` into the landing zone and returns its IncomingFile.
  IncomingFile Land(const std::string& name, const std::string& content = "x") {
    IncomingFile f;
    f.name = name;
    f.landing_path = "/bistro/landing/p/" + name;
    f.size = content.size();
    f.arrival_time = clock.Now();
    f.source = "p";
    EXPECT_TRUE(fs.WriteFile(f.landing_path, content).ok());
    return f;
  }
};

TEST(IngestPipelineTest, SyncModeCommitsInline) {
  PipelineRig rig(IngestPipeline::Options{});
  IncomingFile f = rig.Land("CPU_POLL1_201009250400.txt");
  ASSERT_TRUE(rig.pipeline->Submit(f).ok());
  // Sync mode: committed inline, before any loop turn.
  ASSERT_EQ(rig.committed.size(), 1u);
  EXPECT_EQ(rig.committed[0], "CPU_POLL1_201009250400.txt");
  EXPECT_FALSE(rig.fs.Exists(f.landing_path));  // landing consumed
  auto arrival = rig.receipts->GetArrival(1);
  ASSERT_TRUE(arrival.ok());
  EXPECT_TRUE(rig.fs.Exists(arrival->staged_path));
  IngestStats s = rig.pipeline->stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(IngestPipelineTest, UnmatchedFileLeavesLandingUntouched) {
  IngestPipeline::Options opts;
  opts.workers = 2;
  PipelineRig rig(opts);
  rig.pipeline->Start();
  IncomingFile junk = rig.Land("core.12345");
  ASSERT_TRUE(rig.pipeline->Submit(junk).ok());
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_TRUE(rig.committed.empty());
  EXPECT_TRUE(rig.fs.Exists(junk.landing_path));
  EXPECT_EQ(rig.pipeline->stats().unmatched, 1u);
  rig.pipeline->Shutdown();
}

TEST(IngestPipelineTest, ThreadedCommitsAllAndPreservesPerFeedOrder) {
  IngestPipeline::Options opts;
  opts.workers = 3;
  opts.batch = 4;
  PipelineRig rig(opts);
  rig.pipeline->Start();
  std::vector<std::string> cpu_names, mem_names;
  for (int m = 0; m < 15; ++m) {
    cpu_names.push_back(StrFormat("CPU_POLL1_2010092504%02d.txt", m));
    mem_names.push_back(StrFormat("MEM_POLL1_2010092504%02d.txt", m));
    ASSERT_TRUE(rig.pipeline->Submit(rig.Land(cpu_names.back())).ok());
    ASSERT_TRUE(rig.pipeline->Submit(rig.Land(mem_names.back())).ok());
  }
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();  // deliver posted completion callbacks
  EXPECT_EQ(rig.committed.size(), 30u);
  EXPECT_TRUE(rig.errors.empty());
  EXPECT_EQ(rig.receipts->ArrivalCount(), 30u);
  // Feed sharding keeps one feed's files FIFO through one worker: walking
  // each feed's receipts in FileId order must reproduce submission order.
  for (const auto& [feed, names] :
       {std::make_pair(FeedName("CPU"), cpu_names),
        std::make_pair(FeedName("MEM"), mem_names)}) {
    std::vector<FileId> ids = rig.receipts->FilesInFeed(feed);
    ASSERT_EQ(ids.size(), names.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(rig.receipts->GetArrival(ids[i])->name, names[i])
          << feed << " position " << i;
    }
  }
  // Every landing file was consumed after its group committed.
  for (const auto& name : cpu_names) {
    EXPECT_FALSE(rig.fs.Exists("/bistro/landing/p/" + name));
  }
  IngestStats s = rig.pipeline->stats();
  EXPECT_EQ(s.admitted, 30u);
  EXPECT_EQ(s.committed, 30u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  rig.pipeline->Shutdown();
}

TEST(IngestPipelineTest, ShedOldestEvictsOldestAndLeavesLandingForRescan) {
  IngestPipeline::Options opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.overload_policy = OverloadPolicy::kShedOldest;
  PipelineRig rig(opts);
  // Workers not started yet: queue growth is deterministic.
  IncomingFile f1 = rig.Land("CPU_POLL1_201009250400.txt");
  IncomingFile f2 = rig.Land("CPU_POLL1_201009250401.txt");
  IncomingFile f3 = rig.Land("CPU_POLL1_201009250402.txt");
  ASSERT_TRUE(rig.pipeline->Submit(f1).ok());
  ASSERT_TRUE(rig.pipeline->Submit(f2).ok());  // sheds f1
  ASSERT_TRUE(rig.pipeline->Submit(f3).ok());  // sheds f2
  IngestStats s = rig.pipeline->stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.queue_depth, 1u);
  EXPECT_FALSE(rig.pipeline->InFlight(f1.landing_path));
  EXPECT_TRUE(rig.pipeline->InFlight(f3.landing_path));
  // Shed files keep their landing copies (a rescan re-admits them); the
  // survivor commits once the workers run.
  rig.pipeline->Start();
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_EQ(rig.committed, (std::vector<std::string>{f3.name}));
  EXPECT_TRUE(rig.fs.Exists(f1.landing_path));
  EXPECT_TRUE(rig.fs.Exists(f2.landing_path));
  EXPECT_FALSE(rig.fs.Exists(f3.landing_path));
  rig.pipeline->Shutdown();
}

TEST(IngestPipelineTest, SpillParksOverflowThenDrainsWithoutLoss) {
  IngestPipeline::Options opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.overload_policy = OverloadPolicy::kSpillToDisk;
  opts.spill_path = "/bistro/db/ingest.spill";
  PipelineRig rig(opts);
  IncomingFile f1 = rig.Land("CPU_POLL1_201009250400.txt");
  IncomingFile f2 = rig.Land("CPU_POLL1_201009250401.txt");
  IncomingFile f3 = rig.Land("CPU_POLL1_201009250402.txt");
  ASSERT_TRUE(rig.pipeline->Submit(f1).ok());
  ASSERT_TRUE(rig.pipeline->Submit(f2).ok());
  ASSERT_TRUE(rig.pipeline->Submit(f3).ok());
  IngestStats s = rig.pipeline->stats();
  EXPECT_EQ(s.spilled, 2u);
  EXPECT_EQ(s.spill_depth, 2u);
  EXPECT_EQ(s.queue_depth, 1u);
  // The operator journal names the spilled files.
  auto journal = rig.fs.ReadFile("/bistro/db/ingest.spill");
  ASSERT_TRUE(journal.ok());
  EXPECT_NE(journal->find(f2.name), std::string::npos);
  EXPECT_NE(journal->find(f3.name), std::string::npos);
  // Once the workers drain the queue, the spill empties and nothing is
  // lost — all three commit.
  rig.pipeline->Start();
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_EQ(rig.committed.size(), 3u);
  EXPECT_TRUE(rig.errors.empty());
  EXPECT_EQ(rig.pipeline->stats().spill_depth, 0u);
  EXPECT_EQ(rig.receipts->ArrivalCount(), 3u);
  rig.pipeline->Shutdown();
}

TEST(IngestPipelineTest, BlockPolicyAbsorbsBurstWithoutLoss) {
  IngestPipeline::Options opts;
  opts.workers = 2;
  opts.queue_depth = 2;
  opts.batch = 4;
  opts.overload_policy = OverloadPolicy::kBlock;
  PipelineRig rig(opts);
  rig.pipeline->Start();
  for (int m = 0; m < 20; ++m) {
    ASSERT_TRUE(
        rig.pipeline
            ->Submit(rig.Land(StrFormat("CPU_POLL1_2010092504%02d.txt", m)))
            .ok());
  }
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_EQ(rig.committed.size(), 20u);
  IngestStats s = rig.pipeline->stats();
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.spilled, 0u);
  EXPECT_EQ(s.committed, 20u);
  rig.pipeline->Shutdown();
}

TEST(IngestPipelineTest, StageFailureLeavesLandingAndReportsError) {
  IngestPipeline::Options opts;
  opts.workers = 1;
  PipelineRig rig(opts);
  // Queue the file before the workers start, then destroy its landing
  // copy: the worker's read must fail without wedging the pipeline.
  IncomingFile f = rig.Land("CPU_POLL1_201009250400.txt");
  ASSERT_TRUE(rig.pipeline->Submit(f).ok());
  ASSERT_TRUE(rig.fs.Delete(f.landing_path).ok());
  rig.pipeline->Start();
  rig.pipeline->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_TRUE(rig.committed.empty());
  ASSERT_EQ(rig.errors.size(), 1u);
  EXPECT_EQ(rig.pipeline->stats().errors, 1u);
  EXPECT_EQ(rig.pipeline->stats().in_flight, 0u);
  EXPECT_EQ(rig.receipts->ArrivalCount(), 0u);
  rig.pipeline->Shutdown();
}

// --------------------------------------------------- Server integration

constexpr char kServerConfig[] = R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
feed MEM { pattern "MEM_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU, MEM; method push; }
)";

struct ServerRig {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  LoopbackTransport transport{&loop};
  RecordingInvoker invoker;
  Logger logger{&clock};
  std::unique_ptr<BistroServer> server;

  explicit ServerRig(const std::string& config_text = kServerConfig) {
    logger.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(config_text);
    EXPECT_TRUE(config.ok()) << config.status();
    auto s = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                  &transport, &loop, &invoker, &logger);
    EXPECT_TRUE(s.ok()) << s.status();
    server = std::move(*s);
  }
};

TEST(IngestServerTest, ThreadedServerDeliversEverythingExactlyOnce) {
  ServerRig rig(std::string(kServerConfig) +
                "ingest { workers 4; batch 8; }\n");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  for (int m = 0; m < 12; ++m) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p", StrFormat("CPU_POLL1_2010092504%02d.txt", m),
                              "cpu data")
                    .ok());
    ASSERT_TRUE(rig.server
                    ->Deposit("p", StrFormat("MEM_POLL1_2010092504%02d.txt", m),
                              "mem data")
                    .ok());
  }
  rig.server->ingest()->WaitIdle();
  rig.loop.RunUntilIdle();
  EXPECT_EQ(sink.files_received(), 24u);
  EXPECT_EQ(sink.duplicates(), 0u);
  EXPECT_EQ(rig.server->receipts()->ArrivalCount(), 24u);
  for (FileId id = 1; id <= 24; ++id) {
    EXPECT_TRUE(rig.server->receipts()->Delivered("s", id)) << id;
  }
  EXPECT_EQ(rig.server->ingest()->stats().committed, 24u);
}

TEST(IngestServerTest, ScanSkipsLeftoverWithCommittedReceipt) {
  ServerRig rig;
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntilIdle();
  EXPECT_EQ(sink.files_received(), 1u);
  // Simulate the crash window between receipt commit and landing-file
  // removal: the same name reappears in the landing zone. The scan must
  // finish the removal without double-ingesting.
  std::string leftover = "/bistro/landing/p/CPU_POLL1_201009250400.txt";
  ASSERT_TRUE(rig.fs.WriteFile(leftover, "x").ok());
  auto n = rig.server->ScanLandingZone();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_FALSE(rig.fs.Exists(leftover));
  rig.loop.RunUntilIdle();
  EXPECT_EQ(rig.server->receipts()->ArrivalCount(), 1u);
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

TEST(IngestServerTest, CommitWithoutScheduleRecoveredByStartupBackfill) {
  // A crash can land between a receipt's group commit and the scheduler
  // handoff: the receipt exists, the staged bytes exist, but no delivery
  // was ever submitted. The startup backfill must recover it.
  InMemoryFileSystem fs;
  {
    auto db = ReceiptDatabase::Open(&fs, "/bistro/db");
    ASSERT_TRUE(db.ok());
    ArrivalReceipt r;
    r.name = "CPU_POLL1_201009250400.txt";
    r.rel_path = "CPU/2010/09/25/CPU_POLL1_0400.txt";
    r.staged_path = "/bistro/staging/" + r.rel_path;
    r.size = 1;
    r.arrival_time = FromCivil(CivilTime{2010, 9, 25});
    r.feeds = {"CPU"};
    std::vector<ArrivalReceipt> group = {r};
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
    ASSERT_TRUE(fs.WriteFile(group[0].staged_path, "x").ok());
  }
  // "Restart": a fresh server over the same filesystem.
  SimClock clock{FromCivil(CivilTime{2010, 9, 25, 1, 0, 0})};
  EventLoop loop{&clock};
  LoopbackTransport transport{&loop};
  RecordingInvoker invoker;
  Logger logger{&clock};
  logger.SetMinLevel(LogLevel::kAlarm);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  transport.Register("s", &sink);
  auto config = ParseConfig(kServerConfig);
  ASSERT_TRUE(config.ok());
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  loop.RunUntilIdle();
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_TRUE((*server)->receipts()->Delivered("s", 1));
}

// ------------------------------------------------------- Config plumbing

TEST(IngestConfigTest, ParsesIngestBlockAndRoundTrips) {
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_%i.txt"; }
ingest { workers 4; queue_depth 128; batch 16; overload_policy spill; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->ingest.workers, 4);
  EXPECT_EQ(config->ingest.queue_depth, 128);
  EXPECT_EQ(config->ingest.batch, 16);
  EXPECT_EQ(config->ingest.overload_policy, OverloadPolicy::kSpillToDisk);
  std::string formatted = FormatConfig(*config);
  EXPECT_NE(formatted.find("ingest {"), std::string::npos);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ingest.overload_policy, OverloadPolicy::kSpillToDisk);
}

TEST(IngestConfigTest, RejectsBadIngestValues) {
  EXPECT_FALSE(ParseConfig("ingest { workers -1; }").ok());
  EXPECT_FALSE(ParseConfig("ingest { queue_depth 0; }").ok());
  EXPECT_FALSE(ParseConfig("ingest { batch 0; }").ok());
  EXPECT_FALSE(ParseConfig("ingest { overload_policy panic; }").ok());
  EXPECT_FALSE(ParseConfig("ingest { turbo 9; }").ok());
}

TEST(IngestConfigTest, ServerHonorsConfiguredPolicy) {
  ServerRig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
ingest { workers 2; queue_depth 64; batch 8; overload_policy shed_oldest; }
)");
  const IngestPipeline::Options& o = rig.server->ingest()->options();
  EXPECT_EQ(o.workers, 2);
  EXPECT_EQ(o.queue_depth, 64);
  EXPECT_EQ(o.batch, 8);
  EXPECT_EQ(o.overload_policy, OverloadPolicy::kShedOldest);
  EXPECT_TRUE(rig.server->ingest()->threaded());
}

}  // namespace
}  // namespace bistro
