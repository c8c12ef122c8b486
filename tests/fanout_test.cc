// Fan-out subsystem tests: subscription index (and the no-full-scan
// regression probe), subscriber groups with straggler catch-up,
// dissemination relays with durable spools and crash replay, sharded
// receipt stores (torn-tail rollback, golden equivalence vs the
// unsharded layout), the admin `subscriptions` view, and a multi-hop
// cascade (server -> relay -> federated server) smoke test.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "fanout/group.h"
#include "fanout/relay.h"
#include "fanout/subscription_index.h"
#include "federation/federation.h"
#include "kv/receipts.h"
#include "vfs/memfs.h"

namespace bistro {
namespace fanout {
namespace {

// ------------------------------------------------------------ helpers

Message FileMsg(FileId id, const std::string& name, const std::string& body,
                const FeedName& feed = "FED") {
  Message m;
  m.type = MessageType::kFileData;
  m.file_id = id;
  m.feed = feed;
  m.name = name;
  m.dest_path = name;
  m.payload_crc = Crc32(body);
  m.payload = SharedPayload(std::string(body));
  return m;
}

size_t CountReceiptRows(ReceiptDatabase* db, const std::string& prefix) {
  size_t n = 0;
  for (size_t i = 0; i < db->shard_count(); ++i) {
    n += db->kv(i)->ScanPrefix(prefix).size();
  }
  return n;
}

// ------------------------------------------------- config: new blocks

TEST(FanoutConfigTest, ParsesGroupRelayAndReceiptsBlocks) {
  auto config = ParseConfig(R"(
group SNMP {
  feed CPU { pattern "CPU_%i_%Y%m%d%H%M.txt"; }
}
group analytics {
  feeds SNMP, OTHER;
  members a1, a2, a3;
  window 2d;
  straggler_after 5;
}
feed OTHER { pattern "other_%s.dat"; }
relay edge1 {
  children analytics, leaf9;
  spool "/spool/edge1";
  retry_backoff 5s;
  max_attempts 4;
}
receipts { shards 8; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->groups.size(), 1u);
  const GroupSpec& g = config->groups[0];
  EXPECT_EQ(g.name, "analytics");
  EXPECT_EQ(g.feeds, (std::vector<FeedName>{"SNMP", "OTHER"}));
  EXPECT_EQ(g.members, (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(g.window, 2 * kDay);
  EXPECT_EQ(g.straggler_after, 5);
  ASSERT_EQ(config->relays.size(), 1u);
  const RelaySpec& r = config->relays[0];
  EXPECT_EQ(r.name, "edge1");
  EXPECT_EQ(r.children, (std::vector<std::string>{"analytics", "leaf9"}));
  EXPECT_EQ(r.spool, "/spool/edge1");
  EXPECT_EQ(r.retry.retry_backoff, 5 * kSecond);
  EXPECT_EQ(r.retry.max_attempts, 4);
  EXPECT_EQ(config->receipts.shards, 8);
}

TEST(FanoutConfigTest, FormatRoundTripsFanoutBlocks) {
  auto config = ParseConfig(R"(
feed FED { pattern "fed_%i.dat"; }
group g1 { feeds FED; members m1, m2; straggler_after 2; }
relay r1 { children m1; spool "/sp"; }
receipts { shards 4; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  auto round = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(round.ok()) << round.status() << "\n" << FormatConfig(*config);
  EXPECT_EQ(*config, *round);
}

TEST(FanoutConfigTest, RejectsInvalidFanoutBlocks) {
  // A subscriber group needs members and feeds.
  EXPECT_FALSE(ParseConfig("group g { feeds F; }").ok());
  EXPECT_FALSE(ParseConfig("group g { members a; }").ok());
  // Duplicate members.
  EXPECT_FALSE(ParseConfig("group g { feeds F; members a, a; }").ok());
  // Subscriber groups cannot nest inside a feed-hierarchy group.
  EXPECT_FALSE(
      ParseConfig("group SNMP { group g { feeds F; members a; } }").ok());
  // Relays need children; shard count is bounded.
  EXPECT_FALSE(ParseConfig("relay r { spool \"/s\"; }").ok());
  EXPECT_FALSE(ParseConfig("receipts { shards 0; }").ok());
  EXPECT_FALSE(ParseConfig("receipts { shards 512; }").ok());
}

// -------------------------------------------------- subscription index

constexpr char kIndexConfig[] = R"(
group SNMP {
  feed CPU { pattern "CPU_%i_%Y%m%d%H%M.txt"; }
  feed MEMORY { pattern "MEM_%s.csv"; }
}
subscriber warehouse { destination "/w"; feeds SNMP; method push; }
subscriber dashboard { destination "/d"; feeds SNMP.CPU; method notify; }
)";

TEST(SubscriptionIndexTest, InvertsInterestSets) {
  auto config = ParseConfig(kIndexConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  SubscriptionIndex index(registry->get());

  const auto& cpu = index.PostingsFor("SNMP.CPU");
  ASSERT_EQ(cpu.size(), 2u);
  EXPECT_EQ(cpu[0]->name, "warehouse");
  EXPECT_EQ(cpu[1]->name, "dashboard");
  const auto& mem = index.PostingsFor("SNMP.MEMORY");
  ASSERT_EQ(mem.size(), 1u);
  EXPECT_EQ(mem[0]->name, "warehouse");
  EXPECT_TRUE(index.PostingsFor("NO.SUCH.FEED").empty());
  EXPECT_EQ(index.ActiveSubscribers(),
            (std::vector<SubscriberName>{"dashboard", "warehouse"}));
}

TEST(SubscriptionIndexTest, RebuildsLazilyOnRegistryVersionBump) {
  auto config = ParseConfig(kIndexConfig);
  ASSERT_TRUE(config.ok());
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok());
  SubscriptionIndex index(registry->get());

  index.PostingsFor("SNMP.CPU");
  index.PostingsFor("SNMP.MEMORY");
  index.PostingsFor("SNMP.CPU");
  EXPECT_EQ(index.rebuilds(), 1u);  // one build serves many lookups

  SubscriberSpec extra;
  extra.name = "archiver";
  extra.feeds = {"SNMP.MEMORY"};
  extra.method = DeliveryMethod::kPush;
  ASSERT_TRUE((*registry)->AddSubscriber(extra).ok());
  const auto& mem = index.PostingsFor("SNMP.MEMORY");
  EXPECT_EQ(index.rebuilds(), 2u);  // version bump forced a rebuild
  ASSERT_EQ(mem.size(), 2u);
  EXPECT_EQ(mem[1]->name, "archiver");
}

// ------------------------------------ server fixture (groups + shards)

constexpr char kServerConfig[] = R"(
group SNMP {
  feed CPU {
    pattern "CPU_POLL%i_%Y%m%d%H%M.txt";
    normalize "%Y/%m/%d/CPU_POLL%i_%H%M.txt";
  }
}
subscriber warehouse { destination "/warehouse"; feeds SNMP; method push; }
group analytics {
  feeds SNMP;
  members a1, a2, a3;
  straggler_after 2;
}
receipts { shards 4; }
)";

class FanoutServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(FromCivil(CivilTime{2010, 9, 25}));
    loop_ = std::make_unique<EventLoop>(clock_.get());
    fs_ = std::make_unique<InMemoryFileSystem>();
    transport_ = std::make_unique<LoopbackTransport>(loop_.get());
    invoker_ = std::make_unique<RecordingInvoker>();
    logger_ = std::make_unique<Logger>(clock_.get());
    logger_->SetMinLevel(LogLevel::kError);

    warehouse_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/warehouse");
    transport_->Register("warehouse", warehouse_.get());
    for (const char* name : {"a1", "a2", "a3"}) {
      members_[name] = std::make_unique<FileSinkEndpoint>(
          fs_.get(), std::string("/m/") + name);
    }

    config_ = *ParseConfig(kServerConfig);
    Boot();
  }

  void Boot() {
    auto server =
        BistroServer::Create(BistroServer::Options(), config_, fs_.get(),
                             transport_.get(), loop_.get(), invoker_.get(),
                             logger_.get());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    GroupManager::Options opts;
    opts.catchup_interval = 0;  // tests drive CatchUpStragglers directly
    groups_ = std::make_unique<GroupManager>(server_.get(), fs_.get(),
                                             loop_.get(), logger_.get(), opts);
    ASSERT_TRUE(groups_
                    ->Wire(
                        config_.groups,
                        [this](const std::string& m) -> Endpoint* {
                          auto it = members_.find(m);
                          return it == members_.end() ? nullptr
                                                      : it->second.get();
                        },
                        [this](const std::string& name, Endpoint* ep) {
                          transport_->Register(name, ep);
                        })
                    .ok());
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<InMemoryFileSystem> fs_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<RecordingInvoker> invoker_;
  std::unique_ptr<Logger> logger_;
  std::unique_ptr<FileSinkEndpoint> warehouse_;
  std::map<std::string, std::unique_ptr<FileSinkEndpoint>> members_;
  ServerConfig config_;
  std::unique_ptr<BistroServer> server_;
  std::unique_ptr<GroupManager> groups_;
};

// Satellite (a): the regression probe. FeedRegistry counts every
// SubscribersOf full scan; deposits, punctuation, subscriber backfill,
// feed revision and startup must all route through the index instead.
TEST_F(FanoutServerTest, NoFullSubscriberScanOnAnyHotPath) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();
  server_->SourceEndOfBatch("SNMP.CPU", loop_->Now());
  loop_->RunUntilIdle();

  SubscriberSpec late;
  late.name = "latecomer";
  late.host = "warehouse";  // reuse a registered endpoint
  late.feeds = {"SNMP"};
  late.method = DeliveryMethod::kPush;
  ASSERT_TRUE(server_->AddSubscriber(late).ok());
  loop_->RunUntilIdle();

  FeedSpec revised = server_->registry()->FindFeed("SNMP.CPU")->spec;
  revised.tardiness = 2 * kMinute;
  ASSERT_TRUE(server_->ReviseFeed(revised).ok());
  loop_->RunUntilIdle();

  EXPECT_EQ(server_->registry()->subscriber_scans(), 0u)
      << "a delivery path fell back to the O(subscribers x feeds) scan";
  EXPECT_GT(server_->delivery()->subscription_index()->lookups(), 0u);
}

TEST_F(FanoutServerTest, GroupSharesOneCursorAndOneReceiptRow) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250405.txt", "cpu=2").ok());
  loop_->RunUntilIdle();

  // Every member landed both files...
  for (const char* m : {"a1", "a2", "a3"}) {
    auto got = fs_->ReadFile(std::string("/m/") + m +
                             "/SNMP.CPU/2010/09/25/CPU_POLL1_0400.txt");
    ASSERT_TRUE(got.ok()) << m << ": " << got.status();
    EXPECT_EQ(*got, "cpu=1");
    EXPECT_EQ(members_[m]->files_received(), 2u);
  }
  // ...but the receipt store holds ONE delivery row per file for the
  // whole group (plus the individual subscriber's), not one per member.
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 1));
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 2));
  EXPECT_FALSE(server_->receipts()->Delivered("a1", 1));
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics/"), 2u);
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics~"), 0u);

  GroupRelay* relay = groups_->relay("analytics");
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->files_acked(), 2u);
  EXPECT_EQ(relay->cursor(), 2u);
  EXPECT_EQ(relay->straggler_count(), 0u);
  // The group counts as ONE subscriber in the engine's queue math.
  EXPECT_TRUE(server_->receipts()
                  ->ComputeDeliveryQueue("analytics", {"SNMP.CPU"})
                  .empty());
}

TEST_F(FanoutServerTest, StragglerGetsDeltaCatchUpAndRejoins) {
  members_["a3"]->SetFailing(true);
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();

  // a3 failed straggler_after (2) consecutive times: the group acked
  // without it and tracked the miss per member.
  GroupRelay* relay = groups_->relay("analytics");
  EXPECT_EQ(relay->files_acked(), 1u);
  EXPECT_EQ(relay->straggler_count(), 1u);
  EXPECT_EQ(relay->straggler_lag(), 1u);
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 1));
  EXPECT_EQ(members_["a1"]->files_received(), 1u);
  EXPECT_EQ(members_["a3"]->files_received(), 0u);

  // Files arriving while a3 is a straggler go straight to its backlog —
  // no NACK churn on the healthy members.
  uint64_t nacks_before = relay->nacks();
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250405.txt", "cpu=2").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(relay->nacks(), nacks_before);
  EXPECT_EQ(relay->straggler_lag(), 2u);

  // Recovery: catch-up replays exactly the delta, records the
  // per-member d/<group>~<member>/ receipts, and a3 rejoins the ack set.
  members_["a3"]->SetFailing(false);
  EXPECT_EQ(groups_->CatchUpStragglers(), 2u);
  EXPECT_EQ(members_["a3"]->files_received(), 2u);
  EXPECT_EQ(relay->straggler_count(), 0u);
  EXPECT_EQ(relay->straggler_lag(), 0u);
  EXPECT_TRUE(server_->receipts()->Delivered("analytics~a3", 1));
  EXPECT_TRUE(server_->receipts()->Delivered("analytics~a3", 2));
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics~a3/"), 2u);
}

TEST_F(FanoutServerTest, RestartResyncIsAbsorbedByMemberDedupe) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();
  for (const char* m : {"a1", "a2", "a3"}) {
    EXPECT_EQ(members_[m]->files_received(), 1u);
  }

  // Server restart: receipts and staging survive on fs_, members keep
  // their own dedupe state (they are external processes).
  groups_.reset();
  server_.reset();
  Boot();
  loop_->RunUntilIdle();  // backfill finds nothing undelivered
  ASSERT_TRUE(groups_->Resync().ok());
  loop_->RunUntilIdle();

  for (const char* m : {"a1", "a2", "a3"}) {
    EXPECT_EQ(members_[m]->files_received(), 1u) << m << " re-landed a file";
    EXPECT_GE(members_[m]->duplicates(), 1u) << m << " saw no re-offer";
  }
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics/"), 1u);
}

// ------------------------------------------------- group relay (unit)

TEST(GroupRelayTest, NacksUntilStragglerThenAcksWithoutIt) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint ok1(&fs, "/ok1");
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", /*straggler_after=*/2, &logger);
  relay.AddMember("ok1", &ok1);
  relay.AddMember("bad", &bad);

  Message msg = FileMsg(1, "fed_1.dat", "x");
  EXPECT_FALSE(relay.HandleMessage(msg).ok());  // healthy-member failure
  EXPECT_EQ(relay.nacks(), 1u);
  EXPECT_EQ(relay.files_acked(), 0u);

  // The retry tips `bad` over straggler_after: group acks without it.
  EXPECT_TRUE(relay.HandleMessage(msg).ok());
  EXPECT_EQ(relay.straggler_count(), 1u);
  EXPECT_EQ(relay.cursor(), 1u);
  EXPECT_EQ(ok1.files_received(), 1u);
  EXPECT_EQ(ok1.duplicates(), 1u);  // retry absorbed by FileId dedupe

  // Catch-up drains the backlog and the member rejoins.
  bad.SetFailing(false);
  std::vector<std::pair<std::string, FileId>> deltas;
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> {
        return FileMsg(id, StrFormat("fed_%llu.dat", (unsigned long long)id),
                       "x");
      },
      [&](const std::string& member, FileId id, bool ok) {
        if (ok) deltas.emplace_back(member, id);
      });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(deltas,
            (std::vector<std::pair<std::string, FileId>>{{"bad", 1}}));
  EXPECT_EQ(bad.files_received(), 1u);
  EXPECT_EQ(relay.straggler_count(), 0u);
}

TEST(GroupRelayTest, ReofferQueuesFailuresInsteadOfNacking) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint ok1(&fs, "/ok1");
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", 3, &logger);
  relay.AddMember("ok1", &ok1);
  relay.AddMember("bad", &bad);
  relay.Reoffer(FileMsg(7, "fed_7.dat", "x"));

  EXPECT_EQ(relay.nacks(), 0u);
  EXPECT_EQ(ok1.files_received(), 1u);
  EXPECT_EQ(relay.straggler_lag(), 1u);  // queued for catch-up, not lost

  bad.SetFailing(false);
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> { return FileMsg(id, "fed_7.dat", "x"); },
      [](const std::string&, FileId, bool) {});
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(bad.files_received(), 1u);
  EXPECT_EQ(relay.straggler_lag(), 0u);
}

TEST(GroupRelayTest, CatchUpDropsFilesExpiredFromHistory) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", 1, &logger);
  relay.AddMember("bad", &bad);
  relay.HandleMessage(FileMsg(1, "a.dat", "x"));
  relay.HandleMessage(FileMsg(2, "b.dat", "x"));
  EXPECT_EQ(relay.straggler_lag(), 2u);

  bad.SetFailing(false);
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> {
        if (id == 1) return Status::NotFound("expired");
        return FileMsg(id, "b.dat", "x");
      },
      [](const std::string&, FileId, bool) {});
  EXPECT_EQ(n, 1u);  // the expired file is dropped, not retried forever
  EXPECT_EQ(relay.straggler_lag(), 0u);
  EXPECT_EQ(bad.files_received(), 1u);
}

// --------------------------------------------------- sharded receipts

TEST(ShardedReceiptsTest, RoutesRowsByShardAndMergesIndexes) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->shard_count(), 4u);

  std::vector<ArrivalReceipt> group(5);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i].name = StrFormat("f%zu.dat", i);
    group[i].staged_path = StrFormat("/stage/f%zu.dat", i);
    group[i].feeds = {"FED"};
    group[i].arrival_time = 100 + static_cast<TimePoint>(i);
  }
  ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group[i].file_id, static_cast<FileId>(i + 1));
  }
  // Shard directories exist; rows are colocated by id hash.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        fs.ReadFile(StrFormat("/receipts/shard-%03d/wal.log", i)).ok());
  }
  // Per-feed index and name lookup merge across shards.
  EXPECT_EQ((*db)->FilesInFeed("FED"),
            (std::vector<FileId>{1, 2, 3, 4, 5}));
  auto id = (*db)->FindIdByName("f3.dat");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4u);

  // Delivery rows partition by subscriber, not file.
  ASSERT_TRUE((*db)->RecordDeliveryGroup({{"subA", 1, 200},
                                          {"subA", 2, 200},
                                          {"subB", 1, 200}})
                  .ok());
  EXPECT_TRUE((*db)->Delivered("subA", 1));
  EXPECT_TRUE((*db)->Delivered("subB", 1));
  EXPECT_FALSE((*db)->Delivered("subB", 2));
  EXPECT_EQ((*db)->ComputeDeliveryQueue("subA", {"FED"}).size(), 3u);
}

TEST(ShardedReceiptsTest, GoldenEquivalenceWithUnshardedLayout) {
  InMemoryFileSystem fs;
  auto one = ReceiptDatabase::Open(&fs, "/r1", KvStore::Options(), 1);
  auto four = ReceiptDatabase::Open(&fs, "/r4", KvStore::Options(), 4);
  ASSERT_TRUE(one.ok() && four.ok());

  auto workload = [](ReceiptDatabase* db) {
    std::vector<ArrivalReceipt> group(9);
    for (size_t i = 0; i < group.size(); ++i) {
      group[i].name = StrFormat("f%zu.dat", i);
      group[i].staged_path = StrFormat("/stage/f%zu.dat", i);
      group[i].feeds = {i % 2 == 0 ? "EVEN" : "ODD"};
      group[i].arrival_time = 100 + static_cast<TimePoint>(i);
    }
    ASSERT_TRUE(db->RecordArrivalGroup(&group).ok());
    ASSERT_TRUE(db->RecordDeliveryGroup(
                      {{"alpha", 1, 150}, {"alpha", 3, 150}, {"beta", 2, 150}})
                    .ok());
    ASSERT_TRUE(db->RecordDelivery("gamma", 5, 160).ok());
  };
  workload(one->get());
  workload(four->get());

  // Crash-restart both stores, then demand identical recovered queues.
  one->reset();
  four->reset();
  one = ReceiptDatabase::Open(&fs, "/r1", KvStore::Options(), 1);
  four = ReceiptDatabase::Open(&fs, "/r4", KvStore::Options(), 4);
  ASSERT_TRUE(one.ok() && four.ok());

  EXPECT_EQ((*one)->ArrivalCount(), (*four)->ArrivalCount());
  EXPECT_EQ((*one)->FilesInFeed("EVEN"), (*four)->FilesInFeed("EVEN"));
  EXPECT_EQ((*one)->FilesInFeed("ODD"), (*four)->FilesInFeed("ODD"));
  for (const char* sub : {"alpha", "beta", "gamma", "newcomer"}) {
    auto q1 = (*one)->ComputeDeliveryQueue(sub, {"EVEN", "ODD"});
    auto q4 = (*four)->ComputeDeliveryQueue(sub, {"EVEN", "ODD"});
    ASSERT_EQ(q1.size(), q4.size()) << sub;
    for (size_t i = 0; i < q1.size(); ++i) {
      EXPECT_EQ(q1[i].file_id, q4[i].file_id) << sub;
      EXPECT_EQ(q1[i].name, q4[i].name) << sub;
    }
  }
}

TEST(ShardedReceiptsTest, TornShardTailLosesOnlyThatShardsSuffix) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok());
  // Four group commits of two receipts each: ids 1..8, shard = id % 4.
  for (int g = 0; g < 4; ++g) {
    std::vector<ArrivalReceipt> group(2);
    for (int i = 0; i < 2; ++i) {
      group[i].name = StrFormat("g%d_%d.dat", g, i);
      group[i].staged_path = "/stage/" + group[i].name;
      group[i].feeds = {"FED"};
      group[i].arrival_time = 100 + g;
    }
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  }
  db->reset();

  // Crash mid-append in shard 2: its WAL loses the trailing record (the
  // group that carried id 6); every other shard's rows are untouched.
  std::string wal = *fs.ReadFile("/receipts/shard-002/wal.log");
  ASSERT_TRUE(fs.WriteFile("/receipts/shard-002/wal.log",
                           std::string_view(wal).substr(0, wal.size() - 3))
                  .ok());

  db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->ArrivalCount(), 7u);
  EXPECT_FALSE((*db)->GetArrival(6).ok());
  for (FileId id : {1, 2, 3, 4, 5, 7, 8}) {
    EXPECT_TRUE((*db)->GetArrival(id).ok()) << "id " << id;
  }
  // The sequence lives in shard 0 and committed first: the torn group
  // burned id 6 but a new arrival can never reuse it.
  auto next = (*db)->NextFileId();
  ASSERT_TRUE(next.ok());
  EXPECT_GE(*next, 9u);
}

// ------------------------------------------------- dissemination relay

class RelayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(FromCivil(CivilTime{2010, 9, 25}));
    loop_ = std::make_unique<EventLoop>(clock_.get());
    fs_ = std::make_unique<InMemoryFileSystem>();
    transport_ = std::make_unique<LoopbackTransport>(loop_.get());
    logger_ = std::make_unique<Logger>(clock_.get());
    logger_->SetMinLevel(LogLevel::kError);
    c1_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/c1");
    c2_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/c2");
    transport_->Register("c1", c1_.get());
    transport_->Register("c2", c2_.get());
  }

  Result<std::unique_ptr<RelayNode>> OpenRelay() {
    RelayNode::Options options;
    options.spool_dir = "/spool/r1";
    return RelayNode::Open("r1", {"c1", "c2"}, fs_.get(), transport_.get(),
                           loop_.get(), logger_.get(), options);
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<InMemoryFileSystem> fs_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<Logger> logger_;
  std::unique_ptr<FileSinkEndpoint> c1_;
  std::unique_ptr<FileSinkEndpoint> c2_;
};

TEST_F(RelayTest, AcksAfterSpoolThenFansOutAndDrains) {
  auto relay = OpenRelay();
  ASSERT_TRUE(relay.ok()) << relay.status();

  // The upstream ack is synchronous (after the durable spool write);
  // fan-out to the children happens on the loop afterwards.
  ASSERT_TRUE((*relay)->HandleMessage(FileMsg(1, "fed_1.dat", "x")).ok());
  EXPECT_EQ((*relay)->Backlog(), 1u);
  EXPECT_EQ(c1_->files_received(), 0u);
  loop_->RunUntilIdle();
  EXPECT_EQ(c1_->files_received(), 1u);
  EXPECT_EQ(c2_->files_received(), 1u);
  EXPECT_EQ((*relay)->forwarded(), 2u);
  EXPECT_EQ((*relay)->Backlog(), 0u);
  // Fully-acked entries leave the spool (nothing to replay on reopen).
  relay->reset();
  auto reopened = OpenRelay();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->replayed(), 0u);
}

TEST_F(RelayTest, RetriesFailedChildWithBackoff) {
  auto relay = OpenRelay();
  ASSERT_TRUE(relay.ok());
  c2_->SetFailing(true);
  ASSERT_TRUE((*relay)->HandleMessage(FileMsg(1, "fed_1.dat", "x")).ok());
  loop_->RunFor(5 * kSecond);
  EXPECT_EQ(c1_->files_received(), 1u);
  EXPECT_EQ(c2_->files_received(), 0u);
  EXPECT_EQ((*relay)->Backlog(), 1u);  // still owed to c2

  c2_->SetFailing(false);
  loop_->RunFor(kMinute);
  EXPECT_EQ(c2_->files_received(), 1u);
  EXPECT_EQ((*relay)->Backlog(), 0u);
  EXPECT_EQ(c1_->duplicates(), 0u);  // retry targeted only the failed child
}

TEST_F(RelayTest, CrashReplaysOnlyUnackedChildren) {
  {
    auto relay = OpenRelay();
    ASSERT_TRUE(relay.ok());
    c2_->SetFailing(true);
    ASSERT_TRUE((*relay)->HandleMessage(FileMsg(1, "fed_1.dat", "x")).ok());
    loop_->RunFor(3 * kSecond);  // c1 acked, c2 still pending
    EXPECT_EQ(c1_->files_received(), 1u);
  }  // relay destroyed with the entry mid-retry: the spool keeps it

  c2_->SetFailing(false);
  auto relay = OpenRelay();
  ASSERT_TRUE(relay.ok()) << relay.status();
  EXPECT_EQ((*relay)->replayed(), 1u);
  loop_->RunFor(kMinute);
  EXPECT_EQ(c2_->files_received(), 1u);
  // The durable waiting set excluded c1, so the replay did not resend
  // to it — and even if it had, the sink's dedupe absorbs it.
  EXPECT_EQ(c1_->files_received(), 1u);
  EXPECT_EQ(c1_->duplicates(), 0u);
  EXPECT_EQ((*relay)->Backlog(), 0u);
}

TEST(RelayTreeDepthTest, ComputesDepthAndCutsCycles) {
  std::vector<RelaySpec> specs(3);
  specs[0].name = "root";
  specs[0].children = {"mid", "leaf_sub"};
  specs[1].name = "mid";
  specs[1].children = {"edge"};
  specs[2].name = "edge";
  specs[2].children = {"s1", "s2"};
  EXPECT_EQ(RelayTreeDepth(specs, "edge"), 1);
  EXPECT_EQ(RelayTreeDepth(specs, "mid"), 2);
  EXPECT_EQ(RelayTreeDepth(specs, "root"), 3);
  // A cycle is a misconfiguration; depth stays finite.
  specs[2].children = {"root"};
  EXPECT_EQ(RelayTreeDepth(specs, "root"), 3);
}

// ------------------------------------------------------- admin console

TEST_F(FanoutServerTest, SubscriptionsCommandRendersGroupsAndRelays) {
  members_["a3"]->SetFailing(true);
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();

  AdminFanout fanout;
  fanout.groups = groups_.get();
  RelaySpec spec;
  spec.name = "edge1";
  spec.children = {"a1", "a2"};
  fanout.relay_specs = {spec};

  std::string out =
      ExecuteAdminCommand(server_.get(), "subscriptions", nullptr, fanout);
  EXPECT_NE(out.find("individual subscribers: 1"), std::string::npos) << out;
  EXPECT_NE(out.find("analytics"), std::string::npos) << out;
  EXPECT_NE(out.find("3 member(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("stragglers 1 (owed 1)"), std::string::npos) << out;
  EXPECT_NE(out.find("[STRAGGLER, owes 1]"), std::string::npos) << out;
  EXPECT_NE(out.find("edge1"), std::string::npos) << out;
  EXPECT_NE(out.find("depth 1"), std::string::npos) << out;

  std::string status =
      ExecuteAdminCommand(server_.get(), "status", nullptr, fanout);
  EXPECT_NE(
      status.find("groups: 1 group(s) covering 3 member(s), 1 straggler(s)"),
      std::string::npos)
      << status;
  std::string help = ExecuteAdminCommand(server_.get(), "help");
  EXPECT_NE(help.find("subscriptions"), std::string::npos);
}

// ------------------------------------- multi-hop cascade (satellite d)

// A -> relay (durable middle hop) -> B (federated ingest) -> leaf sink.
// The relay's child is down when the file arrives; the origin still gets
// its ack, the relay crashes and replays, and the file lands exactly
// once after the child comes back.
TEST(CascadeTest, RelayMiddleHopSurvivesDownstreamOutageAndCrash) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  LoopbackTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kError);

  constexpr char kUpstream[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; }
subscriber hop { destination "/unused"; feeds FED; method push; host "relayB"; }
)";
  constexpr char kDownstream[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; }
subscriber leaf { destination "/unused"; feeds FED; method push; }
)";

  auto conf_a = ParseConfig(kUpstream);
  ASSERT_TRUE(conf_a.ok()) << conf_a.status();
  BistroServer::Options opts_a;
  opts_a.landing_root = "/a/landing";
  opts_a.staging_root = "/a/staging";
  opts_a.db_dir = "/a/db";
  auto server_a = BistroServer::Create(opts_a, *conf_a, &fs, &transport,
                                       &loop, &invoker, &logger);
  ASSERT_TRUE(server_a.ok()) << server_a.status();

  auto conf_b = ParseConfig(kDownstream);
  ASSERT_TRUE(conf_b.ok()) << conf_b.status();
  BistroServer::Options opts_b;
  opts_b.landing_root = "/b/landing";
  opts_b.staging_root = "/b/staging";
  opts_b.db_dir = "/b/db";
  auto server_b = BistroServer::Create(opts_b, *conf_b, &fs, &transport,
                                       &loop, &invoker, &logger);
  ASSERT_TRUE(server_b.ok()) << server_b.status();
  FederationInbound inbound_b(server_b->get(), &logger);
  FileSinkEndpoint leaf(&fs, "/leaf");
  transport.Register("leaf", &leaf);

  RelayNode::Options relay_options;
  relay_options.spool_dir = "/spool/relayB";
  relay_options.retry_backoff = 2 * kSecond;
  auto relay = RelayNode::Open("relayB", {"bsrv"}, &fs, &transport, &loop,
                               &logger, relay_options);
  ASSERT_TRUE(relay.ok()) << relay.status();
  transport.Register("relayB", relay->get());
  // NOTE: "bsrv" (B's federation inbound) is NOT registered yet — the
  // downstream hop is dark when the file arrives.

  ASSERT_TRUE(
      (*server_a)->Deposit("src", "fed_1_201009250400.dat", "payload").ok());
  loop.RunFor(10 * kSecond);
  // A considers the file delivered (the relay acked after spooling)...
  EXPECT_TRUE((*server_a)->receipts()->Delivered("hop", 1));
  // ...but nothing reached B yet; the relay still owes its child.
  EXPECT_EQ((*server_b)->receipts()->ArrivalCount(), 0u);
  EXPECT_EQ((*relay)->Backlog(), 1u);

  // The relay process crashes mid-outage and restarts from its spool.
  relay->reset();
  relay = RelayNode::Open("relayB", {"bsrv"}, &fs, &transport, &loop,
                          &logger, relay_options);
  ASSERT_TRUE(relay.ok()) << relay.status();
  transport.Register("relayB", relay->get());
  EXPECT_EQ((*relay)->replayed(), 1u);

  // Downstream failover completes: B comes up and the retry delivers.
  transport.Register("bsrv", &inbound_b);
  loop.RunFor(kMinute);
  loop.RunUntilIdle();
  EXPECT_EQ((*relay)->Backlog(), 0u);
  EXPECT_EQ((*server_b)->receipts()->ArrivalCount(), 1u);
  EXPECT_EQ(leaf.files_received(), 1u);
  EXPECT_EQ(inbound_b.files_ingested(), 1u);
  EXPECT_EQ(inbound_b.duplicates_absorbed(), 0u);
  auto got = fs.ReadFile("/leaf/FED/fed_1_201009250400.dat");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "payload");
}

}  // namespace
}  // namespace fanout
}  // namespace bistro
