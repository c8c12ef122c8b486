// Tests for the Bistro configuration language and feed registry:
// parsing, error reporting, FormatConfig round-trips, hierarchy expansion
// and subscription resolution.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "config/parser.h"
#include "config/registry.h"

namespace bistro {
namespace {

constexpr char kSnmpConfig[] = R"(
# SNMP measurement feeds (paper Section 3.1 example hierarchy)
group SNMP {
  group CPU {
    feed POLLER1 { pattern "CPU_POLL1_%Y%m%d%H%M.txt"; }
    feed POLLER2 { pattern "CPU_POLL2_%Y%m%d%H%M.txt"; }
  }
  feed BPS {
    pattern "BPS_%s_%Y%m%d%H.csv";
    normalize "%Y/%m/%d/BPS_%s_%H.csv";
    compress lz;
    tardiness 30s;
  }
  feed MEMORY {
    pattern "MEMORY_POLLER%i_%Y%m%d%H_%M.csv";
    decompress;
  }
}

subscriber dallas_warehouse {
  host "dallas.example.com";
  destination "/data/incoming";
  feeds SNMP.CPU, SNMP.BPS;
  method push;
  trigger batch count 3 timeout 5m exec "load_partition.sh";
  window 2d;
}

subscriber atlanta_marketing {
  host "atlanta.example.com";
  feeds SNMP;
  method notify;
  trigger file exec "notify.sh" remote;
}
)";

TEST(ConfigParseTest, ParsesFullExample) {
  auto config = ParseConfig(kSnmpConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->feeds.size(), 4u);
  EXPECT_EQ(config->feeds[0].name, "SNMP.CPU.POLLER1");
  EXPECT_EQ(config->feeds[1].name, "SNMP.CPU.POLLER2");
  EXPECT_EQ(config->feeds[2].name, "SNMP.BPS");
  EXPECT_EQ(config->feeds[3].name, "SNMP.MEMORY");

  const FeedSpec& bps = config->feeds[2];
  EXPECT_EQ(bps.pattern, "BPS_%s_%Y%m%d%H.csv");
  EXPECT_EQ(bps.normalize.rename_template, "%Y/%m/%d/BPS_%s_%H.csv");
  EXPECT_EQ(bps.normalize.action, CompressionAction::kCompress);
  EXPECT_EQ(bps.normalize.codec, CodecKind::kLz);
  EXPECT_EQ(bps.tardiness, 30 * kSecond);
  EXPECT_EQ(config->feeds[3].normalize.action, CompressionAction::kDecompress);
  EXPECT_EQ(config->feeds[0].tardiness, kDefaultTardiness);

  ASSERT_EQ(config->subscribers.size(), 2u);
  const SubscriberSpec& dallas = config->subscribers[0];
  EXPECT_EQ(dallas.name, "dallas_warehouse");
  EXPECT_EQ(dallas.host, "dallas.example.com");
  EXPECT_EQ(dallas.destination, "/data/incoming");
  EXPECT_EQ(dallas.feeds, (std::vector<FeedName>{"SNMP.CPU", "SNMP.BPS"}));
  EXPECT_EQ(dallas.method, DeliveryMethod::kPush);
  EXPECT_EQ(dallas.trigger.batch.mode, BatchSpec::Mode::kCountOrTime);
  EXPECT_EQ(dallas.trigger.batch.count, 3);
  EXPECT_EQ(dallas.trigger.batch.timeout, 5 * kMinute);
  EXPECT_EQ(dallas.trigger.command, "load_partition.sh");
  EXPECT_FALSE(dallas.trigger.remote);
  EXPECT_EQ(dallas.window, 2 * kDay);

  const SubscriberSpec& atlanta = config->subscribers[1];
  EXPECT_EQ(atlanta.method, DeliveryMethod::kNotify);
  EXPECT_EQ(atlanta.trigger.batch.mode, BatchSpec::Mode::kPerFile);
  EXPECT_TRUE(atlanta.trigger.remote);
}

TEST(ConfigParseTest, EmptyConfigIsValid) {
  auto config = ParseConfig("");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->feeds.empty());
  EXPECT_TRUE(config->subscribers.empty());
}

TEST(ConfigParseTest, ErrorsCarryLineNumbers) {
  auto config = ParseConfig("feed F {\n  pattern \"ok_%Y\";\n  bogus 7;\n}");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 3"), std::string::npos)
      << config.status();
  // Errors found after a block's closing brace name the block's keyword
  // line.
  const std::pair<const char*, const char*> kBlockErrors[] = {
      {"\n\nfeed A {\n  tardiness 5s;\n}", "line 3"},
      {"\npeer p {\n  feeds F;\n}", "line 2"},
      {"\n\n\nrelay r {\n}", "line 4"},
      {"group g { feeds F; members a; }\n\ngroup g { feeds F; members b; }",
       "line 3"},
      {"peer a { address \"h:1\"; }\npeer b {\n address \"h:2\";\n "
       "failover ghost; }",
       "line 2"},
      {"feed F { pattern \"f_%i\"; }\nplan F { sample 5; }\n\n"
       "plan F { slo bulk; }",
       "line 4"},
  };
  for (const auto& [text, line] : kBlockErrors) {
    auto bad = ParseConfig(text);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_NE(bad.status().message().find(line), std::string::npos)
        << text << "\n" << bad.status();
  }
}

TEST(ConfigParseTest, RejectsBadPatternAtParseTime) {
  auto config = ParseConfig(R"(feed F { pattern "bad_%q"; })");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigParseTest, RejectsFeedWithoutPattern) {
  EXPECT_FALSE(ParseConfig("feed F { tardiness 5s; }").ok());
}

TEST(ConfigParseTest, RejectsSubscriberWithoutFeeds) {
  EXPECT_FALSE(ParseConfig(R"(subscriber s { host "h"; })").ok());
}

TEST(ConfigParseTest, RejectsUnterminatedConstructs) {
  EXPECT_FALSE(ParseConfig("feed F { pattern \"x\";").ok());
  EXPECT_FALSE(ParseConfig("group G { feed F { pattern \"x\"; }").ok());
  EXPECT_FALSE(ParseConfig(R"(feed F { pattern "unterminated)").ok());
}

TEST(ConfigParseTest, RejectsBatchTriggerWithoutOptions) {
  EXPECT_FALSE(
      ParseConfig(R"(subscriber s { feeds F; trigger batch exec "x"; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(subscriber s { feeds F; trigger batch count -3; })").ok());
}

TEST(ConfigParseTest, PunctuationTrigger) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%Y%m%d"; }
subscriber s { feeds F; trigger punctuation exec "go.sh"; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->subscribers[0].trigger.batch.mode,
            BatchSpec::Mode::kPunctuation);
}

TEST(ConfigParseTest, CommentsAndWhitespaceIgnored)
{
  auto config = ParseConfig("# leading comment\n\n  feed F{pattern \"x_%i\";}#trailing\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->feeds.size(), 1u);
}

TEST(ConfigParseTest, DeliveryTuningBlock) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
delivery {
  retry_backoff_min 2s;
  retry_backoff_max 1m;
  retry_multiplier 2.5;
  retry_jitter off;
  max_attempts 7;
  offline_after 5;
  probe_interval 45s;
  window 8;
  coalesce_bytes 65536;
  cache_bytes 1048576;
  receipt_group 32;
  receipt_flush_interval 250ms;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const DeliveryTuningSpec& d = config->delivery;
  EXPECT_EQ(d.retry_backoff_min, 2 * kSecond);
  EXPECT_EQ(d.retry_backoff_max, kMinute);
  EXPECT_EQ(d.retry_multiplier, 2.5);
  EXPECT_EQ(d.retry_jitter, false);
  EXPECT_EQ(d.max_attempts, 7);
  EXPECT_EQ(d.offline_after, 5);
  EXPECT_EQ(d.probe_interval, 45 * kSecond);
  EXPECT_EQ(d.window, 8);
  EXPECT_EQ(d.coalesce_bytes, 65536);
  EXPECT_EQ(d.cache_bytes, 1048576);
  EXPECT_EQ(d.receipt_group, 32);
  EXPECT_EQ(d.receipt_flush_interval, 250 * kMillisecond);
}

TEST(ConfigParseTest, DeliveryRetryBackoffLegacyKeyIsAlias) {
  // The pre-exponential-backoff key keeps working and sets the floor.
  auto config = ParseConfig("delivery { retry_backoff 9s; }");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->delivery.retry_backoff_min, 9 * kSecond);
}

TEST(ConfigParseTest, DeliveryBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("delivery { retry_multiplier 0.5; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { max_attempts 0; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { retry_jitter maybe; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { window -1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { coalesce_bytes -1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { cache_bytes -4; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { receipt_group 0; }").ok());
  // Out of the field's range: rejected, not narrowed.
  EXPECT_FALSE(ParseConfig("delivery { window 4294967297; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { max_attempts 4294967297; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { probe_interval -5s; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { retry_backoff_min -1s; }").ok());
  EXPECT_FALSE(
      ParseConfig("delivery { receipt_flush_interval 300000000000d; }").ok());
}

TEST(ConfigParseTest, RejectsNegativeAndOverflowingDurations) {
  EXPECT_FALSE(
      ParseConfig(R"(feed F { pattern "f_%i"; tardiness -1m; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(feed F { pattern "f_%i"; tardiness 99999999999999999d; })")
          .ok());
  EXPECT_FALSE(ParseConfig("subscriber s { feeds F; window -3h; }").ok());
  EXPECT_FALSE(
      ParseConfig("subscriber s { feeds F; trigger batch timeout -1s; }").ok());
  // Zero stays accepted wherever it was.
  auto zero = ParseConfig(
      "delivery { probe_interval 0s; retry_backoff_min 0s; }\n"
      "subscriber s { feeds F; window 0s; }");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->delivery.probe_interval, 0);
}

TEST(ConfigParseTest, SubscribersGroupsAndPeersShareOneNamespace) {
  const char* kSub = "subscriber x { feeds F; }\n";
  const char* kGroup = "group x { feeds F; members m; }\n";
  const char* kPeer = "peer x { address \"h:1\"; }\n";
  const char* kBlocks[] = {kSub, kGroup, kPeer};
  for (const char* first : kBlocks) {
    for (const char* second : kBlocks) {
      std::string text = std::string(first) + second;
      auto config = ParseConfig(text);
      ASSERT_FALSE(config.ok()) << text;
      EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
          << config.status();
    }
  }
  // Relays keep a namespace of their own.
  EXPECT_FALSE(ParseConfig("relay r { children a; }\nrelay r { children b; }")
                   .ok());
  EXPECT_TRUE(ParseConfig(std::string(kSub) + "relay x { children a; }").ok());
}

TEST(ConfigParseTest, AnalyzerTuningBlock) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
analyzer {
  workers 2;
  max_corpus 50000;
  shards 8;
  cycle_interval 5m;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const AnalyzerTuningSpec& a = config->analyzer;
  EXPECT_EQ(a.workers, 2);
  EXPECT_EQ(a.max_corpus, 50000);
  EXPECT_EQ(a.shards, 8);
  EXPECT_EQ(a.cycle_interval, 5 * kMinute);
  // Unset keys hold their one default; a key set to its default is the
  // same config as one that leaves it out.
  auto partial = ParseConfig("analyzer { workers 0; }");
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->analyzer.workers, 0);
  EXPECT_EQ(partial->analyzer.max_corpus, 100000);
  EXPECT_EQ(partial->analyzer, AnalyzerTuningSpec{});
}

TEST(ConfigParseTest, AnalyzerBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("analyzer { workers -1; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { max_corpus 0; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { shards 0; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { shards 4294967296; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { cycle_interval 0s; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { workers 1; ").ok());  // unterminated
}

TEST(ConfigParseTest, ServerBlock) {
  auto config = ParseConfig(R"(
server {
  listen "0.0.0.0:4400";
  max_frame_bytes 8388608;
  outbound_queue_bytes 33554432;
  reconnect_backoff_min 100ms;
  reconnect_backoff_max 5s;
  ack_timeout 20s;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const ServerNetSpec& s = config->server;
  EXPECT_EQ(s.listen_address, "0.0.0.0:4400");
  EXPECT_EQ(s.max_frame_bytes, 8388608);
  EXPECT_EQ(s.outbound_queue_bytes, 33554432);
  EXPECT_EQ(s.reconnect_backoff_min, 100 * kMillisecond);
  EXPECT_EQ(s.reconnect_backoff_max, 5 * kSecond);
  EXPECT_EQ(s.ack_timeout, 20 * kSecond);
  // Unset tuning keys hold the transport's defaults.
  auto partial = ParseConfig(R"(server { listen "127.0.0.1:0"; })");
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->server.max_frame_bytes, 67108864);
  EXPECT_NE(partial->server, ServerNetSpec{});
}

TEST(ConfigParseTest, ServerBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("server { max_frame_bytes 0; }").ok());
  EXPECT_FALSE(ParseConfig("server { outbound_queue_bytes -1; }").ok());
  EXPECT_FALSE(ParseConfig("server { reconnect_backoff_min 0s; }").ok());
  EXPECT_FALSE(ParseConfig("server { ack_timeout 0s; }").ok());
  EXPECT_FALSE(ParseConfig("server { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig(R"(server { listen "x:y"; )").ok());  // unterminated
}

TEST(ConfigParseTest, PeerBlocks) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
feed SNMP.MEM { pattern "mem_%i"; }
peer east { address "10.0.0.2:4400"; feeds SNMP.CPU, SNMP.MEM; window 1h; }
peer west { address "10.0.0.3:4400"; shard 1 of 4; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->peers.size(), 2u);
  const PeerSpec& east = config->peers[0];
  EXPECT_EQ(east.name, "east");
  EXPECT_EQ(east.address, "10.0.0.2:4400");
  EXPECT_EQ(east.feeds, (std::vector<FeedName>{"SNMP.CPU", "SNMP.MEM"}));
  EXPECT_EQ(east.window, kHour);
  EXPECT_EQ(east.shard_count, 0);
  const PeerSpec& west = config->peers[1];
  EXPECT_TRUE(west.feeds.empty());
  EXPECT_EQ(west.shard_index, 1);
  EXPECT_EQ(west.shard_count, 4);
}

TEST(ConfigParseTest, PeerRejectsBadValues) {
  // No address.
  EXPECT_FALSE(ParseConfig("peer p { feeds F; }").ok());
  // Explicit feeds and sharding are alternative routing policies.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; feeds F; shard 0 of 2; })").ok());
  // Shard index out of [0, count).
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; shard 2 of 2; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; shard 0 of 0; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; frobnicate 1; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; )").ok());  // unterminated
}

TEST(ConfigParseTest, PeerHealthAndFailoverKeys) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
peer east {
  address "10.0.0.2:4400"; shard 0 of 4; replicas 2;
  failover west; probe_interval 2s; suspect_after 2; down_after 5;
}
peer west { address "10.0.0.3:4400"; shard 1 of 4; replicas 2; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const PeerSpec& east = config->peers[0];
  EXPECT_EQ(east.replicas, 2);
  EXPECT_EQ(east.failover, "west");
  EXPECT_EQ(east.health.probe_interval, 2 * kSecond);
  EXPECT_EQ(east.health.suspect_after, 2);
  EXPECT_EQ(east.health.down_after, 5);
  const PeerSpec& west = config->peers[1];
  EXPECT_EQ(west.replicas, 2);
  EXPECT_TRUE(west.failover.empty());
  EXPECT_EQ(west.health.probe_interval, 5 * kSecond);
  EXPECT_EQ(west.health, PeerHealthSpec{});
}

TEST(ConfigParseTest, PeerHealthAndFailoverRejectBadValues) {
  // replicas needs sharding, and can't exceed the shard count.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; replicas 2; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; shard 0 of 2; replicas 3; })")
          .ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; replicas 0; })").ok());
  // A failover target must be another configured peer.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; failover ghost; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; failover p; })").ok());
  // Threshold ordering and positivity.
  EXPECT_FALSE(ParseConfig(
                   R"(peer p { address "h:1"; suspect_after 5; down_after 2; })")
                   .ok());
  // down_after left at its default (3) counts as set to it.
  auto undercut = ParseConfig(R"(peer p { address "h:1"; suspect_after 5; })");
  ASSERT_FALSE(undercut.ok());
  EXPECT_NE(undercut.status().ToString().find(
                "peer p sets down_after below suspect_after"),
            std::string::npos)
      << undercut.status();
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; suspect_after 0; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; probe_interval 0s; })").ok());
}

TEST(ConfigFormatTest, ServerAndPeerBlocksRoundTrip) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
server { listen "127.0.0.1:4400"; ack_timeout 15s; max_frame_bytes 1048576; }
peer east { address "10.0.0.2:4400"; feeds SNMP.CPU; window 30m; failover west; probe_interval 2s; suspect_after 2; down_after 4; }
peer west { address "10.0.0.3:4400"; shard 0 of 2; replicas 2; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, AnalyzerBlockRoundTrips) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
analyzer { workers 4; max_corpus 200000; shards 32; cycle_interval 90s; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, DeliveryBlockRoundTrips) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
delivery {
  retry_backoff_min 3s; retry_multiplier 4; retry_jitter on;
  window 4; coalesce_bytes 32768; cache_bytes 0; receipt_group 8;
  receipt_flush_interval 75ms;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, ClassifierBlockRoundTrips) {
  for (auto [word, mode] : {std::pair("automaton", IndexMode::kAutomaton),
                            std::pair("trie", IndexMode::kPrefixIndex),
                            std::pair("linear", IndexMode::kLinear)}) {
    auto config = ParseConfig(StrFormat(
        "feed F { pattern \"f_%%i\"; }\nclassifier { mode %s; }\n", word));
    ASSERT_TRUE(config.ok()) << config.status();
    EXPECT_EQ(config->classifier.mode, mode);
    std::string formatted = FormatConfig(*config);
    auto reparsed = ParseConfig(formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
    EXPECT_EQ(*reparsed, *config) << formatted;
  }
  EXPECT_FALSE(ParseConfig("classifier { mode hash; }").ok());
  EXPECT_FALSE(ParseConfig("classifier { workers 2; }").ok());
}

TEST(ConfigFormatTest, DoublesRoundTripExactly) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
delivery { retry_multiplier 1.23456789; }
plan F { sample 33.3333333; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
  EXPECT_EQ(reparsed->delivery.retry_multiplier, 1.23456789);
  EXPECT_EQ(reparsed->plans[0].sample, 33.3333333);
}

TEST(ConfigFormatTest, RoundTripsThroughParse) {
  auto config = ParseConfig(kSnmpConfig);
  ASSERT_TRUE(config.ok());
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config);
}

TEST(ConfigFormatTest, QuotesEscaped) {
  ServerConfig config;
  FeedSpec feed;
  feed.name = "F";
  feed.pattern = "weird_%s";
  config.feeds.push_back(feed);
  SubscriberSpec sub;
  sub.name = "s";
  sub.feeds = {"F"};
  sub.trigger.command = "run \"quoted\" \\ back";
  sub.trigger.batch.mode = BatchSpec::Mode::kTime;
  sub.trigger.batch.timeout = 90 * kSecond;
  config.subscribers.push_back(sub);
  auto reparsed = ParseConfig(FormatConfig(config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, config);
}

// ---------------------------------------------------------------- Registry

std::unique_ptr<FeedRegistry> MustRegistry(std::string_view text) {
  auto config = ParseConfig(text);
  EXPECT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  EXPECT_TRUE(registry.ok()) << registry.status();
  return std::move(*registry);
}

TEST(RegistryTest, ExpandGroupToLeaves) {
  auto registry = MustRegistry(kSnmpConfig);
  EXPECT_EQ(registry->Expand("SNMP.CPU"),
            (std::vector<FeedName>{"SNMP.CPU.POLLER1", "SNMP.CPU.POLLER2"}));
  EXPECT_EQ(registry->Expand("SNMP.BPS"),
            std::vector<FeedName>{"SNMP.BPS"});
  EXPECT_EQ(registry->Expand("SNMP").size(), 4u);
  EXPECT_TRUE(registry->Expand("UNKNOWN").empty());
  // Prefix must respect dot boundaries: "SNMP.CP" is not a group.
  EXPECT_TRUE(registry->Expand("SNMP.CP").empty());
}

TEST(RegistryTest, SubscribedFeedsDeduplicates) {
  auto registry = MustRegistry(R"(
group G {
  feed A { pattern "a_%i"; }
  feed B { pattern "b_%i"; }
}
subscriber s { feeds G, G.A; }
)");
  auto feeds = registry->SubscribedFeeds(*registry->FindSubscriber("s"));
  EXPECT_EQ(feeds, (std::vector<FeedName>{"G.A", "G.B"}));
}

TEST(RegistryTest, SubscribersOfResolvesGroups) {
  auto registry = MustRegistry(kSnmpConfig);
  auto subs = registry->SubscribersOf("SNMP.CPU.POLLER1");
  ASSERT_EQ(subs.size(), 2u);  // dallas (via SNMP.CPU) and atlanta (via SNMP)
  auto bps_subs = registry->SubscribersOf("SNMP.BPS");
  ASSERT_EQ(bps_subs.size(), 2u);
  auto memory_subs = registry->SubscribersOf("SNMP.MEMORY");
  ASSERT_EQ(memory_subs.size(), 1u);
  EXPECT_EQ(memory_subs[0]->name, "atlanta_marketing");
}

TEST(RegistryTest, RejectsDuplicateFeed) {
  auto config = ParseConfig(R"(
feed F { pattern "a_%i"; }
feed F { pattern "b_%i"; }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, RejectsFeedNameThatIsAlsoGroup) {
  auto config = ParseConfig(R"(
feed SNMP { pattern "a_%i"; }
group SNMP { feed CPU { pattern "b_%i"; } }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, RejectsUnknownSubscription) {
  auto config = ParseConfig(R"(
feed F { pattern "a_%i"; }
subscriber s { feeds NOPE; }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, UpdateFeedReplacesPattern) {
  auto registry = MustRegistry(R"(feed F { pattern "old_%i"; })");
  EXPECT_TRUE(registry->FindFeed("F")->pattern.Matches("old_1"));
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  EXPECT_FALSE(registry->FindFeed("F")->pattern.Matches("old_1"));
  EXPECT_TRUE(registry->FindFeed("F")->pattern.Matches("new_1"));
}

TEST(RegistryTest, AddSubscriberAtRuntime) {
  auto registry = MustRegistry(R"(feed F { pattern "a_%i"; })");
  SubscriberSpec sub;
  sub.name = "late_joiner";
  sub.feeds = {"F"};
  ASSERT_TRUE(registry->AddSubscriber(sub).ok());
  EXPECT_EQ(registry->SubscribersOf("F").size(), 1u);
  EXPECT_TRUE(registry->AddSubscriber(sub).IsAlreadyExists());
  SubscriberSpec bad;
  bad.name = "bad";
  bad.feeds = {"MISSING"};
  EXPECT_FALSE(registry->AddSubscriber(bad).ok());
}

}  // namespace
}  // namespace bistro
