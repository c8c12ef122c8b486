// Randomized property tests over the language layers:
//  - generated configurations survive FormatConfig -> ParseConfig intact;
//  - GeneralizeName always yields a compilable pattern that matches the
//    input name;
//  - random corpora rendered from random pattern templates are fully
//    re-matched by their own discovered patterns;
//  - WAL/KvStore state survives arbitrary crash points (prefix truncation
//    never yields corruption errors, only a consistent earlier state);
//  - damaged codec frames decode to Corruption or to the original bytes.

#include <algorithm>
#include <climits>
#include <set>

#include <gtest/gtest.h>

#include "analyzer/infer.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "compress/codec.h"
#include "config/parser.h"
#include "kv/kvstore.h"
#include "net/protocol.h"
#include "net/stream.h"
#include "pattern/pattern.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ------------------------------------------------------------ config fuzz

ServerConfig RandomConfig(Rng* rng) {
  ServerConfig config;
  int feeds = 1 + static_cast<int>(rng->Uniform(6));
  for (int f = 0; f < feeds; ++f) {
    FeedSpec feed;
    feed.name = "F" + std::to_string(f);
    if (rng->Bernoulli(0.4)) feed.name = "GRP.SUB" + std::to_string(f);
    feed.pattern = "feed" + std::to_string(f) + "_%i_%Y%m%d.dat";
    int alts = static_cast<int>(rng->Uniform(3));
    for (int a = 0; a < alts; ++a) {
      feed.alt_patterns.push_back("alt" + std::to_string(f) + "_" +
                                  std::to_string(a) + "_%s.log");
    }
    switch (rng->Uniform(3)) {
      case 0:
        feed.normalize.action = CompressionAction::kCompress;
        feed.normalize.codec =
            rng->Bernoulli(0.5) ? CodecKind::kLz : CodecKind::kRle;
        break;
      case 1:
        feed.normalize.action = CompressionAction::kDecompress;
        break;
      default:
        break;
    }
    if (rng->Bernoulli(0.5)) {
      feed.normalize.rename_template = "%Y/%m/%d/out%i.dat";
    }
    feed.tardiness = static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
    config.feeds.push_back(std::move(feed));
  }
  int subs = static_cast<int>(rng->Uniform(4));
  for (int s = 0; s < subs; ++s) {
    SubscriberSpec sub;
    sub.name = "sub" + std::to_string(s);
    if (rng->Bernoulli(0.5)) sub.host = "host-" + rng->AlnumString(6);
    if (rng->Bernoulli(0.5)) sub.destination = "/data/" + rng->AlnumString(4);
    sub.feeds.push_back(
        config.feeds[rng->Uniform(config.feeds.size())].name);
    sub.method =
        rng->Bernoulli(0.5) ? DeliveryMethod::kPush : DeliveryMethod::kNotify;
    switch (rng->Uniform(5)) {
      case 0:
        sub.trigger.batch.mode = BatchSpec::Mode::kCount;
        sub.trigger.batch.count = 1 + static_cast<int>(rng->Uniform(10));
        break;
      case 1:
        sub.trigger.batch.mode = BatchSpec::Mode::kTime;
        sub.trigger.batch.timeout =
            static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
        break;
      case 2:
        sub.trigger.batch.mode = BatchSpec::Mode::kCountOrTime;
        sub.trigger.batch.count = 1 + static_cast<int>(rng->Uniform(10));
        sub.trigger.batch.timeout =
            static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
        break;
      case 3:
        sub.trigger.batch.mode = BatchSpec::Mode::kPunctuation;
        break;
      default:
        break;
    }
    if (rng->Bernoulli(0.6)) {
      sub.trigger.command = "run_" + rng->AlnumString(5) + " \"arg\\x\"";
      sub.trigger.remote = rng->Bernoulli(0.3);
    }
    if (rng->Bernoulli(0.4)) {
      sub.window = static_cast<Duration>(1 + rng->Uniform(72)) * kHour;
    }
    config.subscribers.push_back(std::move(sub));
  }
  // Everything below is written field by field, independently of the
  // parser's key table, so a wrong or missing table row fails the test.
  auto pick_feed = [&] {
    return config.feeds[rng->Uniform(config.feeds.size())].name;
  };
  // Durations at microsecond grain, up to ~11 days.
  auto duration = [&] {
    return static_cast<Duration>(rng->Uniform(1ull << 40));
  };
  auto positive = [&] { return 1 + duration(); };
  auto count = [&] {
    return 1 + static_cast<int>(rng->Uniform(1u << 31) % INT_MAX);
  };
  auto big = [&] { return static_cast<int64_t>(rng->Uniform(1ull << 62)); };
  // Doubles with more digits than "%g" keeps.
  auto fine = [&](double lo, double span) {
    return lo + rng->NextDouble() * span;
  };
  for (int g = static_cast<int>(rng->Uniform(3)); g > 0; --g) {
    GroupSpec group;
    group.name = "grp" + std::to_string(g);
    group.feeds.push_back(pick_feed());
    for (int m = 1 + static_cast<int>(rng->Uniform(3)); m > 0; --m) {
      group.members.push_back("m" + std::to_string(m));
    }
    if (rng->Bernoulli(0.5)) group.window = duration();
    if (rng->Bernoulli(0.5)) group.straggler_after = count();
    config.groups.push_back(std::move(group));
  }
  for (int r = static_cast<int>(rng->Uniform(3)); r > 0; --r) {
    RelaySpec relay;
    relay.name = "relay" + std::to_string(r);
    relay.children = {"c" + rng->AlnumString(3), "peer0"};
    if (rng->Bernoulli(0.5)) relay.spool = "/spool/\"" + rng->AlnumString(4);
    if (rng->Bernoulli(0.5)) relay.retry.retry_backoff = positive();
    if (rng->Bernoulli(0.5)) relay.retry.max_attempts = count();
    config.relays.push_back(std::move(relay));
  }
  DeliveryTuningSpec& d = config.delivery;
  if (rng->Bernoulli(0.7)) d.retry_backoff_min = duration();
  if (rng->Bernoulli(0.7)) d.retry_backoff_max = duration();
  if (rng->Bernoulli(0.7)) d.retry_multiplier = fine(1, 5);
  if (rng->Bernoulli(0.7)) d.retry_jitter = rng->Bernoulli(0.5);
  if (rng->Bernoulli(0.7)) d.max_attempts = count();
  if (rng->Bernoulli(0.7)) d.offline_after = count();
  if (rng->Bernoulli(0.7)) d.probe_interval = duration();
  if (rng->Bernoulli(0.7)) d.window = count() - 1;
  if (rng->Bernoulli(0.7)) d.coalesce_bytes = big();
  if (rng->Bernoulli(0.7)) d.cache_bytes = big();
  if (rng->Bernoulli(0.7)) d.receipt_group = count();
  if (rng->Bernoulli(0.7)) d.receipt_flush_interval = duration();
  IngestTuningSpec& in = config.ingest;
  if (rng->Bernoulli(0.7)) in.workers = count() - 1;
  if (rng->Bernoulli(0.7)) in.queue_depth = count();
  if (rng->Bernoulli(0.7)) in.batch = count();
  static const OverloadPolicy kPolicies[] = {OverloadPolicy::kBlock,
                                             OverloadPolicy::kShedOldest,
                                             OverloadPolicy::kSpillToDisk};
  if (rng->Bernoulli(0.7)) in.overload_policy = kPolicies[rng->Uniform(3)];
  AnalyzerTuningSpec& a = config.analyzer;
  if (rng->Bernoulli(0.7)) a.workers = count() - 1;
  if (rng->Bernoulli(0.7)) a.max_corpus = count();
  if (rng->Bernoulli(0.7)) a.shards = count();
  if (rng->Bernoulli(0.7)) a.cycle_interval = positive();
  if (rng->Bernoulli(0.7)) {
    config.receipts.shards = 1 + static_cast<int>(rng->Uniform(256));
  }
  static const IndexMode kModes[] = {IndexMode::kAutomaton,
                                     IndexMode::kPrefixIndex,
                                     IndexMode::kLinear};
  if (rng->Bernoulli(0.7)) config.classifier.mode = kModes[rng->Uniform(3)];
  ServerNetSpec& srv = config.server;
  if (rng->Bernoulli(0.7)) {
    srv.listen_address = "127.0.0.1:" + std::to_string(rng->Uniform(65536));
  }
  if (rng->Bernoulli(0.7)) srv.max_frame_bytes = 1 + big();
  if (rng->Bernoulli(0.7)) srv.outbound_queue_bytes = 1 + big();
  if (rng->Bernoulli(0.7)) srv.reconnect_backoff_min = positive();
  if (rng->Bernoulli(0.7)) srv.reconnect_backoff_max = positive();
  if (rng->Bernoulli(0.7)) srv.ack_timeout = positive();
  int peers = static_cast<int>(rng->Uniform(4));
  for (int p = 0; p < peers; ++p) {
    PeerSpec peer;
    peer.name = "peer" + std::to_string(p);
    peer.address = "10.0.0." + std::to_string(p) + ":4400";
    if (rng->Bernoulli(0.5)) {
      peer.shard_count = 1 + static_cast<int>(rng->Uniform(8));
      peer.shard_index = static_cast<int>(rng->Uniform(peer.shard_count));
      peer.replicas = 1 + static_cast<int>(rng->Uniform(peer.shard_count));
    } else if (rng->Bernoulli(0.5)) {
      peer.feeds = {pick_feed()};
    }
    if (peers > 1 && rng->Bernoulli(0.5)) {
      peer.failover = "peer" + std::to_string((p + 1) % peers);
    }
    PeerHealthSpec& health = peer.health;
    if (rng->Bernoulli(0.5)) health.probe_interval = positive();
    if (rng->Bernoulli(0.5)) health.suspect_after = 1 + count() / 2;
    if (rng->Bernoulli(0.5)) {
      health.down_after =
          health.suspect_after + static_cast<int>(rng->Uniform(1000));
    } else {
      // down_after at its default must still not undercut suspect_after.
      health.down_after = std::max(health.down_after, health.suspect_after);
    }
    if (rng->Bernoulli(0.5)) peer.window = duration();
    config.peers.push_back(std::move(peer));
  }
  static const char* kTransforms[] = {"none", "rle", "lz", "decompress"};
  static const char* kSlos[] = {"interactive", "standard", "bulk"};
  static const char* kEnrich[] = {"provenance", "checksum"};
  for (size_t f = 0; f < config.feeds.size(); ++f) {
    if (!rng->Bernoulli(0.5)) continue;
    PlanSpec plan;
    plan.feed = config.feeds[f].name;  // selectors stay distinct
    if (rng->Bernoulli(0.5)) plan.route = {"sub0", "grp1"};
    if (rng->Bernoulli(0.4)) {
      int first = 1 + static_cast<int>(rng->Uniform(98));
      plan.split = {{first, "arm_a"}, {100 - first, "arm_b"}};
    }
    if (rng->Bernoulli(0.5)) plan.replicate = count();
    if (rng->Bernoulli(0.5)) plan.sample = fine(1e-9, 100 - 1e-9);
    if (rng->Bernoulli(0.5)) plan.transform = kTransforms[rng->Uniform(4)];
    if (rng->Bernoulli(0.5)) plan.quota_files = 1 + big();
    if (rng->Bernoulli(0.5)) plan.quota_bytes = 1 + big();
    if ((plan.quota_files || plan.quota_bytes) && rng->Bernoulli(0.5)) {
      plan.quota_interval = positive();
    }
    if (rng->Bernoulli(0.5)) plan.slo = kSlos[rng->Uniform(3)];
    for (int e = static_cast<int>(rng->Uniform(3)); e > 0; --e) {
      plan.enrich.push_back(kEnrich[rng->Uniform(2)]);
    }
    // A plan must declare something.
    if (!plan.slo && plan.route.empty() && plan.split.empty()) {
      plan.slo = "bulk";
    }
    config.plans.push_back(std::move(plan));
  }
  return config;
}

class ConfigFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzzTest, FormatParseRoundTrip) {
  Rng rng(GetParam() * 101);
  for (int iter = 0; iter < 200; ++iter) {  // 1000 configs over 5 seeds
    ServerConfig config = RandomConfig(&rng);
    std::string text = FormatConfig(config);
    auto reparsed = ParseConfig(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
    EXPECT_EQ(*reparsed, config) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTest, ::testing::Range(1, 6));

// -------------------------------------------------------- generalization

class GeneralizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneralizePropertyTest, GeneralizedPatternAlwaysMatchesItsName) {
  Rng rng(GetParam() * 7 + 1);
  static const char* kSeps = "_-./";
  for (int iter = 0; iter < 200; ++iter) {
    // Random structured name: alternating word/number/separator runs.
    std::string name;
    int segments = 1 + static_cast<int>(rng.Uniform(8));
    for (int s = 0; s < segments; ++s) {
      if (s > 0) name += kSeps[rng.Uniform(4)];
      if (rng.Bernoulli(0.5)) {
        name += rng.AlnumString(1 + rng.Uniform(8));
      } else {
        name += std::to_string(rng.Uniform(100000000));
      }
    }
    std::string generalized = GeneralizeName(name);
    auto pattern = Pattern::Compile(generalized);
    ASSERT_TRUE(pattern.ok()) << name << " -> " << generalized;
    EXPECT_TRUE(pattern->Matches(name)) << name << " -> " << generalized;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizePropertyTest, ::testing::Range(1, 6));

// ------------------------------------------------------- discovery closure

class DiscoveryClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryClosureTest, DiscoveredPatternsCoverTheirClusters) {
  Rng rng(GetParam() * 31 + 7);
  // Corpus: several synthetic conventions with random literals.
  std::vector<FileObservation> corpus;
  int conventions = 2 + static_cast<int>(rng.Uniform(4));
  for (int c = 0; c < conventions; ++c) {
    std::string stem = ToUpper(rng.AlnumString(3 + rng.Uniform(5)));
    // Strip digits from the stem so conventions differ by alpha text.
    for (auto& ch : stem) {
      if (IsDigit(ch)) ch = 'X';
    }
    int files = 4 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < files; ++i) {
      CivilTime t{2010, 1 + (int)rng.Uniform(12), 1 + (int)rng.Uniform(28),
                  (int)rng.Uniform(24), (int)rng.Uniform(60), 0};
      corpus.push_back({StrFormat("%s_%llu_%04d%02d%02d%02d%02d.csv",
                                  stem.c_str(),
                                  (unsigned long long)rng.Uniform(5),
                                  t.year, t.month, t.day, t.hour, t.minute),
                        0});
    }
  }
  DiscoveryOptions options;
  options.min_support = 1;
  auto result = DiscoverFeeds(corpus, options);
  // Every observation matches at least one discovered pattern, and each
  // feed's pattern matches exactly file_count observations.
  std::vector<Pattern> compiled;
  std::vector<size_t> expected_counts;
  auto add = [&](const AtomicFeed& feed) {
    auto p = Pattern::Compile(feed.pattern);
    ASSERT_TRUE(p.ok()) << feed.pattern;
    compiled.push_back(std::move(*p));
    expected_counts.push_back(feed.file_count);
  };
  for (const auto& feed : result.feeds) add(feed);
  for (const auto& feed : result.outliers) add(feed);
  std::vector<size_t> counts(compiled.size(), 0);
  for (const auto& obs : corpus) {
    bool any = false;
    for (size_t i = 0; i < compiled.size(); ++i) {
      if (compiled[i].Matches(obs.name)) {
        counts[i]++;
        any = true;
      }
    }
    EXPECT_TRUE(any) << obs.name;
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], expected_counts[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryClosureTest, ::testing::Range(1, 6));

// ----------------------------------------------------------- crash points

class CrashPointTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointTest, AnyWalPrefixRecoversConsistently) {
  // Build a WAL of known operations, then truncate at every byte
  // boundary: recovery must always succeed and yield a state equal to
  // some prefix of the operation sequence.
  InMemoryFileSystem fs;
  KvStore::Options opts;
  opts.checkpoint_wal_bytes = 0;
  std::vector<std::pair<std::string, std::optional<std::string>>> ops;
  Rng rng(GetParam() * 13);
  {
    auto store = KvStore::Open(&fs, "/db", opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 30; ++i) {
      std::string key = "k" + std::to_string(rng.Uniform(10));
      if (rng.Bernoulli(0.7)) {
        std::string value = rng.AlnumString(1 + rng.Uniform(20));
        ASSERT_TRUE((*store)->Put(key, value).ok());
        ops.emplace_back(key, value);
      } else {
        ASSERT_TRUE((*store)->Delete(key).ok());
        ops.emplace_back(key, std::nullopt);
      }
    }
  }
  std::string wal = *fs.ReadFile("/db/wal.log");
  // All states reachable by applying op prefixes.
  std::set<std::string> reachable;
  {
    std::map<std::string, std::string> state;
    auto encode = [&] {
      std::string s;
      for (auto& [k, v] : state) s += k + "=" + v + ";";
      return s;
    };
    reachable.insert(encode());
    for (auto& [k, v] : ops) {
      if (v.has_value()) {
        state[k] = *v;
      } else {
        state.erase(k);
      }
      reachable.insert(encode());
    }
  }
  for (size_t cut = 0; cut <= wal.size(); cut += 1 + rng.Uniform(5)) {
    InMemoryFileSystem crashed;
    ASSERT_TRUE(
        crashed.WriteFile("/db/wal.log", std::string_view(wal).substr(0, cut))
            .ok());
    auto store = KvStore::Open(&crashed, "/db", opts);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.status();
    std::string s;
    for (auto& [k, v] : (*store)->ScanPrefix("")) s += k + "=" + v + ";";
    EXPECT_TRUE(reachable.count(s)) << "cut=" << cut << " state=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointTest, ::testing::Range(1, 5));

// ------------------------------------------------------------ frame fuzz
//
// The frame decoders parse bytes straight off a TCP socket, so hostile
// input must produce a clean Corruption — never a crash, never an
// allocation sized by an attacker-controlled header.

Message RandomMessage(Rng* rng) {
  Message msg;
  msg.type = static_cast<MessageType>(1 + rng->Uniform(6));
  msg.file_id = rng->Uniform(1u << 20);
  msg.feed = "FEED." + rng->AlnumString(1 + rng->Uniform(8));
  msg.name = rng->AlnumString(rng->Uniform(24));
  msg.dest_path = "/dest/" + rng->AlnumString(rng->Uniform(12));
  msg.payload = rng->AlnumString(rng->Uniform(512));
  msg.payload_crc = static_cast<uint32_t>(rng->Uniform(1u << 31));
  msg.data_time = static_cast<TimePoint>(rng->Uniform(1u << 30)) - (1 << 29);
  msg.batch_time = static_cast<TimePoint>(rng->Uniform(1u << 30));
  msg.batch_count = rng->Uniform(100);
  msg.net_seq = rng->Uniform(1u << 24);
  msg.ack_code = static_cast<uint32_t>(rng->Uniform(16));
  return msg;
}

class FrameFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FrameFuzzTest, MessagesRoundTripThroughChunkedStream) {
  Rng rng(GetParam() * 101);
  std::vector<Message> sent;
  for (int i = 0; i < 20; ++i) sent.push_back(RandomMessage(&rng));
  std::string wire = EncodeMessageStream(sent);
  // Feed the stream in random-sized chunks, as a socket would deliver it.
  MessageStreamDecoder decoder;
  size_t off = 0;
  while (off < wire.size()) {
    size_t n = std::min<size_t>(1 + rng.Uniform(97), wire.size() - off);
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(off, n)).ok());
    off += n;
  }
  for (const Message& expect : sent) {
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expect);  // includes net_seq / ack_code
  }
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST_P(FrameFuzzTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(GetParam() * 211);
  for (int round = 0; round < 200; ++round) {
    std::string junk;
    size_t len = rng.Uniform(200);
    junk.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(256)));
    }
    // Either outcome (ok or error) is acceptable; what matters is a clean
    // return on arbitrary bytes.
    (void)DecodeMessage(junk);
    (void)DecodeBundle(junk);
    MessageStreamDecoder decoder;
    (void)decoder.Feed(junk);
  }
}

TEST_P(FrameFuzzTest, BitFlipsAreDetectedOrYieldAValidParse) {
  Rng rng(GetParam() * 307);
  for (int round = 0; round < 100; ++round) {
    std::string wire = EncodeMessage(RandomMessage(&rng));
    size_t pos = rng.Uniform(wire.size());
    wire[pos] = static_cast<char>(
        static_cast<uint8_t>(wire[pos]) ^ (1u << rng.Uniform(8)));
    auto decoded = DecodeMessage(wire);
    // A flip in the varint length prefix can reshape the frame arbitrarily;
    // everywhere else the frame CRC catches it, except inside the payload
    // of a frame that carries payload_crc, which decodes and is left to
    // the endpoint's VerifyPayloadCrc (see the test below). Either way:
    // clean status, no crash, and errors are Corruption (retry machinery
    // treats them as poison, not transient).
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
    }
  }
}

// ProtocolTest's "never a silent wrong message", end to end: with the
// true payload_crc on board (as the delivery engine always sends it), no
// single bit flip anywhere in a frame yields a message that both decodes
// and passes the endpoint's payload check yet differs from the one sent.
TEST_P(FrameFuzzTest, BitFlipsNeverPassDecodeAndPayloadCheckAsAWrongMessage) {
  Rng rng(GetParam() * 401);
  for (int round = 0; round < 100; ++round) {
    Message sent = RandomMessage(&rng);
    sent.payload_crc = Crc32(sent.payload);
    std::string wire = EncodeMessage(sent);
    for (int flip = 0; flip < 20; ++flip) {
      std::string bad = wire;
      size_t pos = rng.Uniform(bad.size());
      bad[pos] = static_cast<char>(static_cast<uint8_t>(bad[pos]) ^
                                   (1u << rng.Uniform(8)));
      auto decoded = DecodeMessage(bad);
      if (!decoded.ok()) {
        EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
        continue;
      }
      if (VerifyPayloadCrc(*decoded).ok()) {
        EXPECT_EQ(*decoded, sent) << "silent wrong message, flip at " << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest, ::testing::Range(1, 5));

// ------------------------------------------------------------ codec fuzz
//
// Staged and warehoused files are expanded by AutoDecompress, and a
// feed's landing zone can hold anything. Damaged codec frames must come
// back as Corruption — never a crash, never an allocation sized by the
// header alone, and never OK with bytes other than the ones compressed.

std::string RandomCodecInput(Rng* rng) {
  const size_t n = rng->Uniform(8192);
  std::string out;
  switch (rng->Uniform(3)) {
    case 0:  // measurement rows
      while (out.size() < n) {
        out += "host" + std::to_string(rng->Uniform(200)) + ",cpu," +
               std::to_string(rng->Uniform(10000000000ull)) + "\n";
      }
      break;
    case 1:  // runs
      while (out.size() < n) {
        out.append(1 + rng->Uniform(300),
                   static_cast<char>('a' + rng->Uniform(3)));
      }
      break;
    default:
      while (out.size() < n) out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  out.resize(n);
  return out;
}

/// `frame` with its declared original size replaced by `size`.
std::string WithDeclaredSize(const std::string& frame, uint64_t size) {
  size_t varint_end = 5;
  while (static_cast<uint8_t>(frame[varint_end]) & 0x80) ++varint_end;
  std::string out = frame.substr(0, 5);
  for (; size >= 0x80; size >>= 7) {
    out.push_back(static_cast<char>((size & 0x7F) | 0x80));
  }
  out.push_back(static_cast<char>(size));
  return out + frame.substr(varint_end + 1);
}

/// AutoDecompress of a damaged frame: Corruption, or exactly `original`.
/// Damage to the magic makes it plain data, which passes through as is.
void ExpectCorruptionOrOriginal(const std::string& damaged,
                                const std::string& original,
                                const std::string& what) {
  auto out = AutoDecompress(damaged);
  if (!HasCodecFrame(damaged)) {
    ASSERT_TRUE(out.ok()) << what;
    EXPECT_EQ(*out, damaged) << what;
  } else if (out.ok()) {
    EXPECT_EQ(*out, original) << "wrong bytes returned as OK: " << what;
  } else {
    EXPECT_TRUE(out.status().IsCorruption()) << what << ": " << out.status();
  }
}

class CodecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzzTest, BitFlipsAreCorruptionOrTheOriginalBytes) {
  Rng rng(GetParam() * 503);
  for (int round = 0; round < 60; ++round) {
    const std::string input = RandomCodecInput(&rng);
    for (CodecKind kind : {CodecKind::kLz, CodecKind::kRle}) {
      const std::string frame = GetCodec(kind)->Compress(input);
      for (int trial = 0; trial < 10; ++trial) {
        std::string bad = frame;
        const int flips = 1 + static_cast<int>(rng.Uniform(3));
        for (int f = 0; f < flips; ++f) {
          const size_t pos = rng.Uniform(bad.size());
          bad[pos] = static_cast<char>(static_cast<uint8_t>(bad[pos]) ^
                                       (1u << rng.Uniform(8)));
        }
        ExpectCorruptionOrOriginal(bad, input,
                                   std::string(CodecKindName(kind)) + " flip");
      }
    }
  }
}

TEST_P(CodecFuzzTest, TruncatedFramesAreCorruption) {
  Rng rng(GetParam() * 509);
  for (int round = 0; round < 60; ++round) {
    const std::string input = RandomCodecInput(&rng);
    for (CodecKind kind : {CodecKind::kLz, CodecKind::kRle}) {
      const std::string frame = GetCodec(kind)->Compress(input);
      for (int trial = 0; trial < 5; ++trial) {
        const std::string cut = frame.substr(0, rng.Uniform(frame.size()));
        auto out = AutoDecompress(cut);
        if (!HasCodecFrame(cut)) continue;  // too short to be a frame
        ASSERT_FALSE(out.ok()) << CodecKindName(kind) << " cut at "
                               << cut.size() << " of " << frame.size();
        EXPECT_TRUE(out.status().IsCorruption()) << out.status();
      }
    }
  }
}

TEST_P(CodecFuzzTest, RandomDeclaredSizesAreCorruption) {
  Rng rng(GetParam() * 521);
  for (int round = 0; round < 60; ++round) {
    const std::string input = RandomCodecInput(&rng);
    for (CodecKind kind : {CodecKind::kLz, CodecKind::kRle}) {
      const std::string frame = GetCodec(kind)->Compress(input);
      for (int trial = 0; trial < 10; ++trial) {
        uint64_t size;
        switch (rng.Uniform(3)) {
          case 0:  // near the truth
            size = input.size() + rng.Uniform(64) - 32;
            break;
          case 1:  // one power of two, up to 2^63
            size = uint64_t{1} << rng.Uniform(64);
            break;
          default:
            size = rng.Next();
        }
        if (size == input.size()) continue;
        auto out = AutoDecompress(WithDeclaredSize(frame, size));
        ASSERT_FALSE(out.ok()) << CodecKindName(kind) << " declared " << size;
        EXPECT_TRUE(out.status().IsCorruption()) << out.status();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Range(1, 5));

TEST(FrameHardeningTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // 10-byte varint claiming ~UINT64_MAX for the body length.
  std::string hostile;
  for (int i = 0; i < 9; ++i) hostile.push_back(static_cast<char>(0xFF));
  hostile.push_back(0x01);
  hostile.append(4, '\0');  // "CRC"
  auto decoded = DecodeMessage(hostile);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());

  MessageStreamDecoder decoder;
  EXPECT_FALSE(decoder.Feed(hostile).ok());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_TRUE(decoder.status().IsCorruption());
}

TEST(FrameHardeningTest, FrameOverConfiguredBoundPoisonsTheStream) {
  Message big;
  big.type = MessageType::kFileData;
  big.payload = std::string(4096, 'x');
  std::string wire = EncodeMessage(big);
  MessageStreamDecoder small(/*max_frame_bytes=*/1024);
  EXPECT_FALSE(small.Feed(wire).ok());
  EXPECT_TRUE(small.poisoned());
  // The same frame is fine for a decoder with the default bound.
  MessageStreamDecoder normal;
  ASSERT_TRUE(normal.Feed(wire).ok());
  auto got = normal.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST(FrameHardeningTest, HostileBundleCountIsRejectedBeforeAllocation) {
  // Varint count of ~2^60 followed by almost no data: must be rejected
  // without reserving 2^60 slots.
  std::string hostile;
  for (int i = 0; i < 8; ++i) hostile.push_back(static_cast<char>(0xFF));
  hostile.push_back(0x0F);
  hostile += "xx";
  auto decoded = DecodeBundle(hostile);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());

  // A count that is merely wrong (but small) still errors cleanly.
  std::string wrong_count;
  wrong_count.push_back(5);
  auto few = DecodeBundle(wrong_count);
  EXPECT_FALSE(few.ok());
}

TEST(FrameHardeningTest, TruncatedFramesWaitRatherThanError) {
  // A prefix of a valid frame is not corruption for the stream decoder —
  // more bytes may arrive. Only a complete-but-bad frame poisons.
  Rng rng(99);
  Message msg = RandomMessage(&rng);
  std::string wire = EncodeMessage(msg);
  for (size_t cut = 0; cut + 1 < wire.size(); cut += 7) {
    MessageStreamDecoder decoder;
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(0, cut)).ok());
    EXPECT_FALSE(decoder.Next().has_value());
    // Completing the frame yields the message.
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(cut)).ok());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, msg);
  }
}

}  // namespace
}  // namespace bistro
