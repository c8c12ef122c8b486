// Tests for the feed classifier: correctness of file-to-feed matching,
// multi-feed membership, unmatched routing, and equivalence of the
// prefix-index and linear strategies.

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"

namespace bistro {
namespace {

std::unique_ptr<FeedRegistry> MustRegistry(std::string_view text) {
  auto config = ParseConfig(text);
  EXPECT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  EXPECT_TRUE(registry.ok()) << registry.status();
  return std::move(*registry);
}

constexpr char kConfig[] = R"(
group SNMP {
  feed CPU    { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
  feed MEMORY { pattern "MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz"; }
  feed BPS    { pattern "BPS_%s_%Y%m%d%H.csv"; }
}
feed ALL_TXT  { pattern "%s.txt"; }
)";

TEST(ClassifierTest, MatchesPaperExamples) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("MEMORY_POLLER1_2010092504_51.csv.gz");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.feeds, std::vector<FeedName>{"SNMP.MEMORY"});
  EXPECT_EQ(c.primary_match.ints[0], 1);
  ASSERT_TRUE(c.primary_match.timestamp.has_value());
  EXPECT_EQ(*c.primary_match.timestamp,
            FromCivil(CivilTime{2010, 9, 25, 4, 51, 0}));
}

TEST(ClassifierTest, FileCanBelongToMultipleFeeds) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("CPU_POLL2_201009250503.txt");
  ASSERT_TRUE(c.matched());
  // Matches both SNMP.CPU and the catch-all ALL_TXT.
  EXPECT_EQ(c.feeds.size(), 2u);
}

TEST(ClassifierTest, UnmatchedFilesReported) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("random_junk.dat");
  EXPECT_FALSE(c.matched());
  EXPECT_EQ(classifier.stats().unmatched, 1u);
  EXPECT_EQ(classifier.stats().files, 1u);
}

TEST(ClassifierTest, PrefixIndexPrunesCandidates) {
  // Build many feeds with distinct literal prefixes; the indexed
  // classifier should try far fewer patterns per file than linear.
  std::string config;
  for (int i = 0; i < 100; ++i) {
    config += StrFormat("feed F%03d { pattern \"feed%03d_x_%%Y%%m%%d.csv\"; }\n", i, i);
  }
  auto registry = MustRegistry(config);
  FeedClassifier indexed(registry.get(), FeedClassifier::IndexMode::kPrefixIndex);
  FeedClassifier linear(registry.get(), FeedClassifier::IndexMode::kLinear);
  auto ci = indexed.Classify("feed042_x_20101230.csv");
  auto cl = linear.Classify("feed042_x_20101230.csv");
  ASSERT_TRUE(ci.matched());
  ASSERT_TRUE(cl.matched());
  EXPECT_EQ(ci.feeds, cl.feeds);
  EXPECT_LT(indexed.stats().candidate_checks, 5u);
  EXPECT_EQ(linear.stats().candidate_checks, 100u);
}

TEST(ClassifierTest, IndexAndLinearAgreeOnRandomNames) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier indexed(registry.get(), FeedClassifier::IndexMode::kPrefixIndex);
  FeedClassifier linear(registry.get(), FeedClassifier::IndexMode::kLinear);
  Rng rng(99);
  std::vector<std::string> names = {
      "CPU_POLL1_201009250502.txt",
      "MEMORY_POLLER2_2010092510_02.csv.gz",
      "BPS_routerA_2010093011.csv",
      "readme.txt",
      "BPS_.csv",
      "",
      "CPU_POLL_201009250502.txt",
  };
  for (int i = 0; i < 200; ++i) {
    names.push_back(rng.AlnumString(rng.Uniform(30)));
    names.push_back("CPU_POLL" + std::to_string(rng.Uniform(100)) + "_" +
                    "201009250" + std::to_string(rng.Uniform(10)) + "0" +
                    std::to_string(rng.Uniform(6)) + ".txt");
  }
  for (const auto& name : names) {
    auto ci = indexed.Classify(name);
    auto cl = linear.Classify(name);
    EXPECT_EQ(ci.feeds, cl.feeds) << name;
  }
}

TEST(ClassifierTest, RebuildPicksUpFeedRevisions) {
  auto registry = MustRegistry(R"(feed F { pattern "old_%i.log"; })");
  FeedClassifier classifier(registry.get());
  EXPECT_TRUE(classifier.Classify("old_1.log").matched());
  EXPECT_FALSE(classifier.Classify("new_1.log").matched());
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i.log";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  classifier.Rebuild();
  EXPECT_FALSE(classifier.Classify("old_1.log").matched());
  EXPECT_TRUE(classifier.Classify("new_1.log").matched());
}

TEST(ClassifierTest, EmptyPrefixPatternsAlwaysChecked) {
  auto registry = MustRegistry(R"(
feed CATCHALL { pattern "%s.gz"; }
feed SPECIFIC { pattern "exact_%i.gz"; }
)");
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("exact_7.gz");
  EXPECT_EQ(c.feeds.size(), 2u);
  auto c2 = classifier.Classify("anything.gz");
  EXPECT_EQ(c2.feeds, std::vector<FeedName>{"CATCHALL"});
}

TEST(ClassifierTest, AutomatonAgreesWithLinearOnRandomNames) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier automaton(registry.get(),
                           FeedClassifier::IndexMode::kAutomaton);
  FeedClassifier linear(registry.get(), FeedClassifier::IndexMode::kLinear);
  Rng rng(7);
  std::vector<std::string> names = {
      "CPU_POLL1_201009250502.txt",
      "MEMORY_POLLER2_2010092510_02.csv.gz",
      "BPS_routerA_2010093011.csv",
      "readme.txt",
      "BPS_.csv",
      "",
      "CPU_POLL_201009250502.txt",
      "CPU_POLL1_201013250502.txt",  // month 13: digit classes must reject
      "CPU_POLL1_201009250562.txt",  // minute 62
  };
  for (int i = 0; i < 300; ++i) {
    names.push_back(rng.AlnumString(rng.Uniform(30)));
    names.push_back("CPU_POLL" + std::to_string(rng.Uniform(100)) + "_" +
                    "201009250" + std::to_string(rng.Uniform(10)) + "0" +
                    std::to_string(rng.Uniform(6)) + ".txt");
  }
  for (const auto& name : names) {
    auto ca = automaton.Classify(name);
    auto cl = linear.Classify(name);
    EXPECT_EQ(ca.feeds, cl.feeds) << name;
    EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
    EXPECT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
    EXPECT_EQ(ca.primary_match.timestamp, cl.primary_match.timestamp) << name;
  }
}

TEST(ClassifierTest, AutomatonSkipsCandidateChecks) {
  // The fused scan decides membership in one pass: no per-pattern match
  // attempts are charged for either accepted or rejected names (the one
  // extraction probe on the primary pattern is not a candidate check).
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get(),
                            FeedClassifier::IndexMode::kAutomaton);
  ASSERT_TRUE(classifier.Classify("CPU_POLL1_201009250502.txt").matched());
  ASSERT_FALSE(classifier.Classify("random_junk.dat").matched());
  EXPECT_EQ(classifier.stats().candidate_checks, 0u);
}

TEST(ClassifierTest, AutomatonLazyRebuildTracksRegistryVersion) {
  // No explicit Rebuild(): Classify notices the registry version bump
  // and recompiles the snapshot on the next call.
  auto registry = MustRegistry(R"(feed F { pattern "old_%i.log"; })");
  FeedClassifier classifier(registry.get(),
                            FeedClassifier::IndexMode::kAutomaton);
  EXPECT_TRUE(classifier.Classify("old_1.log").matched());
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i.log";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  EXPECT_FALSE(classifier.Classify("old_1.log").matched());
  EXPECT_TRUE(classifier.Classify("new_1.log").matched());
}

TEST(ClassifierTest, AutomatonHandlesPercentLiteralAndPrefixlessPatterns) {
  auto registry = MustRegistry(R"(
feed PCT    { pattern "disk_%%full_%i.log"; }
feed NOPREF { pattern "%s_POLL%i.csv"; }
)");
  FeedClassifier automaton(registry.get(),
                           FeedClassifier::IndexMode::kAutomaton);
  FeedClassifier linear(registry.get(), FeedClassifier::IndexMode::kLinear);
  for (const char* name :
       {"disk_%full_9.log", "disk_full_9.log", "router_POLL3.csv",
        "a_b_POLL12.csv", "_POLL1.csv", "POLL1.csv"}) {
    auto ca = automaton.Classify(name);
    auto cl = linear.Classify(name);
    EXPECT_EQ(ca.feeds, cl.feeds) << name;
    EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
    EXPECT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
  }
  auto c = automaton.Classify("disk_%full_9.log");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.primary_match.ints, std::vector<int64_t>{9});
}

TEST(ClassifierTest, AutomatonOverlapKeepsLinearFeedOrder) {
  auto registry = MustRegistry(R"(
feed WIDE   { pattern "%s.txt"; }
feed MID    { pattern "log_%s.txt"; }
feed EXACT  { pattern "log_%i.txt"; }
)");
  FeedClassifier automaton(registry.get(),
                           FeedClassifier::IndexMode::kAutomaton);
  FeedClassifier linear(registry.get(), FeedClassifier::IndexMode::kLinear);
  auto ca = automaton.Classify("log_42.txt");
  auto cl = linear.Classify("log_42.txt");
  ASSERT_EQ(ca.feeds.size(), 3u);
  EXPECT_EQ(ca.feeds, cl.feeds);
  // Extraction comes from the first matching feed's pattern, as in
  // linear mode: WIDE's %s captures "log_42".
  EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings);
}

TEST(ClassifierTest, LongDigitRunsReverifyAgainstExactMatcher) {
  // The DFA's %i loop accepts any digit run, but Pattern::Match refuses
  // spans whose value overflows int64. Runs of >= 19 digits trip the
  // scan's verify flag and fall back to the exact matcher.
  auto registry = MustRegistry(R"(feed F { pattern "n_%i.log"; })");
  FeedClassifier classifier(registry.get(),
                            FeedClassifier::IndexMode::kAutomaton);
  // 25 ones: every suffix split overflows or breaks the literal tail.
  EXPECT_FALSE(
      classifier.Classify("n_1111111111111111111111111.log").matched());
  // Same length but value 1: leading zeros keep it in range.
  auto c = classifier.Classify("n_0000000000000000000000001.log");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.primary_match.ints, std::vector<int64_t>{1});
  // The verify path charges candidate checks; the fast path never does.
  EXPECT_GT(classifier.stats().candidate_checks, 0u);
}

TEST(ClassifierTest, IndexModeNamesRoundTrip) {
  // IndexModeName writes the word `classifier { mode; }` reads back.
  for (auto mode : {FeedClassifier::IndexMode::kLinear,
                    FeedClassifier::IndexMode::kPrefixIndex,
                    FeedClassifier::IndexMode::kAutomaton}) {
    auto parsed = ParseConfig("classifier { mode " +
                              std::string(IndexModeName(mode)) + "; }");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->classifier.mode, mode);
  }
  EXPECT_FALSE(ParseConfig("classifier { mode bogus; }").ok());
}

TEST(ClassifierTest, AutomatonStatsAreExposed) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get(),
                            FeedClassifier::IndexMode::kAutomaton);
  classifier.Rebuild();
  auto snapshot = classifier.automaton();
  ASSERT_NE(snapshot, nullptr);
  const AutomatonStats& stats = snapshot->stats();
  EXPECT_EQ(stats.patterns, 4u);
  EXPECT_GT(stats.dfa_states, 1u);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_EQ(stats.dense_rows + stats.sparse_rows, stats.dfa_states);
  EXPECT_EQ(snapshot->feed_count(), 4u);
}

}  // namespace
}  // namespace bistro
