// Keeps the operator documentation honest: every ```bistro fenced snippet
// in docs/ must parse with the real config parser, every ```bistro-fault
// snippet with the real fault-plan parser, configs/example.conf must load
// and round-trip, and OPERATIONS.md must mention every key the parser
// accepts — so neither the docs nor the example can silently rot.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/parser.h"
#include "fault/plan.h"

namespace bistro {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string DocPath(const char* rel) {
  return std::string(BISTRO_REPO_ROOT) + "/" + rel;
}

struct Snippet {
  int line = 0;  // line of the opening fence, for failure messages
  std::string text;
};

// Extracts fenced code blocks whose info string is exactly `tag`.
std::vector<Snippet> ExtractFenced(const std::string& markdown,
                                   const std::string& tag) {
  std::vector<Snippet> out;
  std::istringstream in(markdown);
  std::string line;
  int lineno = 0;
  const std::string open = "```" + tag;
  bool in_block = false;
  Snippet current;
  while (std::getline(in, line)) {
    ++lineno;
    if (!in_block) {
      if (line == open) {
        in_block = true;
        current = Snippet{lineno, ""};
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      out.push_back(std::move(current));
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated ```" << tag << " fence";
  return out;
}

void ExpectDocConfigsParse(const char* rel, size_t min_blocks) {
  const std::string doc = ReadFileOrDie(DocPath(rel));
  const std::vector<Snippet> snippets = ExtractFenced(doc, "bistro");
  EXPECT_GE(snippets.size(), min_blocks)
      << rel << ": fence extraction found fewer ```bistro blocks than "
      << "expected — did the tag convention change?";
  for (const Snippet& s : snippets) {
    auto config = ParseConfig(s.text);
    EXPECT_TRUE(config.ok()) << rel << " snippet at line " << s.line
                             << " does not parse: "
                             << config.status().message() << "\n"
                             << s.text;
  }
}

TEST(ConfigDocsTest, ExampleConfParsesAndRoundTrips) {
  const std::string text = ReadFileOrDie(DocPath("configs/example.conf"));
  auto config = ParseConfig(text);
  ASSERT_TRUE(config.ok()) << config.status().message();
  EXPECT_FALSE(config->feeds.empty());
  EXPECT_FALSE(config->subscribers.empty());

  auto reparsed = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(FormatConfig(*config), FormatConfig(*reparsed));
}

TEST(ConfigDocsTest, OperationsSnippetsParse) {
  ExpectDocConfigsParse("docs/OPERATIONS.md", 4);
}

TEST(ConfigDocsTest, PatternsSnippetsParse) {
  ExpectDocConfigsParse("docs/PATTERNS.md", 3);
}

// The ingestion-plan operator guide: the opening grammar block plus the
// four worked recipes (multi-tenant quota, A/B split, archival vs
// real-time, sampled feed) must all go through the real parser.
TEST(ConfigDocsTest, PlansSnippetsParse) {
  ExpectDocConfigsParse("docs/PLANS.md", 5);
}

// The ingestion-plan guide documents every plan key and every fixed word
// those keys take, straight from the parser's key table.
TEST(ConfigDocsTest, PlansGuideCoversEveryPlanKey) {
  const std::string doc = ReadFileOrDie(DocPath("docs/PLANS.md"));
  EXPECT_NE(doc.find("`plan"), std::string::npos);
  for (const ConfigKey& key : ConfigKeys()) {
    if (key.block != "plan") continue;
    EXPECT_NE(doc.find("`" + key.key), std::string::npos)
        << "docs/PLANS.md never mentions plan key '" << key.key << "'";
    for (const std::string& word : key.words) {
      EXPECT_NE(doc.find(word), std::string::npos)
          << "docs/PLANS.md never mentions '" << word << "' of plan key '"
          << key.key << "'";
    }
  }
}

TEST(ConfigDocsTest, OperationsFaultSnippetsParse) {
  const std::string doc = ReadFileOrDie(DocPath("docs/OPERATIONS.md"));
  const std::vector<Snippet> snippets = ExtractFenced(doc, "bistro-fault");
  EXPECT_GE(snippets.size(), 1u);
  for (const Snippet& s : snippets) {
    auto plan = ParseFaultPlan(s.text);
    EXPECT_TRUE(plan.ok()) << "OPERATIONS.md fault snippet at line " << s.line
                           << " does not parse: " << plan.status().message()
                           << "\n"
                           << s.text;
  }
}

TEST(ConfigDocsTest, OperationsCoversEveryParserKey) {
  const std::string doc = ReadFileOrDie(DocPath("docs/OPERATIONS.md"));
  // Every block, key and fixed value word of the config language, from
  // the parser's key table: adding a key without documenting it fails
  // here. Blocks and keys must appear as `code`.
  for (const ConfigKey& key : ConfigKeys()) {
    EXPECT_NE(doc.find("`" + key.block), std::string::npos)
        << "docs/OPERATIONS.md never mentions block '" << key.block << "'";
    EXPECT_NE(doc.find("`" + key.key + "`"), std::string::npos)
        << "docs/OPERATIONS.md never mentions " << key.block << " key '"
        << key.key << "'";
    for (const std::string& word : key.words) {
      EXPECT_NE(doc.find(word), std::string::npos)
          << "docs/OPERATIONS.md never mentions '" << word << "' of "
          << key.block << " key '" << key.key << "'";
    }
  }
  // Fault-plan keywords (mirrors src/fault/plan.cc).
  const char* kFaultKeys[] = {
      "fault_plan", "seed", "write_error", "torn_write", "sync_error",
      "scope", "send_failure", "corrupt", "ack_loss", "flap", "degrade",
      // network-partition link directives
      "partition", "blackhole", "slow_link", "heal", "at",
  };
  for (const char* key : kFaultKeys) {
    EXPECT_NE(doc.find(key), std::string::npos)
        << "docs/OPERATIONS.md never mentions fault-plan key '" << key << "'";
  }
}

}  // namespace
}  // namespace bistro
