// Keeps the operator documentation honest: every ```bistro fenced snippet
// in docs/ must parse with the real config parser, every ```bistro-fault
// snippet with the real fault-plan parser, configs/example.conf must load
// and round-trip, and OPERATIONS.md must mention every key the parser
// accepts and quote each key's compiled default — so neither the docs
// nor the example can silently rot.

#include <fstream>
#include <map>
#include <set>
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

// The `| key | type | default | meaning |` rows of OPERATIONS.md, per
// block: a `#` section whose heading names a block in code ("`delivery {",
// "`peer <name>") owns the key tables that follow it. Maps block -> key
// -> the row's default cell.
std::map<std::string, std::map<std::string, std::string>> DocumentedDefaults(
    const std::string& doc) {
  std::map<std::string, std::map<std::string, std::string>> out;
  std::istringstream in(doc);
  std::string line, block;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      block.clear();
      size_t tick = line.find('`');
      if (tick != std::string::npos) {
        size_t end = line.find_first_of(" `", tick + 1);
        block = line.substr(tick + 1, end - tick - 1);
      }
    } else if (!block.empty() && line.rfind("| `", 0) == 0) {
      // | `key` | type | default | meaning |
      std::vector<std::string> cells;
      std::istringstream row(line.substr(1));
      std::string cell;
      while (std::getline(row, cell, '|')) cells.push_back(cell);
      if (cells.size() < 3) continue;
      size_t open = cells[0].find('`');
      size_t close = cells[0].find('`', open + 1);
      out[block][cells[0].substr(open + 1, close - open - 1)] = cells[2];
    }
  }
  return out;
}

// Each key has exactly one default, written once in its spec.h struct;
// the key table reports it, and the operator reference must quote that
// literal — the first `code` span of the key's default cell.
TEST(ConfigDocsTest, OperationsDefaultsMatchCompiledDefaults) {
  const auto documented =
      DocumentedDefaults(ReadFileOrDie(DocPath("docs/OPERATIONS.md")));
  // Defaults a caller computes: bistrod places a relay's spool under its
  // root, and `--listen` overrides the server's listen address.
  const std::set<std::string> kComputed = {"relay.spool", "server.listen"};
  std::set<std::string> checked_blocks;
  for (const ConfigKey& key : ConfigKeys()) {
    const std::string name = key.block + "." + key.key;
    auto block = documented.find(key.block);
    if (key.default_value.empty() || kComputed.count(name) ||
        block == documented.end()) {
      continue;
    }
    checked_blocks.insert(key.block);
    auto row = block->second.find(key.key);
    if (row == block->second.end()) {
      ADD_FAILURE() << "docs/OPERATIONS.md has no table row for " << name;
      continue;
    }
    const std::string& cell = row->second;
    size_t open = cell.find('`');
    size_t close = open == std::string::npos ? open : cell.find('`', open + 1);
    std::string literal = close == std::string::npos
                              ? cell
                              : cell.substr(open + 1, close - open - 1);
    EXPECT_EQ(literal, key.default_value)
        << "docs/OPERATIONS.md documents the default of " << name << " as "
        << cell << "; the parser's default is " << key.default_value;
  }
  // Every tuning block has its own section with a key table.
  for (const char* block : {"delivery", "ingest", "analyzer", "receipts",
                            "classifier", "server", "peer", "relay",
                            "group"}) {
    EXPECT_TRUE(checked_blocks.count(block))
        << "no default of block '" << block << "' was checked";
  }
}

}  // namespace
}  // namespace bistro
