#ifndef BISTRO_CONFIG_PARSER_H_
#define BISTRO_CONFIG_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "config/spec.h"

namespace bistro {

/// Parses the Bistro configuration language (paper §3.1): a sequence of
/// top-level blocks
///
///   feed NAME { ... }          group NAME { ... }    subscriber NAME { ... }
///   plan FEED-OR-GROUP { ... } relay NAME { ... }    peer NAME { ... }
///   delivery { ... }   ingest { ... }   analyzer { ... }
///   classifier { ... } receipts { ... } server { ... }
///
/// whose bodies are `KEY VALUE;` statements. A `group` holding nested
/// `feed`/`group` blocks is a feed-hierarchy prefix; one holding
/// subscriber-group keys is a subscriber group. The keys of each block,
/// their value kinds and bounds are the key table in config/parser.cc;
/// docs/OPERATIONS.md documents every key (config_docs_test checks it).
///
/// NAME is dotted inside `feeds` lists ("SNMP.CPU"); `#` starts a
/// line comment; strings are double-quoted with \" and \\ escapes.
///
/// Feed patterns are compiled during parsing so configuration errors are
/// caught at load time, not at classification time.
Result<ServerConfig> ParseConfig(std::string_view text);

/// Serializes a config back to the configuration language (round-trips
/// through ParseConfig). Useful for emitting analyzer-suggested configs.
std::string FormatConfig(const ServerConfig& config);

/// One key of the language as the parser's key table declares it: its
/// block, its name, the fixed words its value may use (enum values and
/// keywords of its own syntax, such as the "of" in `shard 0 of 2`), and
/// its default written as FormatConfig writes values ("" when the key
/// has none: required, unset or of a syntax of its own).
struct ConfigKey {
  std::string block;
  std::string key;
  std::vector<std::string> words;
  std::string default_value;
};

/// Every key ParseConfig accepts, block by block.
std::vector<ConfigKey> ConfigKeys();

}  // namespace bistro

#endif  // BISTRO_CONFIG_PARSER_H_
