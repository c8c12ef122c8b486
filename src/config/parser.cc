#include "config/parser.h"

#include <algorithm>
#include <climits>
#include <limits>
#include <map>
#include <ranges>
#include <set>
#include <type_traits>

#include "common/strings.h"
#include "config/syntax.h"
#include "pattern/pattern.h"

namespace bistro {

namespace {

// Every key of the language is one row of Table(): its block, the kind
// of value it takes, where the value lands in the block's spec.h struct,
// and its bounds. One generic loop parses, validates and formats every
// row. A key's default is its value in a default-constructed spec, and
// FormatConfig omits a field that still holds it. Keys with syntax of
// their own point at a parse/format handler pair.

enum class Block {
  kFeed, kSubscriber, kGroup, kDelivery, kIngest, kAnalyzer, kReceipts,
  kClassifier, kPlan, kServer, kPeer, kRelay,
};
constexpr const char* kBlockNames[] = {
    "feed",     "subscriber", "group", "delivery", "ingest", "analyzer",
    "receipts", "classifier", "plan",  "server",   "peer",   "relay"};

std::string BlockName(Block b) { return kBlockNames[static_cast<int>(b)]; }

// Calls f(block, field) for each block field of a ServerConfig, in
// FormatConfig order: a vector for named blocks, the spec for the others.
template <class Config, class F>
void ForEachBlock(Config& c, F f) {
  f(Block::kFeed, c.feeds);
  f(Block::kSubscriber, c.subscribers);
  f(Block::kGroup, c.groups);
  f(Block::kDelivery, c.delivery);
  f(Block::kIngest, c.ingest);
  f(Block::kAnalyzer, c.analyzer);
  f(Block::kReceipts, c.receipts);
  f(Block::kClassifier, c.classifier);
  f(Block::kPlan, c.plans);
  f(Block::kServer, c.server);
  f(Block::kPeer, c.peers);
  f(Block::kRelay, c.relays);
}

enum class Kind {
  kString,     // "quoted"
  kPattern,    // "quoted", compiled as a Bistro pattern at load time
  kIdent,
  kIdentList,  // a, b, c (each one of `words` when the row lists any)
  kInt,        // also range-checked against the field's C++ type
  kDouble,
  kDuration,   // never negative
  kEnum,       // one of `words`, stored as the word, its index or a bool
  kIrregular,  // syntax of its own, read by the row's handler pair
};

enum Flags {
  kRequired = 1,     // the block is invalid without it
  kWriteAlways = 2,  // formatted even at its default
  kAlias = 4,        // parse-only spelling of the row above it
  kAboveLo = 8,      // `lo` is an exclusive bound
};

constexpr double kNoMax = std::numeric_limits<double>::infinity();

struct Row;
using Values = std::vector<std::string>;
// Parses one value into the block's spec / lists the values the spec
// formats to, one per line ("" = the bare key), none at the default.
struct Access {
  Status (*parse)(TokenCursor&, const Row&, void* spec);
  Values (*format)(const Row&, const void* spec);
};

struct Opts {
  double lo = 0;  // bounds of numbers and durations
  double hi = kNoMax;
  std::vector<std::string> words = {};  // enum values / syntax keywords
  int flags = 0;
};

struct Row {
  Block block;
  const char* key;
  Kind kind;
  Access access;
  Opts opts = {};
};

// The next value of a string-like row: a quoted string (compiled when a
// pattern) or an identifier, one of the row's words when it has any.
Result<std::string> TakeText(TokenCursor& c, const Row& row) {
  if (row.kind == Kind::kString || row.kind == Kind::kPattern) {
    BISTRO_ASSIGN_OR_RETURN(std::string text, c.TakeString());
    // Validate early: load-time errors beat classification-time errors.
    if (row.kind == Kind::kPattern) {
      BISTRO_RETURN_IF_ERROR(Pattern::Compile(text).status());
    }
    return text;
  }
  if (row.opts.words.empty()) return c.TakeIdent();
  for (const std::string& word : row.opts.words) {
    if (c.TakeWord(word)) return word;
  }
  return c.Err(std::string(row.key) + " must be one of " +
               Join(row.opts.words, ", "));
}

size_t WordIndex(const Row& row, const std::string& word) {
  const std::vector<std::string>& words = row.opts.words;
  return std::find(words.begin(), words.end(), word) - words.begin();
}

template <class T>
constexpr bool kIsOptional = false;
template <class T>
constexpr bool kIsOptional<std::optional<T>> = true;

template <class T>
Status Read(TokenCursor& c, const Row& row, T* out) {
  const Opts& o = row.opts;
  if constexpr (kIsOptional<T>) {
    typename T::value_type v{};
    BISTRO_RETURN_IF_ERROR(Read(c, row, &v));
    *out = std::move(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    BISTRO_ASSIGN_OR_RETURN(*out, TakeText(c, row));
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    do {
      BISTRO_ASSIGN_OR_RETURN(out->emplace_back(), TakeText(c, row));
    } while (c.TakePunct(","));
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    BISTRO_ASSIGN_OR_RETURN(std::string word, TakeText(c, row));
    *out = static_cast<T>(WordIndex(row, word));
  } else if constexpr (std::is_same_v<T, double>) {
    BISTRO_ASSIGN_OR_RETURN(
        *out, c.TakeDouble(row.key, o.lo, o.hi, o.flags & kAboveLo));
  } else {
    const int64_t lo = static_cast<int64_t>(o.lo);
    const int64_t hi = o.hi == kNoMax ? std::numeric_limits<T>::max()
                                      : static_cast<int64_t>(o.hi);
    BISTRO_ASSIGN_OR_RETURN(*out, row.kind == Kind::kDuration
                                      ? c.TakeDuration(row.key, lo)
                                      : c.TakeInt(row.key, lo, hi));
  }
  return Status::OK();
}

template <class T>
std::string Write(const Row& row, const T& v) {
  if constexpr (kIsOptional<T>) {
    return Write(row, *v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    bool quoted = row.kind == Kind::kString || row.kind == Kind::kPattern;
    return quoted ? Quote(v) : v;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    return Join(v, ", ");
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    return row.opts.words[static_cast<size_t>(v)];
  } else if constexpr (std::is_same_v<T, double>) {
    return DoubleLiteral(v);
  } else {
    return row.kind == Kind::kDuration ? DurationLiteral(v)
                                       : std::to_string(v);
  }
}

template <auto M, auto... Rest, class S>
auto& Walk(S& spec) {
  if constexpr (sizeof...(Rest) == 0) {
    return spec.*M;
  } else {
    return Walk<Rest...>(spec.*M);
  }
}

template <class S>
S SpecOf(Status (*)(TokenCursor&, const Row&, S*));

// A row's access through a parse/format pair typed on the block's spec.
template <auto Parse, auto Format>
Access Irregular() {
  using Spec = decltype(SpecOf(Parse));
  return {[](TokenCursor& c, const Row& row, void* spec) {
            return Parse(c, row, static_cast<Spec*>(spec));
          },
          [](const Row& row, const void* spec) {
            return Format(row, *static_cast<const Spec*>(spec));
          }};
}

template <class S, class T>
S OwnerOf(T S::*);

template <auto First, auto... Rest>
Status ReadField(TokenCursor& c, const Row& row,
                 decltype(OwnerOf(First))* spec) {
  return Read(c, row, &Walk<First, Rest...>(*spec));
}

template <auto First, auto... Rest>
Values WriteField(const Row& row, const decltype(OwnerOf(First))& spec) {
  const decltype(OwnerOf(First)) kDefault{};
  const auto& v = Walk<First, Rest...>(spec);
  if (v != Walk<First, Rest...>(kDefault) || row.opts.flags & kWriteAlways) {
    return {Write(row, v)};
  }
  return {};
}

// A regular row's access to the field at member path First.Rest... of
// the block's spec.
template <auto... Path>
Access At() {
  return Irregular<ReadField<Path...>, WriteField<Path...>>();
}

// The first `pattern` is the primary; repeats are alternates (typically
// analyzer-suggested revisions that were approved).
Status ParsePattern(TokenCursor& c, const Row& row, FeedSpec* feed) {
  BISTRO_ASSIGN_OR_RETURN(std::string pattern, TakeText(c, row));
  if (feed->pattern.empty()) {
    feed->pattern = std::move(pattern);
  } else {
    feed->alt_patterns.push_back(std::move(pattern));
  }
  return Status::OK();
}

Values FormatPattern(const Row&, const FeedSpec& feed) {
  Values out;
  if (!feed.pattern.empty()) out.push_back(Quote(feed.pattern));
  for (const std::string& alt : feed.alt_patterns) out.push_back(Quote(alt));
  return out;
}

// `compress <codec>` and `decompress` set the one normalize action.
template <CompressionAction Action>
Status ParseAction(TokenCursor& c, const Row& row, FeedSpec* feed) {
  if (Action == CompressionAction::kCompress) {
    BISTRO_ASSIGN_OR_RETURN(std::string codec, TakeText(c, row));
    feed->normalize.codec = static_cast<CodecKind>(WordIndex(row, codec));
  }
  feed->normalize.action = Action;
  return Status::OK();
}

template <CompressionAction Action>
Values FormatAction(const Row& row, const FeedSpec& feed) {
  if (feed.normalize.action != Action) return {};
  if (Action == CompressionAction::kDecompress) return {""};
  return {row.opts.words[static_cast<size_t>(feed.normalize.codec)]};
}

// (file | punctuation | batch [count N] [timeout D]) [exec "cmd"] [remote]
Status ParseTrigger(TokenCursor& c, const Row&, SubscriberSpec* sub) {
  BatchSpec& batch = sub->trigger.batch;
  if (c.TakeWord("file")) {
    batch.mode = BatchSpec::Mode::kPerFile;
  } else if (c.TakeWord("punctuation")) {
    batch.mode = BatchSpec::Mode::kPunctuation;
  } else if (c.TakeWord("batch")) {
    bool has_count = false, has_timeout = false;
    for (;;) {
      if (c.TakeWord("count")) {
        BISTRO_ASSIGN_OR_RETURN(batch.count,
                                c.TakeInt("batch count", 1, INT_MAX));
        has_count = true;
      } else if (c.TakeWord("timeout")) {
        BISTRO_ASSIGN_OR_RETURN(batch.timeout,
                                c.TakeDuration("batch timeout", 0));
        has_timeout = true;
      } else {
        break;
      }
    }
    if (!has_count && !has_timeout) {
      return c.Err("batch trigger needs count and/or timeout");
    }
    batch.mode = !has_count     ? BatchSpec::Mode::kTime
                 : !has_timeout ? BatchSpec::Mode::kCount
                                : BatchSpec::Mode::kCountOrTime;
  } else {
    return c.Err("unknown trigger kind");
  }
  for (;;) {
    if (c.TakeWord("exec")) {
      BISTRO_ASSIGN_OR_RETURN(sub->trigger.command, c.TakeString());
    } else if (c.TakeWord("remote")) {
      sub->trigger.remote = true;
    } else {
      return Status::OK();
    }
  }
}

Values FormatTrigger(const Row&, const SubscriberSpec& sub) {
  const TriggerSpec& t = sub.trigger;
  using Mode = BatchSpec::Mode;
  if (t.command.empty() && t.batch.mode == Mode::kPerFile) return {};
  std::string s = t.batch.mode == Mode::kPerFile       ? "file"
                  : t.batch.mode == Mode::kPunctuation ? "punctuation"
                                                       : "batch";
  if (t.batch.mode == Mode::kCount || t.batch.mode == Mode::kCountOrTime) {
    s += " count " + std::to_string(t.batch.count);
  }
  if (t.batch.mode == Mode::kTime || t.batch.mode == Mode::kCountOrTime) {
    s += " timeout " + DurationLiteral(t.batch.timeout);
  }
  if (!t.command.empty()) s += " exec " + Quote(t.command);
  if (t.remote) s += " remote";
  return {s};
}

// `split P to ARM, ...`: percents in [1, 100] summing to 100, arms distinct.
Status ParseSplit(TokenCursor& c, const Row&, PlanSpec* plan) {
  do {
    PlanSplitArm& arm = plan->split.emplace_back();
    BISTRO_ASSIGN_OR_RETURN(arm.percent, c.TakeInt("split percent", 1, 100));
    BISTRO_RETURN_IF_ERROR(c.ExpectWord("to"));
    BISTRO_ASSIGN_OR_RETURN(arm.to, c.TakeIdent());
  } while (c.TakePunct(","));
  int total = 0;
  std::set<std::string> arms;
  for (const PlanSplitArm& arm : plan->split) {
    total += arm.percent;
    if (!arms.insert(arm.to).second) {
      return c.Err("split lists arm '" + arm.to + "' twice");
    }
  }
  if (total != 100) return c.Err("split percents must sum to 100");
  return Status::OK();
}

Values FormatSplit(const Row&, const PlanSpec& plan) {
  std::vector<std::string> arms;
  for (const PlanSplitArm& arm : plan.split) {
    arms.push_back(std::to_string(arm.percent) + " to " + arm.to);
  }
  if (arms.empty()) return {};
  return {Join(arms, ", ")};
}

// `quota N [per D]` / `quota_bytes N [per D]`: both budgets refill over
// one shared interval.
template <std::optional<int64_t> PlanSpec::*Budget>
Status ParseQuota(TokenCursor& c, const Row& row, PlanSpec* plan) {
  BISTRO_ASSIGN_OR_RETURN(plan->*Budget, c.TakeInt(row.key, 1, INT64_MAX));
  if (c.TakeWord("per")) {
    BISTRO_ASSIGN_OR_RETURN(plan->quota_interval,
                            c.TakeDuration("quota interval", 1));
  }
  return Status::OK();
}

template <std::optional<int64_t> PlanSpec::*Budget>
Values FormatQuota(const Row&, const PlanSpec& plan) {
  if (!(plan.*Budget)) return {};
  return {std::to_string(*(plan.*Budget)) + " per " +
          DurationLiteral(plan.quota_interval)};
}

// `shard I of N`: this peer takes partition I of N.
Status ParseShard(TokenCursor& c, const Row&, PeerSpec* peer) {
  BISTRO_ASSIGN_OR_RETURN(int64_t index, c.TakeInt());
  BISTRO_RETURN_IF_ERROR(c.ExpectWord("of"));
  BISTRO_ASSIGN_OR_RETURN(peer->shard_count,
                          c.TakeInt("shard count", 1, INT_MAX));
  if (index < 0 || index >= peer->shard_count) {
    return c.Err("shard index must be in [0, count)");
  }
  peer->shard_index = static_cast<int>(index);
  return Status::OK();
}

Values FormatShard(const Row&, const PeerSpec& peer) {
  if (peer.shard_count <= 0) return {};
  return {StrFormat("%d of %d", peer.shard_index, peer.shard_count)};
}

// Rows of one block are in FormatConfig order.
const std::vector<Row>& Table() {
  using enum Block;
  using enum Kind;
  using FS = FeedSpec;
  using SS = SubscriberSpec;
  using GS = GroupSpec;
  using DT = DeliveryTuningSpec;
  using IT = IngestTuningSpec;
  using AT = AnalyzerTuningSpec;
  using PS = PlanSpec;
  using NS = ServerNetSpec;
  using PE = PeerSpec;
  using RS = RelaySpec;
  constexpr double kPositive = 1;  // durations: at least 1us
  constexpr auto kCompress = CompressionAction::kCompress;
  constexpr auto kDecompress = CompressionAction::kDecompress;
  static const std::vector<Row> kTable = {
      {kFeed, "pattern", kPattern, Irregular<ParsePattern, FormatPattern>(),
       {.flags = kRequired}},
      {kFeed, "normalize", kPattern,
       At<&FS::normalize, &NormalizeSpec::rename_template>()},
      {kFeed, "compress", kEnum,
       Irregular<ParseAction<kCompress>, FormatAction<kCompress>>(),
       {.words = {"none", "rle", "lz"}}},
      {kFeed, "decompress", kIrregular,
       Irregular<ParseAction<kDecompress>, FormatAction<kDecompress>>()},
      {kFeed, "tardiness", kDuration, At<&FS::tardiness>()},
      {kSubscriber, "host", kString, At<&SS::host>()},
      {kSubscriber, "destination", kString, At<&SS::destination>()},
      {kSubscriber, "feeds", kIdentList, At<&SS::feeds>(),
       {.flags = kRequired}},
      {kSubscriber, "method", kEnum, At<&SS::method>(),
       {.words = {"push", "notify"}, .flags = kWriteAlways}},
      {kSubscriber, "window", kDuration, At<&SS::window>()},
      {kSubscriber, "trigger", kIrregular,
       Irregular<ParseTrigger, FormatTrigger>(),
       {.words = {"file", "punctuation", "batch", "count", "timeout", "exec",
                  "remote"}}},
      {kGroup, "feeds", kIdentList, At<&GS::feeds>(), {.flags = kRequired}},
      {kGroup, "members", kIdentList, At<&GS::members>(), {.flags = kRequired}},
      {kGroup, "window", kDuration, At<&GS::window>()},
      {kGroup, "straggler_after", kInt, At<&GS::straggler_after>(), {1}},
      {kDelivery, "retry_backoff_min", kDuration, At<&DT::retry_backoff_min>()},
      // Predates the exponential schedule; sets the same floor.
      {kDelivery, "retry_backoff", kDuration, At<&DT::retry_backoff_min>(),
       {.flags = kAlias}},
      {kDelivery, "retry_backoff_max", kDuration, At<&DT::retry_backoff_max>()},
      {kDelivery, "retry_multiplier", kDouble, At<&DT::retry_multiplier>(),
       {1}},
      {kDelivery, "retry_jitter", kEnum, At<&DT::retry_jitter>(),
       {.words = {"off", "on"}}},
      {kDelivery, "max_attempts", kInt, At<&DT::max_attempts>(), {1}},
      {kDelivery, "offline_after", kInt, At<&DT::offline_after>(), {1}},
      {kDelivery, "probe_interval", kDuration, At<&DT::probe_interval>()},
      {kDelivery, "window", kInt, At<&DT::window>()},
      {kDelivery, "coalesce_bytes", kInt, At<&DT::coalesce_bytes>()},
      {kDelivery, "cache_bytes", kInt, At<&DT::cache_bytes>()},
      {kDelivery, "receipt_group", kInt, At<&DT::receipt_group>(), {1}},
      {kDelivery, "receipt_flush_interval", kDuration,
       At<&DT::receipt_flush_interval>()},
      {kIngest, "workers", kInt, At<&IT::workers>()},
      {kIngest, "queue_depth", kInt, At<&IT::queue_depth>(), {1}},
      {kIngest, "batch", kInt, At<&IT::batch>(), {1}},
      {kIngest, "overload_policy", kEnum, At<&IT::overload_policy>(),
       {.words = {"block", "shed_oldest", "spill"}}},
      {kAnalyzer, "workers", kInt, At<&AT::workers>()},
      {kAnalyzer, "max_corpus", kInt, At<&AT::max_corpus>(), {1}},
      {kAnalyzer, "shards", kInt, At<&AT::shards>(), {1}},
      {kAnalyzer, "cycle_interval", kDuration, At<&AT::cycle_interval>(),
       {kPositive}},
      {kReceipts, "shards", kInt, At<&ReceiptTuningSpec::shards>(), {1, 256}},
      {kClassifier, "mode", kEnum, At<&ClassifierTuningSpec::mode>(),
       {.words = {"automaton", "trie", "linear"}}},
      {kPlan, "route", kIdentList, At<&PS::route>()},
      {kPlan, "split", kIrregular, Irregular<ParseSplit, FormatSplit>(),
       {.words = {"to"}}},
      {kPlan, "replicate", kInt, At<&PS::replicate>(), {1}},
      {kPlan, "sample", kDouble, At<&PS::sample>(),
       {.lo = 0, .hi = 100, .flags = kAboveLo}},
      {kPlan, "transform", kEnum, At<&PS::transform>(),
       {.words = {"none", "rle", "lz", "decompress"}}},
      {kPlan, "quota", kIrregular,
       Irregular<ParseQuota<&PS::quota_files>, FormatQuota<&PS::quota_files>>(),
       {.words = {"per"}}},
      {kPlan, "quota_bytes", kIrregular,
       Irregular<ParseQuota<&PS::quota_bytes>, FormatQuota<&PS::quota_bytes>>(),
       {.words = {"per"}}},
      {kPlan, "slo", kEnum, At<&PS::slo>(),
       {.words = {"interactive", "standard", "bulk"}}},
      {kPlan, "enrich", kIdentList, At<&PS::enrich>(),
       {.words = {"provenance", "checksum"}}},
      {kServer, "listen", kString, At<&NS::listen>()},
      {kServer, "max_frame_bytes", kInt, At<&NS::max_frame_bytes>(), {1}},
      {kServer, "outbound_queue_bytes", kInt, At<&NS::outbound_queue_bytes>(),
       {1}},
      {kServer, "reconnect_backoff_min", kDuration,
       At<&NS::reconnect_backoff_min>(), {kPositive}},
      {kServer, "reconnect_backoff_max", kDuration,
       At<&NS::reconnect_backoff_max>(), {kPositive}},
      {kServer, "ack_timeout", kDuration, At<&NS::ack_timeout>(), {kPositive}},
      {kPeer, "address", kString, At<&PE::address>(), {.flags = kRequired}},
      {kPeer, "feeds", kIdentList, At<&PE::feeds>()},
      {kPeer, "shard", kIrregular, Irregular<ParseShard, FormatShard>(),
       {.words = {"of"}}},
      {kPeer, "replicas", kInt, At<&PE::replicas>(), {1}},
      {kPeer, "failover", kIdent, At<&PE::failover>()},
      {kPeer, "probe_interval", kDuration, At<&PE::probe_interval>(),
       {kPositive}},
      {kPeer, "suspect_after", kInt, At<&PE::suspect_after>(), {1}},
      {kPeer, "down_after", kInt, At<&PE::down_after>(), {1}},
      {kPeer, "window", kDuration, At<&PE::window>()},
      {kRelay, "children", kIdentList, At<&RS::children>(),
       {.flags = kRequired}},
      {kRelay, "spool", kString, At<&RS::spool>()},
      {kRelay, "retry_backoff", kDuration, At<&RS::retry_backoff>(),
       {kPositive}},
      {kRelay, "max_attempts", kInt, At<&RS::max_attempts>(), {1}},
  };
  return kTable;
}

const Row* FindRow(Block b, std::string_view key) {
  for (const Row& row : Table()) {
    if (row.block == b && key == row.key) return &row;
  }
  return nullptr;
}

template <class S>
auto& NameOf(S& spec) { return spec.name; }
std::string& NameOf(PlanSpec& plan) { return plan.feed; }
const std::string& NameOf(const PlanSpec& plan) { return plan.feed; }

class Parser {
 public:
  explicit Parser(TokenCursor cursor) : c_(std::move(cursor)) {}

  Result<ServerConfig> Run() {
    ServerConfig config;
    while (!c_.AtEof()) BISTRO_RETURN_IF_ERROR(ParseBlock(&config));
    // A failover target may be declared after the peer naming it.
    for (const PeerSpec& peer : config.peers) {
      auto target = identities_.find(peer.failover);
      if (!peer.failover.empty() && (target == identities_.end() ||
                                     target->second.first != Block::kPeer)) {
        return c_.ErrAt(identities_[peer.name].second,
                        "peer " + peer.name + " names unknown failover peer '" +
                            peer.failover + "'");
      }
    }
    return config;
  }

 private:
  // Declared names with their block and line.
  using Names = std::map<std::string, std::pair<Block, int>>;

  Status ParseBlock(ServerConfig* config) {
    const int line = c_.Peek().line;
    if (c_.TakeWord(BlockName(Block::kGroup))) {
      return ParseGroup("", line, config);
    }
    bool found = false;
    Status status;
    ForEachBlock(*config, [&](Block b, auto& field) {
      if (found || !c_.TakeWord(BlockName(b))) return;
      found = true;
      if constexpr (std::ranges::range<decltype(field)>) {
        status = Named(b, line, "", &field);
      } else {
        status = c_.ExpectPunct("{");
        if (status.ok()) status = Body(b, line, "", &field);
      }
    });
    if (found) return status;
    return c_.Err("expected one of " +
                  Join({std::begin(kBlockNames), std::end(kBlockNames)}, ", "));
  }

  Status ParseGroup(const std::string& prefix, int line, ServerConfig* config) {
    BISTRO_ASSIGN_OR_RETURN(std::string name, c_.TakeIdent());
    BISTRO_RETURN_IF_ERROR(c_.ExpectPunct("{"));
    // The keyword is overloaded: a block of nested feed/group definitions
    // is a feed-hierarchy prefix; a block opening with a subscriber-group
    // key is a *subscriber group* — one shared delivery identity fanned
    // out to many member endpoints.
    if (c_.Peek().kind == TokKind::kIdent &&
        FindRow(Block::kGroup, c_.Peek().text)) {
      if (!prefix.empty()) {
        return c_.Err("subscriber group '" + name +
                      "' cannot be nested inside feed group '" + prefix + "'");
      }
      return Append(Block::kGroup, line, std::move(name), &config->groups);
    }
    const std::string full = prefix.empty() ? name : prefix + "." + name;
    while (!c_.TakePunct("}")) {
      const int inner = c_.Peek().line;
      if (c_.TakeWord(BlockName(Block::kGroup))) {
        BISTRO_RETURN_IF_ERROR(ParseGroup(full, inner, config));
      } else if (c_.TakeWord(BlockName(Block::kFeed))) {
        BISTRO_RETURN_IF_ERROR(
            Named(Block::kFeed, inner, full + ".", &config->feeds));
      } else {
        return c_.Err(c_.AtEof() ? "unterminated group"
                                 : "expected 'group' or 'feed' inside group");
      }
    }
    return Status::OK();
  }

  // `NAME { body }`; the spec is named `prefix` + NAME.
  template <class Spec>
  Status Named(Block b, int line, const std::string& prefix,
               std::vector<Spec>* out) {
    BISTRO_ASSIGN_OR_RETURN(std::string name, c_.TakeIdent());
    BISTRO_RETURN_IF_ERROR(c_.ExpectPunct("{"));
    return Append(b, line, prefix + name, out);
  }

  // Parses the body of a named block (its '{' consumed) into a new spec
  // of `out`, checks it, and claims its name.
  template <class Spec>
  Status Append(Block b, int line, std::string name, std::vector<Spec>* out) {
    Spec& spec = out->emplace_back();
    NameOf(spec) = std::move(name);
    BISTRO_RETURN_IF_ERROR(Body(b, line, NameOf(spec), &spec));
    BISTRO_RETURN_IF_ERROR(Check(spec, line));
    // Subscribers, subscriber groups and peers share one delivery
    // namespace; relays and plans have their own; the registry owns feeds.
    Names* names = b == Block::kFeed    ? nullptr
                   : b == Block::kRelay ? &relays_
                   : b == Block::kPlan  ? &plans_
                                        : &identities_;
    if (names == nullptr) return Status::OK();
    auto [it, fresh] = names->emplace(NameOf(spec), std::pair(b, line));
    if (fresh) return Status::OK();
    return c_.ErrAt(line, StrFormat("duplicate name: %s %s (already the %s "
                                    "at line %d)",
                                    BlockName(b).c_str(), it->first.c_str(),
                                    BlockName(it->second.first).c_str(),
                                    it->second.second));
  }

  // The generic block loop: `key value;` rows up to the closing '}'.
  Status Body(Block b, int line, const std::string& name, void* spec) {
    while (!c_.TakePunct("}")) {
      if (c_.AtEof()) return c_.Err("unterminated " + BlockName(b));
      BISTRO_ASSIGN_OR_RETURN(std::string key, c_.TakeIdent());
      const Row* row = FindRow(b, key);
      if (!row) {
        return c_.Err("unknown " + BlockName(b) + " attribute '" + key + "'");
      }
      BISTRO_RETURN_IF_ERROR(row->access.parse(c_, *row, spec));
      BISTRO_RETURN_IF_ERROR(c_.ExpectPunct(";"));
    }
    for (const Row& row : Table()) {
      if (row.block == b && row.opts.flags & kRequired &&
          row.access.format(row, spec).empty()) {
        return c_.ErrAt(line, BlockName(b) + " " + name + " has no " + row.key);
      }
    }
    return Status::OK();
  }

  // Per-block rules beyond single keys.
  template <class Spec>
  Status Check(const Spec&, int) {
    return Status::OK();
  }

  Status Check(const GroupSpec& group, int line) {
    std::set<std::string> members(group.members.begin(), group.members.end());
    if (members.size() == group.members.size()) return Status::OK();
    return c_.ErrAt(line, "group " + group.name + " lists a member twice");
  }

  Status Check(const PeerSpec& peer, int line) {
    const char* bad = nullptr;
    if (!peer.feeds.empty() && peer.shard_count > 0) {
      bad = "sets both explicit feeds and sharding";
    } else if (peer.replicas > 1 && peer.shard_count == 0) {
      bad = "sets replicas without sharding";
    } else if (peer.shard_count > 0 && peer.replicas > peer.shard_count) {
      bad = "sets replicas above its shard count";
    } else if (peer.failover == peer.name) {
      bad = "names itself as failover";
    } else if (peer.suspect_after && peer.down_after &&
               *peer.down_after < *peer.suspect_after) {
      bad = "sets down_after below suspect_after";
    }
    if (bad) return c_.ErrAt(line, "peer " + peer.name + " " + bad);
    return Status::OK();
  }

  // Deeper plan cross-checks (unknown feeds, route targets, replication
  // vs the peer fleet) run in the plan compiler, which sees the resolved
  // registry.
  Status Check(const PlanSpec& plan, int line) {
    PlanSpec bare;
    bare.feed = plan.feed;
    if (plan == bare) {
      return c_.ErrAt(line, "plan " + plan.feed + " declares nothing");
    }
    return Status::OK();
  }

  TokenCursor c_;
  Names identities_;
  Names relays_;
  Names plans_;
};

// Appends `<block> [name] { ... }`; a singleton block with every key at
// its default is omitted.
void FormatBlock(Block b, const std::string& name, const void* spec,
                 std::string* out) {
  std::string body;
  for (const Row& row : Table()) {
    if (row.block != b || row.opts.flags & kAlias) continue;
    for (const std::string& v : row.access.format(row, spec)) {
      body += "  " + std::string(row.key) + (v.empty() ? "" : " " + v) + ";\n";
    }
  }
  if (name.empty() && body.empty()) return;
  *out += BlockName(b) + (name.empty() ? "" : " " + name) + " {\n" + body +
          "}\n";
}

}  // namespace

Result<ServerConfig> ParseConfig(std::string_view text) {
  BISTRO_ASSIGN_OR_RETURN(TokenCursor cursor, TokenCursor::Lex(text, "config"));
  return Parser(std::move(cursor)).Run();
}

std::string FormatConfig(const ServerConfig& config) {
  std::string out;
  // Feeds are written flat with dotted names; groups are name prefixes,
  // so the flat form means the same as the nested one.
  ForEachBlock(config, [&out](Block b, const auto& field) {
    if constexpr (std::ranges::range<decltype(field)>) {
      for (const auto& spec : field) FormatBlock(b, NameOf(spec), &spec, &out);
    } else {
      FormatBlock(b, "", &field, &out);
    }
  });
  return out;
}

std::vector<ConfigKey> ConfigKeys() {
  std::vector<ConfigKey> keys;
  for (const Row& row : Table()) {
    keys.push_back({BlockName(row.block), row.key, row.opts.words});
  }
  return keys;
}

}  // namespace bistro
