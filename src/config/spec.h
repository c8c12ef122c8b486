#ifndef BISTRO_CONFIG_SPEC_H_
#define BISTRO_CONFIG_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "net/socket_options.h"
#include "pattern/normalizer.h"

namespace bistro {

/// Default tardiness bound: delivery deadline = arrival + tardiness.
constexpr Duration kDefaultTardiness = kMinute;

/// One data feed definition (paper §3.1 "Data Feeds").
///
/// Feeds live in a hierarchy expressed by their dotted full name
/// ("SNMP.CPU.POLLER1"); groups are name prefixes, so subscribing to
/// "SNMP.CPU" covers every feed beneath it.
struct FeedSpec {
  FeedName name;              // full dotted name
  std::string pattern;        // primary Bistro pattern for member filenames
  /// Alternative patterns also belonging to the feed. Real feeds change
  /// naming conventions over their lifetime (§2.1.3); rather than editing
  /// the primary pattern (and breaking old files), approved analyzer
  /// suggestions are appended here. The primary pattern's field layout
  /// drives normalization; alternates are classification-only.
  std::vector<std::string> alt_patterns;
  NormalizeSpec normalize;    // rename + compression policy
  Duration tardiness = kDefaultTardiness;  // delivery deadline bound

  bool operator==(const FeedSpec&) const = default;
};

/// How end-of-batch events are produced for a subscriber's trigger
/// (paper §2.3, §4.1).
struct BatchSpec {
  enum class Mode {
    kPerFile,      // trigger on every delivered file
    kCount,        // trigger after N files of one data interval
    kTime,         // trigger when a batch has spanned `timeout`
    kCountOrTime,  // whichever comes first (the paper's recommended combo)
    kPunctuation,  // trigger on source-provided end-of-batch markers
  };
  Mode mode = Mode::kPerFile;
  int count = 0;          // for kCount / kCountOrTime
  Duration timeout = 0;   // for kTime / kCountOrTime

  bool operator==(const BatchSpec&) const = default;
};

/// Subscriber notification hook (paper §3.1 "Notifications and triggers").
struct TriggerSpec {
  BatchSpec batch;
  std::string command;  // program to invoke; empty = no trigger
  bool remote = false;  // run on subscriber host (true) or locally (false)

  bool operator==(const TriggerSpec&) const = default;
};

/// How feed files reach a subscriber.
enum class DeliveryMethod {
  kPush,    // Bistro transmits file contents
  kNotify,  // hybrid push-pull: Bistro pushes a notification; the
            // subscriber retrieves the data at a time of its choosing
};

/// One subscriber definition (paper §3.1 "Subscribers").
struct SubscriberSpec {
  SubscriberName name;
  std::string host;         // transport endpoint identifier
  std::string destination;  // directory on the subscriber side
  std::vector<FeedName> feeds;  // feeds or feed groups of interest
  DeliveryMethod method = DeliveryMethod::kPush;
  TriggerSpec trigger;
  Duration window = 0;  // history this subscriber wants on subscribe (0 = all)

  bool operator==(const SubscriberSpec&) const = default;
};

/// A subscriber *group* (the config's `group <name> { feeds; members; }`
/// form): many endpoints that share ONE delivery identity. The server
/// schedules, dedupes and receipts the group as a single subscriber —
/// one delivery cursor, one pending entry, one receipt row per file —
/// and a local group relay re-fans each accepted file out to the
/// members. Distinguished from a feed-hierarchy `group { feed ...; }`
/// block by its attributes (members/feeds vs. nested feed definitions).
struct GroupSpec {
  SubscriberName name;          // the shared delivery identity
  std::vector<FeedName> feeds;  // feeds or feed groups of interest
  std::vector<std::string> members;  // member endpoint identifiers
  Duration window = 0;          // history wanted on subscribe (0 = all)
  /// Consecutive member failures before the relay stops holding the
  /// group ack for that member and moves it to straggler catch-up.
  int straggler_after = 3;

  bool operator==(const GroupSpec&) const = default;
};

/// A relay's retry schedule (the `retry_backoff`/`max_attempts` keys of a
/// `relay { }` block); fanout::RelayNode::Options extends it.
struct RelayRetrySpec {
  /// Delay before re-sending to a failed child; grows linearly with the
  /// per-child attempt count, capped at 10x once a child has failed
  /// `max_attempts` times (slow-sweep mode — the relay never gives a file
  /// up while it stays in the history window).
  Duration retry_backoff = 2 * kSecond;
  int max_attempts = 8;

  bool operator==(const RelayRetrySpec&) const = default;
};

/// A dissemination relay (the config's `relay <name> { ... }` block):
/// one upstream send re-fans out to `children` endpoints, composing
/// with federation (children may be peers) so one upstream transmission
/// serves a downstream tree. The relay acks upstream only after the
/// message is durably spooled; forwarding then proceeds asynchronously
/// with retries, and downstream receipt/FileId dedupe absorbs replays.
struct RelaySpec {
  std::string name;                   // also the relay's endpoint name
  std::vector<std::string> children;  // downstream endpoint identifiers
  std::string spool;  // durable spool directory; empty = caller's choice
  RelayRetrySpec retry;

  bool operator==(const RelaySpec&) const = default;
};

// The tuning blocks below are the types their components run on: the
// config parses straight into them, each field's initializer is the
// key's one default, and a component whose Options has fields without a
// config key extends the block's struct with them. FormatConfig omits a
// field that holds its default. The `server { }` block's ServerNetSpec
// lives in net/socket_options.h, next to the transport that runs on it.

/// Receipt-store tuning (the config's `receipts { ... }` block).
struct ReceiptTuningSpec {
  /// Hash-sharded WAL segments: receipt rows partition across this many
  /// independent KvStores, each group commit fsyncing only the shards it
  /// touched. 1 (default) = the seed's single-store layout, bit-compatible.
  /// Always engaged; it stays a std::optional only because the pipebench
  /// harness reads it with value_or().
  std::optional<int> shards = 1;

  bool operator==(const ReceiptTuningSpec&) const = default;
};

/// Filename-lookup strategy (the config's `classifier { mode; }`). The
/// enumerators are in the order of the config words.
enum class IndexMode {
  kAutomaton,    // "automaton": the feed table compiled into one fused DFA
  kPrefixIndex,  // "trie": literal-prefix candidate index
  kLinear,       // "linear": probe every pattern
};

/// The config's `classifier { ... }` block.
struct ClassifierTuningSpec {
  IndexMode mode = IndexMode::kAutomaton;

  bool operator==(const ClassifierTuningSpec&) const = default;
};

/// Server-wide delivery/retry tuning (the config's `delivery { ... }`
/// block), read by the DeliveryEngine.
struct DeliveryTuningSpec {
  /// Base (minimum) retry backoff: the floor of the exponential schedule;
  /// the first retry always waits exactly this long. Key:
  /// retry_backoff_min (alias retry_backoff).
  Duration retry_backoff_min = 5 * kSecond;
  /// Ceiling of the exponential retry schedule.
  Duration retry_backoff_max = 2 * kMinute;
  /// Per-retry growth factor of the schedule.
  double retry_multiplier = 3.0;
  /// Apply decorrelated jitter: each retry sleeps a uniform draw from
  /// [base, min(cap, last_sleep * multiplier)] instead of the
  /// deterministic envelope, de-synchronizing retry storms across jobs.
  bool retry_jitter = true;
  /// Max delivery attempts per job per online episode; a job that
  /// exhausts them moves to the dead-letter queue.
  int max_attempts = 10;
  /// Consecutive failures after which a subscriber is flagged offline.
  int offline_after = 3;
  /// Cadence of probes to offline subscribers (§4.2 "transmissions are
  /// periodically retried").
  Duration probe_interval = 30 * kSecond;
  /// Pipelined send window: at most this many of one subscriber's jobs
  /// in flight at once, acks completing out of the event loop instead
  /// of send→await-ack→next. 0 = unlimited (bounded only by scheduler
  /// slots, the legacy behavior); 1 = strict lockstep.
  int window = 0;
  /// Coalesce small queued push files to the same subscriber into one
  /// multi-file wire frame while the frame's payload total stays under
  /// this many bytes. 0 = off (one frame per file, legacy).
  int64_t coalesce_bytes = 0;
  /// Byte budget of the staged-payload LRU cache. Payloads are shared
  /// (zero copies, CRC computed once) across a fan-out regardless;
  /// the budget controls retention *across* files. 0 disables
  /// retention — every file is read and CRC'd once per dispatch round
  /// (the bench_delivery lockstep-baseline ablation).
  int64_t cache_bytes = 64 << 20;
  /// Delivery receipts per group commit: completed deliveries buffer
  /// until the group fills, the engine goes ack-quiescent, or
  /// receipt_flush_interval elapses — one WAL append + one fsync per
  /// group. 1 = legacy immediate per-ack receipt writes.
  int receipt_group = 1;
  /// Time bound on how long a buffered delivery receipt may wait for
  /// its group to fill.
  Duration receipt_flush_interval = 100 * kMillisecond;

  bool operator==(const DeliveryTuningSpec&) const = default;
};

/// What the ingest admit stage does when the pipeline's bounded queues
/// are full (paper §4.1: the server must absorb bursty arrivals without
/// falling over; INGESTBASE-style staged ingestion makes the policy
/// explicit). The enumerators are in the order of the config words.
enum class OverloadPolicy {
  /// "block": Submit() blocks until space frees: backpressure propagates
  /// to the depositing source. The default — no file is ever deferred.
  kBlock,
  /// "shed_oldest": drop the *oldest* queued file to admit the new one.
  /// The dropped file's landing copy stays in place, so a later
  /// landing-zone scan re-admits it; freshest data flows first under
  /// overload.
  kShedOldest,
  /// "spill": park the new file in an in-memory spill queue (journaled
  /// to disk for operators) and admit it automatically once the queues
  /// drain. Nothing is dropped, but spilled files may be reordered
  /// relative to files admitted while they waited.
  kSpillToDisk,
};

/// Ingest-pipeline tuning (the config's `ingest { ... }` block);
/// IngestPipeline::Options extends it.
struct IngestTuningSpec {
  /// Normalize/compress worker threads. 0 = synchronous inline ingest
  /// (the deterministic default used under simulation).
  int workers = 0;
  /// Bound on files queued toward the workers before the overload
  /// policy engages (threaded mode only).
  int queue_depth = 256;
  /// Max arrival receipts committed per group (one fsync per group).
  int batch = 32;
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;

  bool operator==(const IngestTuningSpec&) const = default;
};

/// Feed-analyzer tuning (the config's `analyzer { ... }` block);
/// IncrementalCorpus::Options extends it, and through it
/// IncrementalAnalyzer::Options (which AnalyzerDaemon::Options names).
struct AnalyzerTuningSpec {
  /// Worker threads folding/inducing corpus shards. 0 = inline
  /// deterministic analysis (results are identical either way).
  int workers = 0;
  /// Retention budget: unmatched names kept in the corpus (and per
  /// matched-feed sample), oldest shed first once exceeded (bounds
  /// analyzer memory, not correctness).
  int max_corpus = 100000;
  /// Stem-keyed corpus shards (the unit of fold/induce parallelism).
  int shards = 16;
  /// Analysis cycle cadence.
  Duration cycle_interval = 10 * kMinute;

  bool operator==(const AnalyzerTuningSpec&) const = default;
};

/// A peer's health state machine tuning (the `probe_interval`,
/// `suspect_after` and `down_after` keys of a `peer { }` block);
/// PeerHealthOptions extends it.
struct PeerHealthSpec {
  /// Keepalive-probe cadence while the peer is not healthy. Probes are
  /// kHeartbeat messages, exempt from the circuit breaker, so a down
  /// peer's recovery is detected even with no real traffic pending.
  Duration probe_interval = 5 * kSecond;
  /// Consecutive failures before healthy -> suspect.
  int suspect_after = 1;
  /// Consecutive failures before -> down (circuit opens).
  int down_after = 3;

  bool operator==(const PeerHealthSpec&) const = default;
};

/// A downstream Bistro server fed over the socket transport (the
/// config's `peer <name> { ... }` block) — paper Fig. 1's
/// server-feeds-server topology. A peer is registered as a push
/// subscriber whose endpoint is a TCP address; exactly-once handoff
/// rides the ordinary receipt machinery.
struct PeerSpec {
  std::string name;     // also the subscriber name upstream
  std::string address;  // "ip:port" of the peer's `server { listen; }`
  /// Feeds routed to this peer. Empty = route by sharding (below), or
  /// every feed when no sharding is set either.
  std::vector<FeedName> feeds;
  /// `shard <index> of <count>;` — feeds hash-partitioned by name across
  /// a fleet of count peers; this peer takes partition `index`.
  /// shard_count == 0 means sharding is off.
  int shard_index = -1;
  int shard_count = 0;
  /// `replicas <n>;` — with sharding, this peer carries its own shard
  /// plus the next n-1 shards (wrapping), so every feed reaches n peers
  /// and any single peer's data survives on a neighbor. 1 = plain
  /// sharding. Requires sharding; must not exceed shard_count.
  int replicas = 1;
  /// `failover <peer>;` — when this peer's health reaches `down`, its
  /// feeds re-route to the named peer until this one recovers. Must name
  /// another configured peer.
  std::string failover;
  /// Health state machine tuning.
  PeerHealthSpec health;
  /// Backfill window on subscribe (0 = full history), as for subscribers.
  Duration window = 0;

  bool operator==(const PeerSpec&) const = default;
};

/// One arm of a plan's duplicate-delivery split: `split 50 to exp_a,
/// 50 to exp_b;`. Percentages must sum to 100 across a plan's arms.
struct PlanSplitArm {
  int percent = 0;        // share of files routed to this arm, in [1, 100]
  std::string to;         // subscriber/group/peer receiving the arm

  bool operator==(const PlanSplitArm&) const = default;
};

/// Default refill interval for plan quotas (`quota N per <interval>`).
constexpr Duration kDefaultQuotaInterval = kMinute;

/// A declarative ingestion plan (the config's `plan <feed-or-group> { }`
/// block): per-feed behavior for the staged pipeline, delivery routing
/// and scheduling — INGESTBASE-style "ingestion as a compiled plan"
/// layered over the paper's feed declarations. Every field is optional;
/// an unset field keeps the pipeline's default behavior for that stage.
/// Plans are validated against the registry and lowered by the plan
/// compiler (src/ingest/plan.h); a selector may be an exact feed name or
/// a group prefix, and the most specific plan wins per attribute.
struct PlanSpec {
  FeedName feed;                       // exact feed name or group prefix
  /// Restrict delivery of the plan's feeds to these subscriber/group/
  /// peer identities. Empty = every subscriber of the feed (default).
  std::vector<std::string> route;
  /// Duplicate-delivery A/B split: each file is routed to exactly one
  /// arm (deterministic name hash); arms keep independent receipts.
  std::vector<PlanSplitArm> split;
  /// Required redundancy across federated peers; validated against the
  /// configured peer fleet (replicate > peers is rejected).
  std::optional<int> replicate;
  /// Percent of files admitted into the feed (deterministic name-hash
  /// sampling); the rest never classify into it. In (0, 100].
  std::optional<double> sample;
  /// Format transform overriding the feed's normalize policy:
  /// "none", "rle", "lz" (compress) or "decompress".
  std::optional<std::string> transform;
  /// Admission quota: at most `quota_files` files (and/or `quota_bytes`
  /// bytes) per `quota_interval`, enforced as a token bucket at admit.
  /// Over-quota files stay in the landing zone for a later rescan.
  std::optional<int64_t> quota_files;
  std::optional<int64_t> quota_bytes;
  Duration quota_interval = kDefaultQuotaInterval;
  /// SLO class driving delivery priority: "interactive" (deadline pulled
  /// in 4x), "standard" (feed tardiness as-is) or "bulk" (relaxed 4x).
  std::optional<std::string> slo;
  /// Enrichment hooks run in the normalize/worker stage, in order:
  /// "provenance" (header with feed + arrival) and/or "checksum"
  /// (payload CRC32 header).
  std::vector<std::string> enrich;

  bool operator==(const PlanSpec&) const = default;
};

/// A parsed Bistro configuration.
struct ServerConfig {
  std::vector<FeedSpec> feeds;
  std::vector<SubscriberSpec> subscribers;
  std::vector<GroupSpec> groups;
  std::vector<RelaySpec> relays;
  DeliveryTuningSpec delivery;
  IngestTuningSpec ingest;
  AnalyzerTuningSpec analyzer;
  ReceiptTuningSpec receipts;
  ClassifierTuningSpec classifier;
  ServerNetSpec server;
  std::vector<PeerSpec> peers;
  std::vector<PlanSpec> plans;

  bool operator==(const ServerConfig&) const = default;
};

}  // namespace bistro

#endif  // BISTRO_CONFIG_SPEC_H_
