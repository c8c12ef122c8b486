#ifndef BISTRO_ANALYZER_STREAM_H_
#define BISTRO_ANALYZER_STREAM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/induction.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "config/spec.h"
#include "obs/metrics.h"

namespace bistro {

/// A bounded, sharded, incrementally maintained corpus of filename
/// observations — the streaming replacement for re-clustering the whole
/// unmatched history every analysis cycle (DESIGN.md §11).
///
/// Names are tokenized, field-typed and folded into template clusters
/// *as they arrive*: a name whose structural signature matches an
/// existing cluster folds into it in O(tokens) (a width check plus a
/// reservoir update); otherwise it opens a new candidate cluster. The
/// signature lookup is per-shard, keyed by the filename's leading
/// alphabetic stem, so induction for one stem never contends with
/// another and a worker pool can fold shards in parallel.
///
/// Memory is bounded twice over: each cluster retains at most
/// `max_exemplars` exemplar rows (uniform reservoir sample, deterministic
/// seed), and the corpus as a whole retains at most `max_corpus` names
/// (FIFO: the oldest observation is shed first, and the shed count is
/// surfaced as a metric). A runaway unmatched stream therefore degrades
/// estimate resolution, not RSS.
///
/// Whenever neither bound has triggered, induction over this corpus is
/// *exactly* DiscoverFeeds over the same observations in the same order
/// — both hand identical ClusterEvidence to AnalyzeClusterEvidence. The
/// golden-equivalence tests pin that property.
class IncrementalCorpus {
 public:
  /// The config's `analyzer { }` block supplies `shards` (stem-keyed
  /// shards; cluster lookups and folds are per-shard) and `max_corpus`
  /// (retained-name budget for the whole corpus, FIFO shed); `workers`
  /// and `cycle_interval` are read by IncrementalAnalyzer and
  /// AnalyzerDaemon.
  struct Options : AnalyzerTuningSpec {
    explicit Options(const AnalyzerTuningSpec& tuning = {})
        : AnalyzerTuningSpec(tuning) {}
    /// Per-cluster exemplar reservoir size.
    size_t max_exemplars = 512;
    /// Reservoir seed: sampling is deterministic per (seed, shard).
    uint64_t seed = 0xB157A0;
  };

  /// Cumulative corpus activity (monotonic; survives eviction).
  struct Stats {
    uint64_t folds = 0;         // names folded into an existing cluster
    uint64_t new_clusters = 0;  // names that opened a candidate cluster
    uint64_t shed = 0;          // names evicted by the retention budget
    uint64_t duplicates = 0;    // re-observations dropped by id/name
  };

  explicit IncrementalCorpus(Options options = Options());

  /// Folds one observation into the corpus. Returns false (and counts a
  /// duplicate) when the observation's id or name is already retained —
  /// this is what stops unmatched files, which stay in the landing zone
  /// and are re-seen by every scan, from being double counted.
  bool Observe(const FileObservation& obs);

  /// Folds a batch. With a pool, shards fold concurrently; the result is
  /// bit-identical to the inline path (each cluster lives in exactly one
  /// shard and shard state is only ever touched by its owner). Budget
  /// eviction runs once, after the batch. Returns the number admitted.
  size_t ObserveBatch(const std::vector<FileObservation>& batch,
                      ThreadPool* pool = nullptr);

  /// Retained names.
  size_t size() const { return by_name_.size(); }
  /// Live template clusters.
  size_t cluster_count() const;
  /// Cumulative activity (fold counters live per shard, so this sums).
  Stats stats() const;

  /// Induces an AtomicFeed per live cluster — same result contract as
  /// DiscoverFeeds (feeds/outliers split by min_support, each sorted by
  /// file count descending then pattern). With a pool, shards induce
  /// concurrently.
  DiscoveryResult Induce(const DiscoveryOptions& options,
                         ThreadPool* pool = nullptr) const;

  /// Induction over the retained names NOT in `exclude` — the daemon
  /// discovers new feeds over files not already explained as false
  /// negatives. Clusters containing no excluded name reuse their
  /// incremental state; affected clusters are rebuilt from the retained
  /// names (both against the reduced population total).
  DiscoveryResult InduceExcluding(const std::set<std::string>& exclude,
                                  const DiscoveryOptions& options) const;

  /// All retained names grouped by their single-name generalization, each
  /// group in arrival order — the false-negative detector's affected-file
  /// index. Computed on demand (one pass over the retained corpus, which
  /// the retention budget bounds); the hot fold path stays free of
  /// per-name generalization cost.
  std::map<std::string, std::vector<std::string>> GeneralizedBuckets() const;
  /// One bucket of the above.
  std::vector<std::string> GeneralizedBucket(const std::string& pattern) const;

 private:
  struct Exemplar {
    std::string name;
    std::vector<std::string> digit_values;  // one per digit position
  };
  struct Cluster {
    std::vector<NameToken> shape;
    struct DigitMeta {
      size_t token_index = 0;
      size_t fixed_width = 0;  // tracked across ALL folds, 0 = divergent
    };
    std::vector<DigitMeta> digits;
    std::vector<Exemplar> exemplars;  // reservoir, <= max_exemplars
    std::unordered_map<std::string, size_t> exemplar_slot;  // name -> index
    size_t file_count = 0;  // retained members (decremented on shed)
    uint64_t folds = 0;     // lifetime members (reservoir counter)

    /// Bumped whenever the analysis *inputs* change: shape creation, a
    /// width divergence, any exemplar admission/replacement/removal.
    /// A bare file_count change does NOT bump it — the cached result
    /// below is re-scaled instead (support and files_per_interval are
    /// the only outputs that depend on it).
    uint64_t version = 0;
    /// Memoized AnalyzeClusterEvidence result (valid while
    /// analyzed_version == version and the domain cap matches).
    mutable AtomicFeed analyzed;
    mutable uint64_t analyzed_version = ~0ull;
    mutable size_t analyzed_domain_cap = 0;
    mutable size_t analyzed_stamps = 0;  // distinct data intervals seen
  };
  struct Shard {
    /// Hash map on purpose: signature strings share long prefixes, so
    /// ordered-map probes degenerate into expensive compares. Induction
    /// output stays deterministic because results are sorted at the end.
    std::unordered_map<std::string, Cluster> clusters;  // signature -> cluster
    Rng rng{0};
    uint64_t folds = 0;         // shard-local so parallel folds don't race
    uint64_t new_clusters = 0;
  };
  struct Retained {
    TimePoint arrival = 0;
    uint64_t id = 0;
    uint32_t shard = 0;
    /// Key of the owning cluster (stable: unordered_map nodes don't move,
    /// and a cluster outlives its members by construction).
    const std::string* signature = nullptr;
  };

  size_t max_corpus() const {
    return static_cast<size_t>(options_.max_corpus);
  }
  uint32_t ShardOf(const std::string& name) const;
  /// Tokenize + fold into the owning shard; returns the owning cluster's
  /// signature key. Only touches shard state.
  const std::string* FoldIntoShard(uint32_t shard, const FileObservation& obs);
  void EvictOldest();
  ClusterEvidence ToEvidence(const Cluster& cluster) const;
  /// AnalyzeClusterEvidence through the per-cluster memo: clusters whose
  /// evidence is unchanged since the last cycle reuse the cached feed
  /// with file_count/support/files_per_interval re-scaled (bit-identical
  /// to a fresh analysis — those are the only count-dependent outputs).
  AtomicFeed AnalyzeCluster(const Cluster& cluster, size_t total,
                            const DiscoveryOptions& options) const;

  Options options_;
  Stats stats_;  // shed + duplicates only; fold counters live per shard
  std::vector<Shard> shards_;
  std::unordered_map<std::string, Retained> by_name_;
  std::unordered_set<uint64_t> ids_;
  /// Arrival order, front = oldest; points at by_name_ keys (stable).
  std::deque<const std::string*> fifo_;
};

/// Streaming counterpart of FeedAnalyzer: same reports, produced from an
/// IncrementalCorpus instead of per-cycle re-analysis. Both analyzers
/// share the report builders in analyzer.h, so on an unsheared corpus the
/// outputs are identical (tested); the difference is cost — a cycle here
/// is O(live clusters), not O(retained names × registered groups).
class IncrementalAnalyzer {
 public:
  /// The corpus bounds (for the unmatched corpus and each matched-feed
  /// sample) plus the batch analyzer's thresholds. `workers` threads fold
  /// and induce shards; 0 = inline (the deterministic default; results
  /// are identical either way).
  struct Options : IncrementalCorpus::Options {
    explicit Options(const AnalyzerTuningSpec& tuning = {})
        : IncrementalCorpus::Options(tuning) {}
    /// Thresholds shared with the batch analyzer.
    FeedAnalyzer::Options analyzer;
  };

  /// `metrics` may be null (no instrumentation).
  IncrementalAnalyzer(const FeedRegistry* registry, Logger* logger,
                      MetricsRegistry* metrics, Options options = Options());
  ~IncrementalAnalyzer();

  /// Feeds unmatched names; duplicates (by id / name) are dropped.
  /// Returns the number admitted into the corpus.
  size_t ObserveUnmatched(const std::vector<FileObservation>& batch);
  bool ObserveUnmatched(const FileObservation& obs);

  /// Feeds names classified into `feed`, for false-positive analysis.
  void ObserveMatched(const FeedName& feed, const FileObservation& obs);

  struct CycleResult {
    std::vector<NewFeedSuggestion> new_feeds;
    std::vector<FalseNegativeReport> false_negatives;
    std::vector<FalsePositiveReport> false_positives;
  };
  /// One full analysis cycle (the daemon's composition): FN detection,
  /// then new-feed discovery over the names *not* explained as false
  /// negatives, then FP reports per observed feed.
  CycleResult RunCycle();

  // Piecewise API mirroring FeedAnalyzer.
  std::vector<NewFeedSuggestion> DiscoverNewFeeds();
  std::vector<FalseNegativeReport> DetectFalseNegatives();
  std::vector<FalsePositiveReport> DetectFalsePositives(const FeedName& feed);

  const IncrementalCorpus& corpus() const { return unmatched_; }
  const Options& options() const { return options_; }

 private:
  ThreadPool* pool() { return pool_.get(); }
  void PublishMetrics();

  const FeedRegistry* registry_;
  Logger* logger_;
  Options options_;
  IncrementalCorpus unmatched_;
  /// Per-feed matched-sample corpora (std::map: deterministic FP order).
  std::map<FeedName, IncrementalCorpus> matched_;
  std::unique_ptr<ThreadPool> pool_;

  Counter* folds_counter_ = nullptr;
  Counter* new_clusters_counter_ = nullptr;
  Counter* shed_counter_ = nullptr;
  Counter* duplicates_counter_ = nullptr;
  Gauge* corpus_gauge_ = nullptr;
  Histogram* cycle_hist_ = nullptr;
  IncrementalCorpus::Stats reported_;  // last published (counter deltas)
};

}  // namespace bistro

#endif  // BISTRO_ANALYZER_STREAM_H_
