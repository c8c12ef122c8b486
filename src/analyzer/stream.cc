#include "analyzer/stream.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

namespace {

/// Observation identity: the server's FileId when it assigned one, else a
/// stable name hash (unmatched files never get a receipt, but their names
/// are unique per §3.1 — the same assumption the scan-dedupe in
/// ScanLandingZone relies on).
uint64_t ObservationId(const FileObservation& obs) {
  return obs.id != 0 ? obs.id : Fnv1a64(obs.name);
}

bool BySupport(const AtomicFeed& a, const AtomicFeed& b) {
  return a.file_count != b.file_count ? a.file_count > b.file_count
                                      : a.pattern < b.pattern;
}

/// Splits induced groups into feeds/outliers and sorts both — the same
/// result contract DiscoverFeeds has.
DiscoveryResult SplitAndSort(std::vector<AtomicFeed> groups,
                             const DiscoveryOptions& options) {
  DiscoveryResult result;
  for (AtomicFeed& feed : groups) {
    if (feed.file_count < options.min_support) {
      result.outliers.push_back(std::move(feed));
    } else {
      result.feeds.push_back(std::move(feed));
    }
  }
  std::sort(result.feeds.begin(), result.feeds.end(), BySupport);
  std::sort(result.outliers.begin(), result.outliers.end(), BySupport);
  return result;
}

}  // namespace

// ===================================================== IncrementalCorpus

IncrementalCorpus::IncrementalCorpus(Options options) : options_(options) {
  options_.shards = std::max(options_.shards, 1);
  if (options_.max_exemplars == 0) options_.max_exemplars = 1;
  shards_.resize(static_cast<size_t>(options_.shards));
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].rng = Rng(options_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
  }
  // Size the dedupe indexes for the retention budget up front (capped, in
  // case the budget is effectively unbounded) — growth rehashes are pure
  // overhead on the hot fold path.
  const size_t reserve = std::min<size_t>(max_corpus(), 1 << 20);
  by_name_.reserve(reserve);
  ids_.reserve(reserve);
}

uint32_t IncrementalCorpus::ShardOf(const std::string& name) const {
  // Shard key: the leading alphabetic stem ("MEMORY" of
  // "MEMORY_POLLER1_..."). Every member of a cluster shares its full
  // alpha/separator text, so a cluster always lives in exactly one shard.
  size_t begin = 0;
  while (begin < name.size() && !std::isalpha(static_cast<unsigned char>(name[begin]))) {
    ++begin;
  }
  size_t end = begin;
  while (end < name.size() && std::isalpha(static_cast<unsigned char>(name[end]))) {
    ++end;
  }
  return static_cast<uint32_t>(
      Fnv1a64(std::string_view(name).substr(begin, end - begin)) %
      shards_.size());
}

const std::string* IncrementalCorpus::FoldIntoShard(uint32_t shard_index,
                                                    const FileObservation& obs) {
  // Observations from the server carry the classifier's tokenization;
  // only bare observations (tests, replayed corpora) re-tokenize here.
  std::vector<NameToken> scratch;
  if (obs.tokens.empty()) scratch = TokenizeName(obs.name);
  const std::vector<NameToken>& tokens =
      obs.tokens.empty() ? scratch : obs.tokens;
  std::string signature = NameSignature(tokens);

  Shard& shard = shards_[shard_index];
  auto [it, created] = shard.clusters.try_emplace(std::move(signature));
  Cluster& cluster = it->second;
  if (created) {
    cluster.shape = tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind == NameToken::Kind::kDigits) {
        cluster.digits.push_back({i, tokens[i].text.size()});
      }
    }
    ++shard.new_clusters;
    ++cluster.version;
  } else {
    ++shard.folds;
  }
  ++cluster.file_count;
  ++cluster.folds;

  // Reservoir decision first (Algorithm R: keep with probability
  // max_exemplars / folds), so the common rejected fold never pays for
  // assembling an exemplar row it would throw away.
  size_t slot = cluster.exemplars.size();
  bool admit = slot < options_.max_exemplars;
  if (!admit) {
    uint64_t j = shard.rng.Uniform(cluster.folds);
    if (j < cluster.exemplars.size()) {
      admit = true;
      slot = static_cast<size_t>(j);
    }
  }

  // Fold the digit values: width consistency is tracked across every
  // member ever folded (cheap), exemplar rows only for admitted samples.
  Exemplar exemplar;
  if (admit) {
    exemplar.name = obs.name;
    exemplar.digit_values.reserve(cluster.digits.size());
  }
  size_t dc = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != NameToken::Kind::kDigits) continue;
    Cluster::DigitMeta& dm = cluster.digits[dc++];
    if (dm.fixed_width != tokens[i].text.size() && dm.fixed_width != 0) {
      dm.fixed_width = 0;
      ++cluster.version;
    }
    if (admit) exemplar.digit_values.push_back(std::move(tokens[i].text));
  }
  if (admit) {
    if (slot == cluster.exemplars.size()) {
      cluster.exemplar_slot[exemplar.name] = slot;
      cluster.exemplars.push_back(std::move(exemplar));
    } else {
      cluster.exemplar_slot.erase(cluster.exemplars[slot].name);
      cluster.exemplar_slot[exemplar.name] = slot;
      cluster.exemplars[slot] = std::move(exemplar);
    }
    ++cluster.version;
  }
  return &it->first;
}

bool IncrementalCorpus::Observe(const FileObservation& obs) {
  uint64_t id = ObservationId(obs);
  if (ids_.count(id) != 0) {
    ++stats_.duplicates;
    return false;
  }
  auto [it, inserted] = by_name_.try_emplace(obs.name);
  if (!inserted) {
    ++stats_.duplicates;
    return false;
  }
  Retained& retained = it->second;
  retained.arrival = obs.arrival_time;
  retained.id = id;
  retained.shard = ShardOf(obs.name);
  retained.signature = FoldIntoShard(retained.shard, obs);
  fifo_.push_back(&it->first);
  ids_.insert(id);
  while (fifo_.size() > max_corpus()) EvictOldest();
  return true;
}

size_t IncrementalCorpus::ObserveBatch(
    const std::vector<FileObservation>& batch, ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() == 0) {
    size_t admitted = 0;
    for (const auto& obs : batch) {
      if (Observe(obs)) ++admitted;
    }
    return admitted;
  }

  // Parallel fold. Phase 1 (serial): dedupe, shard, and commit the global
  // index in arrival order (fold results are not needed for any of that).
  // Phase 2: one task per shard folds that shard's names in arrival order
  // — shard state, including its fold counters and reservoir rng, is only
  // ever touched by its owner, so the result is identical to the inline
  // path. Phase 3 (serial): enforce the retention budget once for the
  // whole batch (FIFO eviction sheds the same oldest names either way).
  struct Pending {
    const FileObservation* obs;
    Retained* retained;
  };
  std::vector<std::vector<Pending>> per_shard(shards_.size());
  size_t admitted = 0;
  for (const auto& obs : batch) {
    uint64_t id = ObservationId(obs);
    if (ids_.count(id) != 0) {
      ++stats_.duplicates;
      continue;
    }
    auto [it, inserted] = by_name_.try_emplace(obs.name);
    if (!inserted) {
      ++stats_.duplicates;
      continue;
    }
    Retained& retained = it->second;
    retained.arrival = obs.arrival_time;
    retained.id = id;
    retained.shard = ShardOf(obs.name);
    fifo_.push_back(&it->first);
    ids_.insert(id);
    per_shard[retained.shard].push_back({&obs, &retained});
    ++admitted;
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    pool->Submit([this, s, &per_shard] {
      for (Pending& p : per_shard[s]) {
        p.retained->signature =
            FoldIntoShard(static_cast<uint32_t>(s), *p.obs);
      }
    });
  }
  pool->Wait();

  while (fifo_.size() > max_corpus()) EvictOldest();
  return admitted;
}

void IncrementalCorpus::EvictOldest() {
  const std::string* name = fifo_.front();
  fifo_.pop_front();
  auto rit = by_name_.find(*name);
  Retained& retained = rit->second;

  Shard& shard = shards_[retained.shard];
  auto cit = shard.clusters.find(*retained.signature);
  Cluster& cluster = cit->second;
  --cluster.file_count;
  auto slot_it = cluster.exemplar_slot.find(*name);
  if (slot_it != cluster.exemplar_slot.end()) {
    size_t slot = slot_it->second;
    cluster.exemplar_slot.erase(slot_it);
    size_t last = cluster.exemplars.size() - 1;
    if (slot != last) {
      cluster.exemplars[slot] = std::move(cluster.exemplars[last]);
      cluster.exemplar_slot[cluster.exemplars[slot].name] = slot;
    }
    cluster.exemplars.pop_back();
    ++cluster.version;
  }
  if (cluster.file_count == 0) shard.clusters.erase(cit);

  ids_.erase(retained.id);
  by_name_.erase(rit);
  ++stats_.shed;
}

size_t IncrementalCorpus::cluster_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) n += shard.clusters.size();
  return n;
}

IncrementalCorpus::Stats IncrementalCorpus::stats() const {
  Stats s = stats_;
  for (const Shard& shard : shards_) {
    s.folds += shard.folds;
    s.new_clusters += shard.new_clusters;
  }
  return s;
}

ClusterEvidence IncrementalCorpus::ToEvidence(const Cluster& cluster) const {
  ClusterEvidence ev;
  ev.shape = cluster.shape;
  ev.file_count = cluster.file_count;
  ev.digits.reserve(cluster.digits.size());
  for (const auto& dm : cluster.digits) {
    ClusterEvidence::Digit digit;
    digit.token_index = dm.token_index;
    digit.fixed_width = dm.fixed_width;
    digit.values.reserve(cluster.exemplars.size());
    ev.digits.push_back(std::move(digit));
  }
  ev.names.reserve(cluster.exemplars.size());
  for (const Exemplar& ex : cluster.exemplars) {
    ev.names.push_back(ex.name);
    for (size_t d = 0; d < ex.digit_values.size(); ++d) {
      ev.digits[d].values.push_back(ex.digit_values[d]);
    }
  }
  return ev;
}

AtomicFeed IncrementalCorpus::AnalyzeCluster(
    const Cluster& cluster, size_t total,
    const DiscoveryOptions& options) const {
  if (cluster.analyzed_version != cluster.version ||
      cluster.analyzed_domain_cap != options.max_categorical_domain) {
    cluster.analyzed = AnalyzeClusterEvidence(ToEvidence(cluster), total,
                                              options,
                                              &cluster.analyzed_stamps);
    cluster.analyzed_version = cluster.version;
    cluster.analyzed_domain_cap = options.max_categorical_domain;
    return cluster.analyzed;
  }
  // Evidence unchanged since the memoized analysis: only the population
  // counts can differ (reservoir-rejected folds, non-exemplar evictions,
  // a different corpus total). Re-derive the count-dependent outputs with
  // the exact expressions AnalyzeClusterEvidence uses.
  AtomicFeed feed = cluster.analyzed;
  feed.file_count = cluster.file_count;
  feed.support =
      static_cast<double>(feed.file_count) / static_cast<double>(total);
  if (cluster.analyzed_stamps > 0) {
    feed.files_per_interval =
        static_cast<double>(feed.file_count) /
        static_cast<double>(cluster.analyzed_stamps);
  }
  return feed;
}

DiscoveryResult IncrementalCorpus::Induce(const DiscoveryOptions& options,
                                          ThreadPool* pool) const {
  const size_t total = size();
  if (total == 0) return {};

  std::vector<std::vector<AtomicFeed>> per_shard(shards_.size());
  auto induce_shard = [this, total, &options, &per_shard](size_t s) {
    for (const auto& [sig, cluster] : shards_[s].clusters) {
      per_shard[s].push_back(AnalyzeCluster(cluster, total, options));
    }
  };
  if (pool != nullptr && pool->num_threads() > 0) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].clusters.empty()) continue;
      pool->Submit([&induce_shard, s] { induce_shard(s); });
    }
    pool->Wait();
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) induce_shard(s);
  }

  std::vector<AtomicFeed> all;
  for (auto& groups : per_shard) {
    for (auto& feed : groups) all.push_back(std::move(feed));
  }
  return SplitAndSort(std::move(all), options);
}

DiscoveryResult IncrementalCorpus::InduceExcluding(
    const std::set<std::string>& exclude,
    const DiscoveryOptions& options) const {
  // Which clusters actually contain an excluded name? Untouched clusters
  // reuse their incremental state against the reduced population.
  size_t excluded_retained = 0;
  std::set<std::string> affected;
  for (const auto& name : exclude) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) continue;
    ++excluded_retained;
    affected.insert(*it->second.signature);
  }
  if (excluded_retained == 0) return Induce(options);
  const size_t total = size() - excluded_retained;
  if (total == 0) return {};

  std::vector<AtomicFeed> all;
  for (const Shard& shard : shards_) {
    for (const auto& [sig, cluster] : shard.clusters) {
      if (affected.count(sig) != 0) continue;
      all.push_back(AnalyzeCluster(cluster, total, options));
    }
  }
  // Rebuild affected clusters from their surviving retained names, in
  // arrival order — exactly the cluster the batch path would form over
  // the unexplained subset.
  std::map<std::string, ClusterEvidence> rebuilt;
  for (const std::string* name_ptr : fifo_) {
    const std::string& name = *name_ptr;
    if (exclude.count(name) != 0) continue;
    const Retained& retained = by_name_.at(name);
    if (affected.count(*retained.signature) == 0) continue;
    auto tokens = TokenizeName(name);
    ClusterEvidence& ev = rebuilt[*retained.signature];
    if (ev.names.empty()) {
      ev.shape = tokens;
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind == NameToken::Kind::kDigits) {
          ev.digits.push_back({i, tokens[i].text.size(), {}});
        }
      }
    }
    ev.names.push_back(name);
    ++ev.file_count;
    size_t dc = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind != NameToken::Kind::kDigits) continue;
      ClusterEvidence::Digit& dp = ev.digits[dc++];
      if (dp.fixed_width != tokens[i].text.size()) dp.fixed_width = 0;
      dp.values.push_back(std::move(tokens[i].text));
    }
  }
  for (const auto& [sig, ev] : rebuilt) {
    all.push_back(AnalyzeClusterEvidence(ev, total, options));
  }
  return SplitAndSort(std::move(all), options);
}

std::map<std::string, std::vector<std::string>>
IncrementalCorpus::GeneralizedBuckets() const {
  std::map<std::string, std::vector<std::string>> buckets;
  for (const std::string* name : fifo_) {
    buckets[GeneralizeName(*name)].push_back(*name);
  }
  return buckets;
}

std::vector<std::string> IncrementalCorpus::GeneralizedBucket(
    const std::string& pattern) const {
  std::vector<std::string> bucket;
  for (const std::string* name : fifo_) {
    if (GeneralizeName(*name) == pattern) bucket.push_back(*name);
  }
  return bucket;
}

// ==================================================== IncrementalAnalyzer

IncrementalAnalyzer::IncrementalAnalyzer(const FeedRegistry* registry,
                                         Logger* logger,
                                         MetricsRegistry* metrics,
                                         Options options)
    : registry_(registry),
      logger_(logger),
      options_(options),
      unmatched_(options) {
  if (options_.workers > 0) {
    pool_ =
        std::make_unique<ThreadPool>(static_cast<size_t>(options_.workers));
  }
  if (metrics != nullptr) {
    folds_counter_ = metrics->GetCounter(
        "bistro_analyzer_folds_total",
        "Unmatched names folded into an existing template cluster");
    new_clusters_counter_ = metrics->GetCounter(
        "bistro_analyzer_new_clusters_total",
        "Unmatched names that opened a new candidate cluster");
    shed_counter_ = metrics->GetCounter(
        "bistro_analyzer_shed_total",
        "Names evicted from the analyzer corpus by the retention budget");
    duplicates_counter_ = metrics->GetCounter(
        "bistro_analyzer_duplicates_total",
        "Re-observed unmatched names dropped by FileId dedupe");
    corpus_gauge_ = metrics->GetGauge(
        "bistro_analyzer_corpus_retained",
        "Names retained in the incremental unmatched corpus");
    cycle_hist_ = metrics->GetHistogram("bistro_analyzer_cycle_us",
                                        "Incremental analysis cycle latency");
  }
}

IncrementalAnalyzer::~IncrementalAnalyzer() {
  if (pool_ != nullptr) pool_->Shutdown();
}

void IncrementalAnalyzer::PublishMetrics() {
  if (corpus_gauge_ == nullptr) return;
  const IncrementalCorpus::Stats s = unmatched_.stats();
  folds_counter_->Increment(s.folds - reported_.folds);
  new_clusters_counter_->Increment(s.new_clusters - reported_.new_clusters);
  shed_counter_->Increment(s.shed - reported_.shed);
  duplicates_counter_->Increment(s.duplicates - reported_.duplicates);
  corpus_gauge_->Set(static_cast<int64_t>(unmatched_.size()));
  reported_ = s;
}

size_t IncrementalAnalyzer::ObserveUnmatched(
    const std::vector<FileObservation>& batch) {
  size_t admitted = unmatched_.ObserveBatch(batch, pool());
  PublishMetrics();
  return admitted;
}

bool IncrementalAnalyzer::ObserveUnmatched(const FileObservation& obs) {
  bool admitted = unmatched_.Observe(obs);
  PublishMetrics();
  return admitted;
}

void IncrementalAnalyzer::ObserveMatched(const FeedName& feed,
                                         const FileObservation& obs) {
  auto it = matched_.try_emplace(feed, options_).first;
  it->second.Observe(obs);
}

std::vector<NewFeedSuggestion> IncrementalAnalyzer::DiscoverNewFeeds() {
  DiscoveryResult discovered =
      unmatched_.Induce(options_.analyzer.discovery, pool());
  return BuildNewFeedSuggestions(std::move(discovered.feeds), logger_);
}

std::vector<FalseNegativeReport> IncrementalAnalyzer::DetectFalseNegatives() {
  DiscoveryOptions grouping = options_.analyzer.discovery;
  grouping.min_support = 1;
  DiscoveryResult groups = unmatched_.Induce(grouping, pool());
  std::vector<AtomicFeed> all = std::move(groups.feeds);
  all.insert(all.end(), groups.outliers.begin(), groups.outliers.end());
  // One generalization pass over the (bounded) retained corpus serves
  // every group lookup this cycle.
  auto buckets = unmatched_.GeneralizedBuckets();
  auto collect = [&buckets](const AtomicFeed& group) {
    auto it = buckets.find(group.pattern);
    return it != buckets.end() ? it->second : std::vector<std::string>{};
  };
  return BuildFalseNegativeReports(all, collect, *registry_,
                                   options_.analyzer.fn_threshold, logger_);
}

std::vector<FalsePositiveReport> IncrementalAnalyzer::DetectFalsePositives(
    const FeedName& feed) {
  auto it = matched_.find(feed);
  if (it == matched_.end() || it->second.size() == 0) return {};
  DiscoveryOptions grouping = options_.analyzer.discovery;
  grouping.min_support = 1;
  DiscoveryResult groups = it->second.Induce(grouping, pool());
  std::vector<AtomicFeed> all = std::move(groups.feeds);
  all.insert(all.end(), groups.outliers.begin(), groups.outliers.end());
  return BuildFalsePositiveReports(feed, std::move(all),
                                   options_.analyzer.fp_max_support, logger_);
}

IncrementalAnalyzer::CycleResult IncrementalAnalyzer::RunCycle() {
  auto start = std::chrono::steady_clock::now();
  CycleResult result;
  result.false_negatives = DetectFalseNegatives();
  // New-feed discovery runs on unmatched files NOT explained as false
  // negatives of an existing feed — those are new subfeeds.
  std::set<std::string> explained;
  for (const auto& report : result.false_negatives) {
    for (const auto& f : report.files) explained.insert(f);
  }
  DiscoveryResult discovered =
      explained.empty()
          ? unmatched_.Induce(options_.analyzer.discovery, pool())
          : unmatched_.InduceExcluding(explained, options_.analyzer.discovery);
  result.new_feeds = BuildNewFeedSuggestions(std::move(discovered.feeds),
                                             logger_);
  for (const auto& [feed, corpus] : matched_) {
    auto reports = DetectFalsePositives(feed);
    for (auto& r : reports) result.false_positives.push_back(std::move(r));
  }
  PublishMetrics();
  if (cycle_hist_ != nullptr) {
    cycle_hist_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  return result;
}

}  // namespace bistro
