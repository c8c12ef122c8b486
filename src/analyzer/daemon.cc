#include "analyzer/daemon.h"

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

namespace {

IncrementalAnalyzer::Options StreamOptions(const AnalyzerDaemon::Options& o) {
  IncrementalAnalyzer::Options stream;
  stream.analyzer = o.analyzer;
  stream.workers = static_cast<size_t>(o.workers);
  stream.corpus.shards = static_cast<size_t>(o.shards);
  stream.corpus.max_corpus = static_cast<size_t>(o.max_corpus);
  stream.corpus.max_exemplars = o.max_exemplars;
  return stream;
}

}  // namespace

AnalyzerDaemon::AnalyzerDaemon(BistroServer* server, EventLoop* loop,
                               Logger* logger, Options options)
    : server_(server),
      loop_(loop),
      logger_(logger),
      options_(options),
      incremental_(server->registry(), logger, server->metrics(),
                   StreamOptions(options)) {
  MetricsRegistry* metrics = server->metrics();
  passes_counter_ = metrics->GetCounter("bistro_analyzer_passes_total",
                                        "Analysis passes completed");
  suggestions_counter_ = metrics->GetCounter(
      "bistro_analyzer_suggestions_total",
      "New-feed, false-negative and false-positive reports generated");
  unmatched_gauge_ = metrics->GetGauge(
      "bistro_analyzer_unmatched_retained",
      "Unmatched file observations currently retained");
}

AnalyzerDaemon::~AnalyzerDaemon() = default;

void AnalyzerDaemon::Start() {
  if (started_) return;
  started_ = true;
  loop_->PostAfter(options_.cycle_interval,
                   [weak = std::weak_ptr<char>(alive_), this] {
                     if (!weak.lock()) return;
                     RunOnce();
                     started_ = false;
                     Start();
                   });
}

void AnalyzerDaemon::ObserveMatched(const FeedName& feed,
                                    const std::string& name, TimePoint when) {
  incremental_.ObserveMatched(feed, {name, when, Fnv1a64(name)});
}

void AnalyzerDaemon::RunOnce() {
  ++passes_;
  // The drained stream may re-deliver names already folded in (unmatched
  // files survive in the landing zone and are re-scanned every tick);
  // the corpus dedupes them by FileId.
  incremental_.ObserveUnmatched(server_->DrainUnmatched());
  IncrementalAnalyzer::CycleResult cycle = incremental_.RunCycle();
  new_feeds_ = std::move(cycle.new_feeds);
  false_negatives_ = std::move(cycle.false_negatives);
  false_positives_ = std::move(cycle.false_positives);
  passes_counter_->Increment();
  suggestions_counter_->Increment(new_feeds_.size() + false_negatives_.size() +
                                  false_positives_.size());
  unmatched_gauge_->Set(static_cast<int64_t>(incremental_.corpus().size()));
  logger_->Info(
      "analyzer",
      StrFormat("analysis pass %zu: %zu new-feed suggestions, %zu FN "
                "reports, %zu FP reports (%zu unmatched files retained)",
                passes_, new_feeds_.size(), false_negatives_.size(),
                false_positives_.size(), incremental_.corpus().size()));
}

}  // namespace bistro
