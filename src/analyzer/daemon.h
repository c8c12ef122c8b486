#ifndef BISTRO_ANALYZER_DAEMON_H_
#define BISTRO_ANALYZER_DAEMON_H_

#include <memory>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/stream.h"
#include "core/server.h"
#include "sim/event_loop.h"

namespace bistro {

/// Continuous feed analysis (paper §3.2/§5: the analyzer "continuously
/// monitors a stream of incoming data files ... and periodically
/// generates a list of new feed definitions").
///
/// Every `interval` the daemon drains the server's unmatched-file stream
/// into an IncrementalCorpus — names fold into their template clusters as
/// they arrive, deduplicated by FileId (unmatched files stay in the
/// landing zone and are re-seen by every scan) — and regenerates three
/// report sets: new-feed suggestions, false-negative reports (with
/// ready-to-apply revised specs) and — for each registered feed, from a
/// sample of its matched names — false-positive reports. A cycle costs
/// O(new names + live clusters) rather than re-clustering the retained
/// history, and memory is bounded by the corpus retention budget
/// (DESIGN.md §11). Reports are never applied automatically; they are
/// exposed for subscriber review (§3.2).
class AnalyzerDaemon {
 public:
  /// The config's `analyzer { }` block plus the knobs without a key.
  struct Options : AnalyzerTuningSpec {
    explicit Options(const AnalyzerTuningSpec& tuning = {})
        : AnalyzerTuningSpec(tuning) {}
    FeedAnalyzer::Options analyzer;
    /// Per-cluster exemplar reservoir size.
    size_t max_exemplars = 512;
  };

  AnalyzerDaemon(BistroServer* server, EventLoop* loop, Logger* logger,
                 Options options = Options());
  ~AnalyzerDaemon();

  /// Starts the periodic analysis timer.
  void Start();

  /// Runs one analysis pass now (also usable without Start()).
  void RunOnce();

  /// Feeds classified names for FP analysis (the server does not retain
  /// matched names; callers tap them in, e.g. from a delivery hook).
  void ObserveMatched(const FeedName& feed, const std::string& name,
                      TimePoint when);

  const std::vector<NewFeedSuggestion>& new_feed_suggestions() const {
    return new_feeds_;
  }
  const std::vector<FalseNegativeReport>& false_negatives() const {
    return false_negatives_;
  }
  const std::vector<FalsePositiveReport>& false_positives() const {
    return false_positives_;
  }
  size_t passes() const { return passes_; }
  /// Names currently retained in the unmatched corpus.
  size_t corpus_size() const { return incremental_.corpus().size(); }

 private:
  BistroServer* server_;
  EventLoop* loop_;
  Logger* logger_;
  Options options_;
  IncrementalAnalyzer incremental_;
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  bool started_ = false;

  Counter* passes_counter_;
  Counter* suggestions_counter_;
  Gauge* unmatched_gauge_;

  std::vector<NewFeedSuggestion> new_feeds_;
  std::vector<FalseNegativeReport> false_negatives_;
  std::vector<FalsePositiveReport> false_positives_;
  size_t passes_ = 0;
};

}  // namespace bistro

#endif  // BISTRO_ANALYZER_DAEMON_H_
