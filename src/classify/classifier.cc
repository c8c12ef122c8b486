#include "classify/classifier.h"

#include <algorithm>

namespace bistro {

FeedClassifier::TrieNode* FeedClassifier::TrieNode::Child(char c) const {
  auto it = std::lower_bound(
      children.begin(), children.end(), c,
      [](const auto& entry, char key) { return entry.first < key; });
  if (it == children.end() || it->first != c) return nullptr;
  return it->second.get();
}

FeedClassifier::TrieNode* FeedClassifier::TrieNode::ChildOrNew(char c) {
  auto it = std::lower_bound(
      children.begin(), children.end(), c,
      [](const auto& entry, char key) { return entry.first < key; });
  if (it != children.end() && it->first == c) return it->second.get();
  it = children.emplace(it, c, std::make_unique<TrieNode>());
  return it->second.get();
}

FeedClassifier::FeedClassifier(const FeedRegistry* registry, IndexMode mode)
    : registry_(registry), mode_(mode) {
  Rebuild();
}

void FeedClassifier::RebuildAutomatonLocked() const {
  std::shared_ptr<const FeedAutomaton> fresh = FeedAutomaton::Compile(*registry_);
  if (rebuilds_metric_ != nullptr) {
    const AutomatonStats& s = fresh->stats();
    rebuilds_metric_->Increment();
    states_metric_->Set(static_cast<int64_t>(s.dfa_states));
    accept_sets_metric_->Set(static_cast<int64_t>(s.accept_sets));
    memory_metric_->Set(static_cast<int64_t>(s.memory_bytes));
    compile_metric_->Record(static_cast<int64_t>(s.compile_micros));
  }
  snapshot_.store(std::move(fresh), std::memory_order_release);
}

void FeedClassifier::Rebuild() {
  if (mode_ == IndexMode::kAutomaton) {
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    RebuildAutomatonLocked();
    return;
  }
  root_ = std::make_unique<TrieNode>();
  if (mode_ != IndexMode::kPrefixIndex) return;
  for (const RegisteredFeed* feed : registry_->feeds()) {
    Insert(feed, &feed->pattern);
    for (const Pattern& alt : feed->alts) Insert(feed, &alt);
  }
}

void FeedClassifier::AttachMetrics(MetricsRegistry* metrics) {
  rebuilds_metric_ = metrics->GetCounter(
      "bistro_classifier_rebuilds_total",
      "Feed-table automaton recompilations (feed revisions)");
  states_metric_ = metrics->GetGauge("bistro_classifier_dfa_states",
                                     "DFA states in the compiled feed table");
  accept_sets_metric_ =
      metrics->GetGauge("bistro_classifier_accept_sets",
                        "Distinct terminal (feed, pattern) accept sets");
  memory_metric_ = metrics->GetGauge(
      "bistro_classifier_table_bytes",
      "Resident footprint of the compiled classifier tables");
  compile_metric_ = metrics->GetHistogram(
      "bistro_classifier_compile_micros",
      "Feed-table automaton compile time in microseconds");
  // Surface the stats of the snapshot compiled before metrics attached.
  if (auto snap = automaton()) {
    const AutomatonStats& s = snap->stats();
    states_metric_->Set(static_cast<int64_t>(s.dfa_states));
    accept_sets_metric_->Set(static_cast<int64_t>(s.accept_sets));
    memory_metric_->Set(static_cast<int64_t>(s.memory_bytes));
  }
}

void FeedClassifier::Insert(const RegisteredFeed* feed, const Pattern* pattern) {
  TrieNode* node = root_.get();
  for (char c : pattern->literal_prefix()) node = node->ChildOrNew(c);
  node->candidates.emplace_back(feed, pattern);
}

void FeedClassifier::CollectCandidates(const std::string& name,
                                       std::vector<Candidate>* out) const {
  // Walk the trie along the filename; every node passed contributes the
  // candidates whose literal prefix ends there (including the root's
  // prefix-less patterns, which must always be tried).
  const TrieNode* node = root_.get();
  out->insert(out->end(), node->candidates.begin(), node->candidates.end());
  for (char c : name) {
    const TrieNode* child = node->Child(c);
    if (child == nullptr) break;
    node = child;
    out->insert(out->end(), node->candidates.begin(), node->candidates.end());
  }
}

Classification FeedClassifier::ClassifyCandidates(
    const std::string& name) const {
  Classification result;
  std::vector<Candidate> candidates;
  if (mode_ == IndexMode::kPrefixIndex) {
    CollectCandidates(name, &candidates);
  } else {
    for (const RegisteredFeed* feed : registry_->feeds()) {
      candidates.emplace_back(feed, &feed->pattern);
      for (const Pattern& alt : feed->alts) candidates.emplace_back(feed, &alt);
    }
  }
  // A feed may contribute several patterns; it belongs to the result at
  // most once (first matching pattern wins for field extraction). The
  // registry hands out stable RegisteredFeed pointers, so a flat set of
  // pointers dedupes in O(matched) per candidate instead of comparing
  // dotted names against the whole result list.
  std::vector<const RegisteredFeed*> matched_feeds;
  matched_feeds.reserve(4);
  for (const auto& [feed, pattern] : candidates) {
    if (std::find(matched_feeds.begin(), matched_feeds.end(), feed) !=
        matched_feeds.end()) {
      continue;
    }
    candidate_checks_.fetch_add(1, std::memory_order_relaxed);
    // Fields are only extracted for the primary (first) match; every
    // other candidate runs the capture-free accept test, which builds
    // no MatchResult vectors on accept or reject.
    if (result.feeds.empty()) {
      if (!pattern->TryMatch(name, &result.primary_match)) continue;
    } else {
      if (!pattern->Matches(name)) continue;
    }
    matched_feeds.push_back(feed);
    result.feeds.push_back(feed->spec.name);
  }
  return result;
}

Classification FeedClassifier::ClassifyAutomaton(
    const FeedAutomaton& automaton, const std::string& name) const {
  Classification result;
  FeedAutomaton::ScanOutcome scan = automaton.Scan(name);
  if (scan.accepts == nullptr) return result;
  const FeedAutomaton::AcceptSet& accepts = *scan.accepts;
  if (!scan.verify) {
    result.feeds = accepts.feeds;
    automaton.pattern(accepts.primary_pattern)
        .TryMatch(name, &result.primary_match);
    return result;
  }
  // Rare exact-verification path: the name carries a digit run long
  // enough that %i's int64-overflow backoff can disagree with the DFA's
  // digit loops. Re-check each accepted (feed, pattern) with the exact
  // matcher; entries are feed-major, so duplicates are adjacent.
  uint32_t last_feed = 0;
  bool have_feed = false;
  for (const FeedAutomaton::AcceptEntry& e : accepts.entries) {
    if (have_feed && e.feed == last_feed) continue;
    candidate_checks_.fetch_add(1, std::memory_order_relaxed);
    const Pattern& pattern = automaton.pattern(e.pattern);
    if (result.feeds.empty()) {
      if (!pattern.TryMatch(name, &result.primary_match)) continue;
    } else {
      if (!pattern.Matches(name)) continue;
    }
    result.feeds.push_back(automaton.feed_name(e.feed));
    last_feed = e.feed;
    have_feed = true;
  }
  return result;
}

Classification FeedClassifier::Classify(const std::string& name) const {
  if (mode_ == IndexMode::kAutomaton) {
    std::shared_ptr<const FeedAutomaton> snap =
        snapshot_.load(std::memory_order_acquire);
    if (snap == nullptr || snap->version() != registry_->version()) {
      // Lazy rebuild off the registry version bump (the
      // SubscriptionIndex idiom). Serialized so concurrent detections
      // compile once; losers re-read the fresh snapshot.
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      snap = snapshot_.load(std::memory_order_acquire);
      if (snap == nullptr || snap->version() != registry_->version()) {
        RebuildAutomatonLocked();
        snap = snapshot_.load(std::memory_order_acquire);
      }
    }
    files_.fetch_add(1, std::memory_order_relaxed);
    Classification result = ClassifyAutomaton(*snap, name);
    (result.matched() ? matched_ : unmatched_)
        .fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  files_.fetch_add(1, std::memory_order_relaxed);
  Classification result = ClassifyCandidates(name);
  (result.matched() ? matched_ : unmatched_)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

Classification FeedClassifier::ClassifySnapshot(const std::string& name) const {
  if (mode_ != IndexMode::kAutomaton) return Classify(name);
  std::shared_ptr<const FeedAutomaton> snap =
      snapshot_.load(std::memory_order_acquire);
  files_.fetch_add(1, std::memory_order_relaxed);
  Classification result = ClassifyAutomaton(*snap, name);
  (result.matched() ? matched_ : unmatched_)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::string_view IndexModeName(IndexMode mode) {
  switch (mode) {
    case IndexMode::kLinear:
      return "linear";
    case IndexMode::kPrefixIndex:
      return "trie";
    case IndexMode::kAutomaton:
      return "automaton";
  }
  return "automaton";
}

}  // namespace bistro
