#include "delivery/engine.h"

#include "ingest/plan.h"

#include <algorithm>

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

DeliveryEngine::DeliveryEngine(EventLoop* loop, FeedRegistry* registry,
                               ReceiptDatabase* receipts,
                               FileSystem* staging_fs, Transport* transport,
                               DeliveryScheduler* scheduler,
                               TriggerInvoker* invoker, Logger* logger,
                               const DeliveryTuningSpec& tuning,
                               Options options, MetricsRegistry* metrics,
                               FileTracer* tracer)
    : loop_(loop),
      registry_(registry),
      index_(registry),
      receipts_(receipts),
      staging_fs_(staging_fs),
      transport_(transport),
      scheduler_(scheduler),
      invoker_(invoker),
      logger_(logger),
      tuning_(tuning),
      options_(options),
      tracer_(tracer),
      backoff_rng_(options.backoff_seed),
      payload_cache_(staging_fs, static_cast<size_t>(tuning.cache_bytes)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  scheduler_->SetSubscriberWindow(static_cast<size_t>(tuning_.window));
  payload_cache_.AttachMetrics(metrics);
  index_.AttachMetrics(metrics);
  jobs_submitted_ = metrics->GetCounter("bistro_delivery_jobs_submitted_total",
                                        "Transfer jobs handed to the scheduler");
  files_delivered_ = metrics->GetCounter(
      "bistro_delivery_files_delivered_total",
      "Successful push deliveries (file, subscriber pairs)");
  notifications_sent_ = metrics->GetCounter(
      "bistro_delivery_notifications_sent_total",
      "Successful notify-mode deliveries");
  send_failures_ = metrics->GetCounter("bistro_delivery_send_failures_total",
                                       "Failed delivery attempts");
  retries_ = metrics->GetCounter("bistro_delivery_retries_total",
                                 "Jobs requeued after a transient failure");
  parked_ = metrics->GetCounter(
      "bistro_delivery_parked_total",
      "Jobs dropped because the subscriber is offline (backfill recovers them)");
  dead_lettered_ = metrics->GetCounter(
      "bistro_delivery_dead_letter_total",
      "Jobs parked in the dead-letter queue after exhausting retries");
  backfilled_ = metrics->GetCounter(
      "bistro_delivery_backfilled_total",
      "Jobs submitted by receipt-driven queue recomputation");
  staging_reads_ = metrics->GetCounter("bistro_delivery_staging_reads_total",
                                       "Staged files read from the filesystem");
  staging_cache_hits_ = metrics->GetCounter(
      "bistro_delivery_staging_cache_hits_total",
      "Staged reads served from the payload cache");
  coalesced_files_ = metrics->GetCounter(
      "bistro_delivery_coalesced_files_total",
      "Files sent inside multi-file coalesced frames");
  coalesced_frames_ = metrics->GetCounter(
      "bistro_delivery_coalesced_frames_total",
      "Multi-file coalesced frames sent");
  receipt_group_flushes_ = metrics->GetCounter(
      "bistro_delivery_receipt_group_flushes_total",
      "Delivery-receipt group commits flushed by the engine");
  inflight_gauge_ = metrics->GetGauge(
      "bistro_delivery_inflight",
      "Transfer jobs currently in flight (window-limited sends)");
  receipt_buffer_gauge_ = metrics->GetGauge(
      "bistro_delivery_receipt_buffer",
      "Delivery receipts buffered for the next group commit");
  batches_closed_ = metrics->GetCounter("bistro_delivery_batches_closed_total",
                                        "Batches closed across all batchers");
  triggers_invoked_ = metrics->GetCounter(
      "bistro_delivery_triggers_invoked_total", "Trigger invocations");
  trigger_failures_ = metrics->GetCounter(
      "bistro_delivery_trigger_failures_total", "Failed trigger invocations");
  offline_transitions_ = metrics->GetCounter(
      "bistro_delivery_offline_transitions_total",
      "Subscribers flagged offline");
  pending_evicted_ = metrics->GetCounter(
      "bistro_delivery_pending_evicted_total",
      "Pending-dedupe pairs evicted by the size cap");
  pending_pairs_ = metrics->GetGauge(
      "bistro_delivery_pending_pairs",
      "(file, subscriber) pairs currently queued or in flight");
}

void DeliveryEngine::InsertPending(
    const std::pair<FileId, SubscriberName>& key) {
  pending_.insert(key);
  pending_order_.push_back(key);
  // Over the cap: forget the oldest tracked pair. Its job (if any) still
  // runs; only the dedupe memory is lost, so the worst case is one wasted
  // duplicate submit that the receipt check absorbs.
  while (pending_.size() > options_.max_pending_pairs &&
         !pending_order_.empty()) {
    auto oldest = pending_order_.front();
    pending_order_.pop_front();
    if (oldest != key && pending_.erase(oldest) > 0) {
      pending_evicted_->Increment();
    }
  }
  pending_pairs_->Set(static_cast<int64_t>(pending_.size()));
}

void DeliveryEngine::ErasePending(
    const std::pair<FileId, SubscriberName>& key) {
  pending_.erase(key);
  // Lazy compaction: drop dead entries from the front so the order queue
  // tracks the live set instead of all-time insertions.
  while (!pending_order_.empty() &&
         pending_.count(pending_order_.front()) == 0) {
    pending_order_.pop_front();
  }
  pending_pairs_->Set(static_cast<int64_t>(pending_.size()));
}

DeliveryStats DeliveryEngine::stats() const {
  DeliveryStats s;
  s.jobs_submitted = jobs_submitted_->value();
  s.files_delivered = files_delivered_->value();
  s.notifications_sent = notifications_sent_->value();
  s.send_failures = send_failures_->value();
  s.retries = retries_->value();
  s.parked = parked_->value();
  s.dead_lettered = dead_lettered_->value();
  s.backfilled = backfilled_->value();
  s.staging_reads = staging_reads_->value();
  s.staging_cache_hits = staging_cache_hits_->value();
  s.cache_evictions = payload_cache_.evictions();
  s.coalesced_files = coalesced_files_->value();
  s.coalesced_frames = coalesced_frames_->value();
  s.receipt_group_flushes = receipt_group_flushes_->value();
  s.batches_closed = batches_closed_->value();
  s.triggers_invoked = triggers_invoked_->value();
  s.trigger_failures = trigger_failures_->value();
  s.offline_transitions = offline_transitions_->value();
  return s;
}

namespace {
std::string EndpointOf(const SubscriberSpec& sub) {
  return sub.host.empty() ? sub.name : sub.host;
}
}  // namespace

std::function<void()> DeliveryEngine::Guard(std::function<void()> fn) {
  return [weak = std::weak_ptr<char>(alive_), fn = std::move(fn)] {
    if (weak.lock()) fn();
  };
}

void DeliveryEngine::SubmitStagedFile(const StagedFile& file) {
  if (tracer_ != nullptr) {
    tracer_->Mark(file.id, PipelineStage::kSchedule, loop_->Now());
  }
  for (const FeedName& feed : file.feeds) {
    const RegisteredFeed* rf = registry_->FindFeed(feed);
    Duration tardiness = rf != nullptr ? rf->spec.tardiness : kDefaultTardiness;
    if (plans_ != nullptr) tardiness = plans_->TardinessFor(feed, tardiness);
    for (const SubscriberSpec* sub : index_.PostingsFor(feed)) {
      if (plans_ != nullptr &&
          !plans_->AllowsDelivery(feed, file.name, sub->name)) {
        continue;
      }
      auto key = std::make_pair(file.id, sub->name);
      if (pending_.count(key) != 0) continue;
      if (offline_.count(sub->name) != 0) {
        // Receipts remember the file; the probe-triggered backfill will
        // pick it up when the subscriber returns.
        parked_->Increment();
        continue;
      }
      TransferJob job;
      job.file_id = file.id;
      job.subscriber = sub->name;
      job.feed = feed;
      job.name = file.name;
      job.staged_path = file.staged_path;
      job.dest_path = file.rel_path.empty() ? file.name : file.rel_path;
      job.size = file.size;
      job.arrival_time = file.arrival_time;
      job.data_time = file.data_time;
      job.deadline = file.arrival_time + tardiness;
      InsertPending(key);
      jobs_submitted_->Increment();
      scheduler_->Submit(std::move(job));
    }
  }
  Pump();
}

void DeliveryEngine::Pump() {
  // Drain every runnable slot (and, with windows, every open window) in
  // rounds: a round's fast-failures (offline subscriber, lost staged
  // file) complete synchronously and can free slots for the next round.
  for (;;) {
    std::vector<TransferJob> round;
    while (auto job = scheduler_->Dequeue()) {
      round.push_back(std::move(*job));
    }
    if (round.empty()) break;
    DispatchRound(std::move(round));
  }
  inflight_gauge_->Set(static_cast<int64_t>(scheduler_->in_flight()));
}

std::optional<DeliveryEngine::PreparedJob> DeliveryEngine::PrepareJob(
    TransferJob job) {
  const SubscriberSpec* sub = registry_->FindSubscriber(job.subscriber);
  TimePoint started = loop_->Now();
  if (sub == nullptr || offline_.count(job.subscriber) != 0) {
    // Subscriber vanished or went offline while the job was queued.
    ErasePending({job.file_id, job.subscriber});
    parked_->Increment();
    scheduler_->OnComplete(job, /*success=*/false, started, 0);
    return std::nullopt;
  }
  PreparedJob p;
  p.msg.file_id = job.file_id;
  p.msg.feed = job.feed;
  p.msg.name = job.name;
  p.msg.dest_path = job.dest_path;
  p.msg.data_time = job.data_time;
  if (sub->method == DeliveryMethod::kPush) {
    uint64_t hits_before = payload_cache_.hits();
    auto entry = payload_cache_.Get(job.staged_path);
    if (!entry.ok()) {
      // Staged file expired or lost: give up on this job.
      logger_->Error("delivery",
                     "staged file unreadable: " + job.staged_path + " (" +
                         entry.status().ToString() + ")");
      ErasePending({job.file_id, job.subscriber});
      scheduler_->OnComplete(job, /*success=*/false, started, 0);
      return std::nullopt;
    }
    if (payload_cache_.hits() > hits_before) {
      staging_cache_hits_->Increment();
    } else {
      staging_reads_->Increment();
    }
    // The whole fan-out aliases one immutable buffer, and the end-to-end
    // checksum was computed once at cache insert; the endpoint verifies
    // it and NACKs (Corruption) if the payload was damaged in flight.
    p.msg.payload = SharedPayload(entry->payload);
    p.msg.payload_crc = entry->crc;
    p.msg.type = MessageType::kFileData;
  } else {
    p.msg.type = MessageType::kFileNotify;
  }
  if (tracer_ != nullptr) {
    tracer_->Mark(job.file_id, PipelineStage::kSend, loop_->Now());
  }
  p.endpoint = EndpointOf(*sub);
  p.job = std::move(job);
  return p;
}

SendCallback DeliveryEngine::DoneCallback(TransferJob job, TimePoint started) {
  return [weak = std::weak_ptr<char>(alive_), this, job = std::move(job),
          started](const Status& s) mutable {
    if (!weak.lock()) return;
    OnJobDone(std::move(job), started, s);
  };
}

void DeliveryEngine::DispatchRound(std::vector<TransferJob> round) {
  TimePoint started = loop_->Now();
  if (tuning_.coalesce_bytes == 0) {
    for (TransferJob& job : round) StartJob(std::move(job));
    return;
  }
  // Group the round's sendable jobs by endpoint (dispatch order is
  // preserved within an endpoint; endpoints interleave anyway on
  // independent links).
  std::vector<std::string> order;
  std::map<std::string, std::vector<PreparedJob>> by_endpoint;
  for (TransferJob& job : round) {
    auto p = PrepareJob(std::move(job));
    if (!p.has_value()) continue;
    auto [it, inserted] = by_endpoint.try_emplace(p->endpoint);
    if (inserted) order.push_back(p->endpoint);
    it->second.push_back(std::move(*p));
  }
  for (const std::string& endpoint : order) {
    std::vector<PreparedJob>& group = by_endpoint[endpoint];
    size_t i = 0;
    while (i < group.size()) {
      // Greedy frame: take file-data messages while the payload total
      // stays under coalesce_bytes. A file larger than the budget (or a
      // notify/first message) always ships; it just ships alone.
      const uint64_t budget = static_cast<uint64_t>(tuning_.coalesce_bytes);
      size_t j = i;
      uint64_t frame_bytes = 0;
      while (j < group.size() &&
             group[j].msg.type == MessageType::kFileData &&
             (j == i || frame_bytes + group[j].msg.payload.size() <= budget)) {
        frame_bytes += group[j].msg.payload.size();
        ++j;
        if (frame_bytes >= budget) break;
      }
      if (j == i) j = i + 1;  // non-coalescible message ships alone
      if (j - i > 1) {
        std::vector<BundleItem> items;
        items.reserve(j - i);
        for (size_t k = i; k < j; ++k) {
          BundleItem item;
          item.msg = std::move(group[k].msg);
          item.done = DoneCallback(std::move(group[k].job), started);
          items.push_back(std::move(item));
        }
        coalesced_frames_->Increment();
        coalesced_files_->Increment(j - i);
        transport_->SendBundle(endpoint, std::move(items));
      } else {
        transport_->Send(endpoint, group[i].msg,
                         DoneCallback(std::move(group[i].job), started));
      }
      i = j;
    }
  }
}

void DeliveryEngine::StartJob(TransferJob job) {
  TimePoint started = loop_->Now();
  auto p = PrepareJob(std::move(job));
  if (!p.has_value()) return;
  transport_->Send(p->endpoint, p->msg,
                   DoneCallback(std::move(p->job), started));
}

void DeliveryEngine::OnJobDone(TransferJob job, TimePoint started,
                               const Status& status) {
  TimePoint now = loop_->Now();
  scheduler_->OnComplete(job, status.ok(), now, now - started);
  if (status.ok()) {
    ErasePending({job.file_id, job.subscriber});
    RecordDeliveryReceipt(job, now);
    if (tracer_ != nullptr) {
      tracer_->Mark(job.file_id, PipelineStage::kDeliveryReceipt, now);
    }
    const SubscriberSpec* sub = registry_->FindSubscriber(job.subscriber);
    if (sub != nullptr && sub->method == DeliveryMethod::kPush) {
      files_delivered_->Increment();
    } else {
      notifications_sent_->Increment();
    }
    if (sub != nullptr) {
      FeedBatcher(*sub, job.feed, job.file_id, job.data_time);
    }
  } else {
    HandleFailure(std::move(job));
  }
  Pump();
}

void DeliveryEngine::RecordDeliveryReceipt(const TransferJob& job,
                                           TimePoint now) {
  if (tuning_.receipt_group <= 1) {
    // Legacy mode: one durable receipt write per ack.
    Status rec = receipts_->RecordDelivery(job.subscriber, job.file_id, now);
    if (!rec.ok()) {
      logger_->Error("delivery",
                     "failed to record delivery receipt: " + rec.ToString());
      // The file reached the subscriber but the receipt did not commit
      // (e.g. a transient WAL write error). Without the receipt the file
      // stays in the recomputed delivery queue and would be redelivered
      // after every restart, so keep retrying the receipt write; the
      // endpoint's dedupe absorbs any redelivery that races with it.
      RetryDeliveryReceipt(job.subscriber, job.file_id, now);
    }
    return;
  }
  // Group commit: buffer until the group fills, the engine goes
  // ack-quiescent (this ack was the last in flight, so no later ack will
  // piggyback the fsync), or the flush timer fires. A crash loses at most
  // the buffered tail — those files get re-delivered after recovery and
  // the subscriber's FileId dedupe absorbs the repeats.
  receipt_buffer_.push_back({job.subscriber, job.file_id, now});
  receipt_buffer_gauge_->Set(static_cast<int64_t>(receipt_buffer_.size()));
  if (receipt_buffer_.size() >= static_cast<size_t>(tuning_.receipt_group) ||
      scheduler_->in_flight() == 0) {
    FlushDeliveryReceipts();
  } else if (!receipt_flush_timer_armed_) {
    receipt_flush_timer_armed_ = true;
    loop_->PostAfter(tuning_.receipt_flush_interval, Guard([this] {
                       receipt_flush_timer_armed_ = false;
                       FlushDeliveryReceipts();
                     }));
  }
}

void DeliveryEngine::FlushDeliveryReceipts() {
  if (receipt_buffer_.empty()) return;
  std::vector<ReceiptDatabase::DeliveryRecord> records =
      std::move(receipt_buffer_);
  receipt_buffer_.clear();
  receipt_buffer_gauge_->Set(0);
  Status s = receipts_->RecordDeliveryGroup(records);
  if (s.ok()) {
    receipt_group_flushes_->Increment();
    return;
  }
  logger_->Error("delivery",
                 "failed to group-commit delivery receipts: " + s.ToString());
  // Same rationale as the legacy path: without receipts these files would
  // be redelivered after every restart, so retry each one (individually —
  // a persistent fault in one record must not wedge the whole group).
  for (const auto& r : records) {
    RetryDeliveryReceipt(r.subscriber, r.file_id, r.when);
  }
}

void DeliveryEngine::RetryDeliveryReceipt(const SubscriberName& sub,
                                          FileId file_id, TimePoint when) {
  loop_->PostAfter(tuning_.retry_backoff_min,
                   Guard([this, sub, file_id, when] {
                     Status rec = receipts_->RecordDelivery(sub, file_id, when);
                     if (!rec.ok()) RetryDeliveryReceipt(sub, file_id, when);
                   }));
}

void DeliveryEngine::HandleFailure(TransferJob job) {
  send_failures_->Increment();
  const SubscriberName sub = job.subscriber;
  if (scheduler_->tracker()->ConsecutiveFailures(sub) >=
          tuning_.offline_after &&
      offline_.count(sub) == 0) {
    offline_.insert(sub);
    offline_transitions_->Increment();
    logger_->Warning("delivery",
                     "subscriber flagged offline after repeated failures: " + sub);
    ErasePending({job.file_id, sub});
    loop_->PostAfter(tuning_.probe_interval,
                     Guard([this, sub] { ProbeOffline(sub); }));
    return;
  }
  if (offline_.count(sub) != 0) {
    ErasePending({job.file_id, sub});
    parked_->Increment();
    return;
  }
  job.attempts++;
  if (job.attempts >= tuning_.max_attempts) {
    logger_->Error(
        "delivery",
        StrFormat("dead-lettering file %llu to %s after %d attempts",
                  (unsigned long long)job.file_id, sub.c_str(), job.attempts));
    ErasePending({job.file_id, sub});
    dead_lettered_->Increment();
    dead_letter_.push_back(std::move(job));
    return;
  }
  retries_->Increment();
  Duration backoff = NextBackoff(&job);
  loop_->PostAfter(backoff, Guard([this, job = std::move(job)]() mutable {
                     scheduler_->Submit(job);
                     Pump();
                   }));
}

Duration DeliveryEngine::NextBackoff(TransferJob* job) {
  const Duration base = std::max<Duration>(tuning_.retry_backoff_min, 1);
  const Duration cap = std::max<Duration>(tuning_.retry_backoff_max, base);
  Duration next;
  if (job->last_backoff <= 0) {
    next = base;  // first retry always waits exactly the base
  } else {
    double grown = static_cast<double>(job->last_backoff) *
                   std::max(tuning_.retry_multiplier, 1.0);
    next = grown >= static_cast<double>(cap) ? cap
                                             : static_cast<Duration>(grown);
  }
  if (tuning_.retry_jitter && next > base) {
    // Decorrelated jitter (next grows from the previous *draw*, not the
    // deterministic envelope): uniform in [base, next].
    next = base + static_cast<Duration>(backoff_rng_.Uniform(
                      static_cast<uint64_t>(next - base) + 1));
  }
  job->last_backoff = next;
  return next;
}

void DeliveryEngine::RedriveDeadLetters() {
  std::vector<TransferJob> jobs = std::move(dead_letter_);
  dead_letter_.clear();
  for (TransferJob& job : jobs) {
    auto key = std::make_pair(job.file_id, job.subscriber);
    // A backfill may have requeued (or already delivered) the file while
    // it sat in the dead-letter queue; receipts + endpoint dedupe make a
    // duplicate submit harmless, but skip the obvious case.
    if (pending_.count(key) != 0) continue;
    job.attempts = 0;
    job.last_backoff = 0;
    InsertPending(key);
    jobs_submitted_->Increment();
    scheduler_->Submit(std::move(job));
  }
  Pump();
}

void DeliveryEngine::ProbeOffline(const SubscriberName& sub_name) {
  if (offline_.count(sub_name) == 0) return;
  const SubscriberSpec* sub = registry_->FindSubscriber(sub_name);
  if (sub == nullptr) {
    offline_.erase(sub_name);
    return;
  }
  Message probe;
  probe.type = MessageType::kHeartbeat;
  transport_->Send(
      EndpointOf(*sub), probe,
      [weak = std::weak_ptr<char>(alive_), this, sub_name](const Status& s) {
        if (!weak.lock()) return;
        if (s.ok()) {
          offline_.erase(sub_name);
          scheduler_->tracker()->Reset(sub_name);
          logger_->Info("delivery", "subscriber back online: " + sub_name);
          Backfill(sub_name);
        } else {
          loop_->PostAfter(tuning_.probe_interval,
                           Guard([this, sub_name] { ProbeOffline(sub_name); }));
        }
      });
}

void DeliveryEngine::SubmitJobsFor(const SubscriberSpec& sub,
                                   const std::vector<ArrivalReceipt>& queue,
                                   bool backfill) {
  auto subscribed = registry_->SubscribedFeeds(sub);
  for (const ArrivalReceipt& receipt : queue) {
    auto key = std::make_pair(receipt.file_id, sub.name);
    if (pending_.count(key) != 0) continue;
    // Pick the first of the file's feeds this subscriber follows — and
    // that plan routing permits, so backfill never resurrects a delivery
    // the real-time path filtered out.
    FeedName feed;
    for (const auto& f : receipt.feeds) {
      if (std::find(subscribed.begin(), subscribed.end(), f) ==
          subscribed.end()) {
        continue;
      }
      if (plans_ != nullptr &&
          !plans_->AllowsDelivery(f, receipt.name, sub.name)) {
        continue;
      }
      feed = f;
      break;
    }
    if (feed.empty()) continue;
    const RegisteredFeed* rf = registry_->FindFeed(feed);
    Duration tardiness = rf != nullptr ? rf->spec.tardiness : kDefaultTardiness;
    if (plans_ != nullptr) tardiness = plans_->TardinessFor(feed, tardiness);
    TransferJob job;
    job.file_id = receipt.file_id;
    job.subscriber = sub.name;
    job.feed = feed;
    job.name = receipt.name;
    job.staged_path = receipt.staged_path;
    job.dest_path = receipt.rel_path.empty() ? receipt.name : receipt.rel_path;
    job.size = receipt.size;
    job.arrival_time = receipt.arrival_time;
    job.data_time = receipt.data_time;
    job.deadline = receipt.arrival_time + tardiness;
    job.backfill = backfill;
    InsertPending(key);
    jobs_submitted_->Increment();
    if (backfill) backfilled_->Increment();
    scheduler_->Submit(std::move(job));
  }
  Pump();
}

void DeliveryEngine::Backfill(const SubscriberName& sub_name) {
  const SubscriberSpec* sub = registry_->FindSubscriber(sub_name);
  if (sub == nullptr || offline_.count(sub_name) != 0) return;
  // Buffered receipts are deliveries that already happened; commit them
  // first so the recomputed queue does not resubmit those files.
  FlushDeliveryReceipts();
  auto feeds = registry_->SubscribedFeeds(*sub);
  TimePoint window_start =
      sub->window > 0 ? loop_->Now() - sub->window : 0;
  if (window_start < 0) window_start = 0;
  auto queue = receipts_->ComputeDeliveryQueue(sub_name, feeds, window_start);
  SubmitJobsFor(*sub, queue, /*backfill=*/true);
}

void DeliveryEngine::BackfillFeed(const FeedName& feed) {
  // Copy the names first: Backfill may mutate registry state behind the
  // postings vector (it aliases registry storage).
  std::vector<SubscriberName> names;
  for (const SubscriberSpec* sub : index_.PostingsFor(feed)) {
    names.push_back(sub->name);
  }
  for (const SubscriberName& name : names) Backfill(name);
}

void DeliveryEngine::RerouteUndelivered(const SubscriberName& from,
                                        const SubscriberName& to) {
  const SubscriberSpec* from_sub = registry_->FindSubscriber(from);
  const SubscriberSpec* to_sub = registry_->FindSubscriber(to);
  if (from_sub == nullptr || to_sub == nullptr) return;
  if (offline_.count(to) != 0) return;  // the replica is down too
  FlushDeliveryReceipts();
  auto feeds = registry_->SubscribedFeeds(*from_sub);
  TimePoint window_start =
      from_sub->window > 0 ? loop_->Now() - from_sub->window : 0;
  if (window_start < 0) window_start = 0;
  auto queue = receipts_->ComputeDeliveryQueue(from, feeds, window_start);
  // Files the replica already holds would only waste wire bytes (the
  // downstream dedupe absorbs them regardless); skip them here.
  std::vector<ArrivalReceipt> missing;
  missing.reserve(queue.size());
  for (ArrivalReceipt& receipt : queue) {
    if (!receipts_->Delivered(to, receipt.file_id)) {
      missing.push_back(std::move(receipt));
    }
  }
  SubmitJobsFor(*to_sub, missing, /*backfill=*/true);
}

bool DeliveryEngine::IsOffline(const SubscriberName& subscriber) const {
  return offline_.count(subscriber) != 0;
}

void DeliveryEngine::SetOffline(const SubscriberName& subscriber,
                                bool offline) {
  if (offline) {
    if (offline_.insert(subscriber).second) {
      offline_transitions_->Increment();
      loop_->PostAfter(tuning_.probe_interval,
                       Guard([this, subscriber] { ProbeOffline(subscriber); }));
    }
  } else if (offline_.erase(subscriber) != 0) {
    scheduler_->tracker()->Reset(subscriber);
    Backfill(subscriber);
  }
}

Batcher* DeliveryEngine::GetBatcher(const SubscriberSpec& sub,
                                    const FeedName& feed) {
  auto key = std::make_pair(sub.name, feed);
  auto it = batchers_.find(key);
  if (it == batchers_.end()) {
    it = batchers_
             .emplace(key, std::make_unique<Batcher>(feed, sub.name,
                                                     sub.trigger.batch))
             .first;
  }
  return it->second.get();
}

void DeliveryEngine::FeedBatcher(const SubscriberSpec& sub,
                                 const FeedName& feed, FileId file,
                                 TimePoint data_time) {
  Batcher* batcher = GetBatcher(sub, feed);
  auto event = batcher->OnFileDelivered(file, data_time, loop_->Now());
  if (event.has_value()) EmitBatch(sub, std::move(*event));
  ScheduleBatchTick(sub.name, feed);
}

void DeliveryEngine::ScheduleBatchTick(const SubscriberName& sub_name,
                                       const FeedName& feed) {
  auto it = batchers_.find({sub_name, feed});
  if (it == batchers_.end()) return;
  auto deadline = it->second->NextDeadline();
  if (!deadline.has_value()) return;
  loop_->PostAt(*deadline, Guard([this, sub_name, feed] {
    auto bit = batchers_.find({sub_name, feed});
    if (bit == batchers_.end()) return;
    auto event = bit->second->OnTick(loop_->Now());
    if (event.has_value()) {
      const SubscriberSpec* sub = registry_->FindSubscriber(sub_name);
      if (sub != nullptr) EmitBatch(*sub, std::move(*event));
    }
  }));
}

void DeliveryEngine::EmitBatch(const SubscriberSpec& sub, BatchEvent event) {
  batches_closed_->Increment();
  if (tracer_ != nullptr) {
    for (FileId file : event.files) {
      tracer_->Mark(file, PipelineStage::kTrigger, loop_->Now());
    }
  }
  const TriggerSpec& trigger = sub.trigger;
  if (trigger.remote) {
    // Invoke on the subscriber's site: ship an end-of-batch message; the
    // subscriber-side agent runs the registered program.
    Message msg;
    msg.type = MessageType::kEndOfBatch;
    msg.feed = event.feed;
    msg.batch_time = event.batch_time;
    msg.batch_count = event.files.size();
    transport_->Send(EndpointOf(sub), msg, [this](const Status& s) {
      if (s.ok()) {
        triggers_invoked_->Increment();
      } else {
        trigger_failures_->Increment();
      }
    });
    return;
  }
  if (trigger.command.empty()) return;
  Status s = invoker_->Invoke(trigger.command, event);
  if (s.ok()) {
    triggers_invoked_->Increment();
  } else {
    trigger_failures_->Increment();
    logger_->Error("trigger", "trigger failed for " + sub.name + ": " +
                                  s.ToString());
  }
}

void DeliveryEngine::OnSourcePunctuation(const FeedName& feed,
                                         TimePoint batch_time) {
  (void)batch_time;
  for (const SubscriberSpec* sub : index_.PostingsFor(feed)) {
    if (sub->trigger.batch.mode != BatchSpec::Mode::kPunctuation) continue;
    Batcher* batcher = GetBatcher(*sub, feed);
    auto event = batcher->OnPunctuation(loop_->Now());
    if (event.has_value()) EmitBatch(*sub, std::move(*event));
  }
}

void DeliveryEngine::FlushBatches() {
  FlushDeliveryReceipts();
  for (auto& [key, batcher] : batchers_) {
    auto event = batcher->Flush(loop_->Now());
    if (!event.has_value()) continue;
    const SubscriberSpec* sub = registry_->FindSubscriber(key.first);
    if (sub != nullptr) EmitBatch(*sub, std::move(*event));
  }
}

}  // namespace bistro
