#include "net/transport.h"

namespace bistro {

void Transport::AttachMetrics(MetricsRegistry* registry) {
  sends_ = registry->GetCounter("bistro_net_sends_total",
                                "Messages handed to the transport");
  send_failures_ = registry->GetCounter("bistro_net_send_failures_total",
                                        "Sends completing with an error");
  bytes_sent_ = registry->GetCounter("bistro_net_payload_bytes_total",
                                     "Payload bytes handed to the transport");
}

void Transport::CountSend(uint64_t payload_bytes) {
  if (sends_ == nullptr) return;
  sends_->Increment();
  bytes_sent_->Increment(payload_bytes);
}

void Transport::DetachBaseMetrics() {
  sends_ = nullptr;
  send_failures_ = nullptr;
  bytes_sent_ = nullptr;
}

void Transport::CountOutcome(const Status& status) {
  if (send_failures_ != nullptr && !status.ok()) send_failures_->Increment();
}

void Transport::SendBundle(const std::string& endpoint,
                           std::vector<BundleItem> items) {
  for (BundleItem& item : items) {
    Send(endpoint, item.msg, std::move(item.done));
  }
}

void LoopbackTransport::Register(const std::string& name, Endpoint* endpoint) {
  endpoints_[name] = endpoint;
}

void LoopbackTransport::Unregister(const std::string& name) {
  endpoints_.erase(name);
}

void LoopbackTransport::Send(const std::string& endpoint, const Message& msg,
                             SendCallback done) {
  CountSend(msg.payload.size());
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    loop_->Post([this, done, endpoint] {
      Status s = Status::Unavailable("no endpoint: " + endpoint);
      CountOutcome(s);
      done(s);
    });
    return;
  }
  Endpoint* ep = it->second;
  // Round-trip through the wire encoding so the protocol layer is
  // exercised even in-process.
  std::string wire = EncodeMessage(msg);
  loop_->Post([this, ep, wire = std::move(wire), done] {
    auto decoded = DecodeMessage(wire);
    if (!decoded.ok()) {
      CountOutcome(decoded.status());
      done(decoded.status());
      return;
    }
    Status s = ep->HandleMessage(*decoded);
    CountOutcome(s);
    done(s);
  });
}

void LoopbackTransport::SendBundle(const std::string& endpoint,
                                   std::vector<BundleItem> items) {
  std::vector<Message> msgs;
  std::vector<SendCallback> dones;
  msgs.reserve(items.size());
  dones.reserve(items.size());
  for (BundleItem& item : items) {
    CountSend(item.msg.payload.size());
    msgs.push_back(std::move(item.msg));
    dones.push_back(std::move(item.done));
  }
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    loop_->Post([this, endpoint, dones = std::move(dones)] {
      Status s = Status::Unavailable("no endpoint: " + endpoint);
      for (const SendCallback& done : dones) {
        CountOutcome(s);
        done(s);
      }
    });
    return;
  }
  Endpoint* ep = it->second;
  std::string wire = EncodeBundle(msgs);
  loop_->Post([this, ep, wire = std::move(wire), dones = std::move(dones)] {
    auto decoded = DecodeBundle(wire);
    if (!decoded.ok()) {
      for (const SendCallback& done : dones) {
        CountOutcome(decoded.status());
        done(decoded.status());
      }
      return;
    }
    for (size_t i = 0; i < dones.size(); ++i) {
      Status s = i < decoded->size() ? ep->HandleMessage((*decoded)[i])
                                     : Status::Corruption("bundle: short");
      CountOutcome(s);
      dones[i](s);
    }
  });
}

void SimTransport::Register(const std::string& name, Endpoint* endpoint) {
  endpoints_[name] = endpoint;
}

void SimTransport::Unregister(const std::string& name) {
  endpoints_.erase(name);
}

void SimTransport::Send(const std::string& endpoint, const Message& msg,
                        SendCallback done) {
  CountSend(msg.payload.size());
  uint64_t bytes = msg.payload.size() + msg.name.size() + 64;
  auto completion = network_->ScheduleTransfer(endpoint, bytes, loop_->Now());
  if (!completion.ok()) {
    // Failure surfaces after the link latency it burned (if the link is
    // known) or immediately (unknown/offline).
    loop_->Post([this, done, status = completion.status()] {
      CountOutcome(status);
      done(status);
    });
    return;
  }
  std::string wire = EncodeMessage(msg);
  // The endpoint resolves at DELIVERY time, not send time: a receiver
  // that is replaced (or torn down by a crash) mid-flight gets the
  // message at its current incarnation, or an Unavailable bounce.
  loop_->PostAt(*completion,
                [this, endpoint, wire = std::move(wire), done] {
    auto it = endpoints_.find(endpoint);
    Endpoint* ep = it == endpoints_.end() ? nullptr : it->second;
    if (ep == nullptr) {
      Status s = Status::Unavailable("no endpoint: " + endpoint);
      CountOutcome(s);
      done(s);
      return;
    }
    auto decoded = DecodeMessage(wire);
    if (!decoded.ok()) {
      CountOutcome(decoded.status());
      done(decoded.status());
      return;
    }
    Status s = ep->HandleMessage(*decoded);
    CountOutcome(s);
    done(s);
  });
}

void SimTransport::SendBundle(const std::string& endpoint,
                              std::vector<BundleItem> items) {
  // One frame on the link: a single 64-byte frame header covers the whole
  // group, each inner message paying only a small per-record overhead —
  // and, crucially, the link's latency is charged once for the frame
  // instead of once per file.
  uint64_t bytes = 64;
  std::vector<Message> msgs;
  std::vector<SendCallback> dones;
  msgs.reserve(items.size());
  dones.reserve(items.size());
  for (BundleItem& item : items) {
    CountSend(item.msg.payload.size());
    bytes += item.msg.payload.size() + item.msg.name.size() + 16;
    msgs.push_back(std::move(item.msg));
    dones.push_back(std::move(item.done));
  }
  auto completion = network_->ScheduleTransfer(endpoint, bytes, loop_->Now());
  if (!completion.ok()) {
    loop_->Post([this, dones = std::move(dones), status = completion.status()] {
      for (const SendCallback& done : dones) {
        CountOutcome(status);
        done(status);
      }
    });
    return;
  }
  std::string wire = EncodeBundle(msgs);
  // Delivery-time endpoint resolution, as in Send above.
  loop_->PostAt(*completion, [this, endpoint, wire = std::move(wire),
                              dones = std::move(dones)] {
    auto it = endpoints_.find(endpoint);
    Endpoint* ep = it == endpoints_.end() ? nullptr : it->second;
    if (ep == nullptr) {
      Status s = Status::Unavailable("no endpoint: " + endpoint);
      for (const SendCallback& done : dones) {
        CountOutcome(s);
        done(s);
      }
      return;
    }
    auto decoded = DecodeBundle(wire);
    if (!decoded.ok()) {
      for (const SendCallback& done : dones) {
        CountOutcome(decoded.status());
        done(decoded.status());
      }
      return;
    }
    for (size_t i = 0; i < dones.size(); ++i) {
      Status s = i < decoded->size() ? ep->HandleMessage((*decoded)[i])
                                     : Status::Corruption("bundle: short");
      CountOutcome(s);
      dones[i](s);
    }
  });
}

Duration SimTransport::EstimateCost(const std::string& endpoint,
                                    uint64_t bytes) const {
  auto d = network_->TransferDuration(endpoint, bytes);
  return d.ok() ? *d : 0;
}

Status FileSinkEndpoint::HandleMessage(const Message& msg) {
  if (failing_) return Status::Unavailable("subscriber failing");
  switch (msg.type) {
    case MessageType::kFileData: {
      if (Status intact = VerifyPayloadCrc(msg); !intact.ok()) {
        ++corrupt_rejected_;
        return intact;
      }
      if (msg.file_id != 0) {
        if (!delivered_ids_.insert(msg.file_id).second) {
          ++duplicates_;
          break;  // already landed; ack without writing again
        }
        delivered_order_.push_back(msg.file_id);
        while (delivered_order_.size() > dedupe_capacity_) {
          delivered_ids_.erase(delivered_order_.front());
          delivered_order_.pop_front();
          ++dedupe_evictions_;
        }
      }
      std::string dest = path::Join(dest_root_, msg.dest_path.empty()
                                                    ? msg.name
                                                    : msg.dest_path);
      Status wrote = fs_->WriteFile(dest, msg.payload);
      if (!wrote.ok()) {
        if (msg.file_id != 0) {
          // The id was optimistically inserted above; a failed land must
          // stay retryable, or the retry would be absorbed as a
          // "duplicate" of a write that never happened.
          delivered_ids_.erase(msg.file_id);
          if (!delivered_order_.empty() &&
              delivered_order_.back() == msg.file_id) {
            delivered_order_.pop_back();
          }
        }
        // Sink-side I/O trouble (full disk, unmounted volume, dropped
        // connection behind a network filesystem) is transient from the
        // sender's point of view: surface it as Unavailable so the
        // delivery retry/backoff/dead-letter machinery applies uniformly
        // instead of treating it as a poison failure.
        return Status::Unavailable("sink write: " + wrote.ToString());
      }
      ++files_received_;
      break;
    }
    case MessageType::kFileNotify:
      ++notifications_;
      break;
    case MessageType::kEndOfBatch:
      ++batches_;
      break;
    default:
      break;
  }
  if (hook_) hook_(msg);
  return Status::OK();
}

}  // namespace bistro
