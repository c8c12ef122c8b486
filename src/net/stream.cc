#include "net/stream.h"

#include <algorithm>
#include <cstring>

namespace bistro {

namespace {
// Read granularity while no frame size is known yet.
constexpr size_t kMinReadSpace = 64 << 10;

// Peeks the total frame size (varint length prefix + 4-byte CRC + body)
// at the front of `data`; returns 0 if more bytes are needed, or an error
// sentinel of SIZE_MAX on malformed varint.
size_t FrameSize(std::string_view data, uint64_t* body_len) {
  uint64_t len = 0;
  int shift = 0;
  size_t i = 0;
  while (i < data.size()) {
    uint8_t byte = static_cast<uint8_t>(data[i]);
    ++i;
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *body_len = len;
      return i + 4 + len;
    }
    shift += 7;
    if (shift > 63) return SIZE_MAX;
  }
  return 0;  // length prefix itself incomplete
}
}  // namespace

Status MessageStreamDecoder::Feed(std::string_view bytes) {
  if (!status_.ok()) return status_;
  if (!bytes.empty()) {
    Reserve(bytes.size());
    std::memcpy(buf_.get() + end_, bytes.data(), bytes.size());
  }
  return Commit(bytes.size());
}

std::span<char> MessageStreamDecoder::WritableSpace() {
  size_t want = kMinReadSpace;
  if (next_frame_ > buffered_bytes()) {
    want = std::max(want, next_frame_ - buffered_bytes());
  }
  if (capacity_ - end_ < want) Reserve(want);
  return {buf_.get() + end_, capacity_ - end_};
}

void MessageStreamDecoder::Reserve(size_t n) {
  size_t buffered = buffered_bytes();
  if (capacity_ - end_ >= n) return;
  if (capacity_ >= buffered + n) {
    std::memmove(buf_.get(), buf_.get() + begin_, buffered);
  } else {
    // Sized for the frame being received (plus a read's worth of what
    // follows it), not doubled: one allocation per larger frame.
    capacity_ = buffered + std::max(n, kMinReadSpace);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity_);
    if (buffered > 0) std::memcpy(grown.get(), buf_.get() + begin_, buffered);
    buf_ = std::move(grown);
  }
  begin_ = 0;
  end_ = buffered;
}

Status MessageStreamDecoder::Commit(size_t n) {
  if (!status_.ok()) return status_;
  end_ += n;
  next_frame_ = 0;
  while (true) {
    std::string_view data(buf_.get() + begin_, buffered_bytes());
    uint64_t body_len = 0;
    size_t frame = FrameSize(data, &body_len);
    if (frame == SIZE_MAX) {
      status_ = Status::Corruption("message stream: malformed length prefix");
      return status_;
    }
    // Reject an oversized claim the moment the prefix is readable — the
    // buffer must never grow toward a hostile length. (This also guards
    // the prefix + 4 + len sum against wrap for lengths near UINT64_MAX.)
    if (frame != 0 && body_len > max_frame_bytes_) {
      status_ = Status::Corruption("message stream: frame exceeds max bytes");
      return status_;
    }
    if (frame == 0 || data.size() < frame) {
      next_frame_ = frame;
      break;
    }
    auto msg = DecodeMessage(data.substr(0, frame), max_frame_bytes_);
    if (!msg.ok()) {
      status_ = msg.status();
      return status_;
    }
    decoded_.push_back(std::move(*msg));
    begin_ += frame;
  }
  // Compact once per Commit, not once per frame: a read holding many
  // small coalesced frames costs one move of its partial tail.
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, buffered_bytes());
    end_ -= begin_;
    begin_ = 0;
  }
  return Status::OK();
}

std::optional<Message> MessageStreamDecoder::Next() {
  if (decoded_.empty()) return std::nullopt;
  Message msg = std::move(decoded_.front());
  decoded_.pop_front();
  return msg;
}

void FrameQueue::Push(EncodedFrame frame) {
  bytes_ += frame.size();
  frames_.push_back(std::move(frame));
}

int FrameQueue::Gather(iovec* iov, int max) const {
  int n = 0;
  size_t skip = front_written_;
  for (const EncodedFrame& frame : frames_) {
    for (std::string_view seg : {std::string_view(frame.head),
                                 frame.payload.view(),
                                 std::string_view(frame.tail)}) {
      if (skip >= seg.size()) {
        skip -= seg.size();
        continue;
      }
      if (n == max) return n;
      iov[n++] = {const_cast<char*>(seg.data()) + skip, seg.size() - skip};
      skip = 0;
    }
  }
  return n;
}

void FrameQueue::Consume(size_t n) {
  bytes_ -= n;
  front_written_ += n;
  while (!frames_.empty() && front_written_ >= frames_.front().size()) {
    front_written_ -= frames_.front().size();
    frames_.pop_front();
  }
}

std::string EncodeMessageStream(const std::vector<Message>& messages) {
  std::string out;
  for (const Message& msg : messages) out += EncodeMessage(msg);
  return out;
}

}  // namespace bistro
