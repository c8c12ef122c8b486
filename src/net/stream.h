#ifndef BISTRO_NET_STREAM_H_
#define BISTRO_NET_STREAM_H_

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <sys/uio.h>

#include "net/protocol.h"

namespace bistro {

/// Incremental decoder for a byte stream of concatenated EncodeMessage
/// frames — the building block for running the Bistro protocol over any
/// stream transport (TCP, pipes). Feed it arbitrary chunks; complete
/// messages become available in order. Corruption is reported once and
/// poisons the stream (a stream transport cannot resynchronize after a
/// framing error; the connection must be dropped).
class MessageStreamDecoder {
 public:
  /// `max_frame_bytes` bounds a single frame's claimed body size; a frame
  /// claiming more poisons the stream immediately, before any buffering
  /// grows toward the bogus length. This is the defense that makes the
  /// decoder safe on bytes from an untrusted socket.
  explicit MessageStreamDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends received bytes; decodes any complete frames.
  /// Returns the first error encountered (sticky).
  Status Feed(std::string_view bytes);

  /// Receive without a staging copy: a reader fills (a prefix of) the
  /// returned space, then calls Commit with the byte count. The space is
  /// never empty; once a frame's length prefix is readable it is sized
  /// to take the rest of that frame in one read.
  std::span<char> WritableSpace();
  /// Accounts `n` bytes written into WritableSpace() and decodes any
  /// complete frames. Returns the first error encountered (sticky).
  Status Commit(size_t n);

  /// Pops the next decoded message, if any.
  std::optional<Message> Next();

  size_t pending() const { return decoded_.size(); }
  bool poisoned() const { return !status_.ok(); }
  const Status& status() const { return status_; }

  /// Bytes buffered awaiting a complete frame.
  size_t buffered_bytes() const { return end_ - begin_; }

 private:
  /// Makes room for at least `n` bytes past end_, moving the buffered
  /// bytes to the front of a (possibly larger) buffer.
  void Reserve(size_t n);

  size_t max_frame_bytes_;
  // buf_[begin_, end_) holds received bytes not yet decoded; frames are
  // consumed by advancing begin_, and the remainder moves to the front
  // once per Commit.
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  // Total size of the frame at begin_ once its length prefix is readable.
  size_t next_frame_ = 0;
  std::deque<Message> decoded_;
  Status status_;
};

/// Outbound side of a stream connection: whole frames queued as their
/// EncodeFrame segments (the payload stays a shared reference) and
/// drained with gathered writes that may stop at any byte.
class FrameQueue {
 public:
  void Push(EncodedFrame frame);

  /// Points up to `max` iovecs at the unsent bytes, oldest first, and
  /// returns how many it filled (0 only when empty).
  int Gather(iovec* iov, int max) const;

  /// Drops the first `n` unsent bytes (a write accepted them).
  void Consume(size_t n);

  bool empty() const { return frames_.empty(); }
  /// Unsent bytes.
  size_t bytes() const { return bytes_; }

 private:
  std::deque<EncodedFrame> frames_;
  size_t front_written_ = 0;  // bytes of frames_.front() already sent
  size_t bytes_ = 0;
};

/// Encodes a sequence of messages as one contiguous stream (what a sender
/// writes to the wire).
std::string EncodeMessageStream(const std::vector<Message>& messages);

}  // namespace bistro

#endif  // BISTRO_NET_STREAM_H_
