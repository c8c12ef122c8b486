#ifndef BISTRO_NET_PROTOCOL_H_
#define BISTRO_NET_PROTOCOL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "net/socket_options.h"

namespace bistro {

/// Immutable, cheaply shareable payload bytes.
///
/// A staged file fanning out to N subscribers used to be copied into N
/// Messages; a SharedPayload is a refcounted handle to one immutable
/// buffer, so every copy of the Message aliases the same bytes (the
/// delivery engine's staged-payload cache hands the same handle to every
/// fan-out job). Converts implicitly to std::string_view, so read-side
/// call sites (CRC, file writes, codecs) are unchanged.
class SharedPayload {
 public:
  SharedPayload() = default;
  SharedPayload(std::string s)  // NOLINT: implicit by design
      : data_(std::make_shared<const std::string>(std::move(s))) {}
  SharedPayload(const char* s) : SharedPayload(std::string(s)) {}
  explicit SharedPayload(std::shared_ptr<const std::string> s)
      : data_(std::move(s)) {}

  operator std::string_view() const { return view(); }  // NOLINT
  std::string_view view() const {
    return data_ ? std::string_view(*data_) : std::string_view();
  }
  const std::string& str() const {
    static const std::string kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Copy-on-write escape hatch for callers that mutate payload bytes
  /// (fault injection, tests). Detaches from any shared buffer first so
  /// the mutation never leaks into other aliasing Messages.
  std::string& mutable_str() {
    if (owned_ == nullptr || data_.get() != owned_ || data_.use_count() > 1) {
      auto fresh = std::make_shared<std::string>(str());
      owned_ = fresh.get();
      data_ = std::move(fresh);
    }
    return *owned_;
  }

  char operator[](size_t i) const { return (*data_)[i]; }

  /// Content equality (not handle identity).
  bool operator==(const SharedPayload& o) const { return view() == o.view(); }

 private:
  std::shared_ptr<const std::string> data_;
  // When the buffer was created by mutable_str() it is uniquely ours and
  // writable; points into data_ (or null when data_ is shared/immutable).
  std::string* owned_ = nullptr;
};

/// Wire messages of the Bistro communication interface (paper §4.1).
///
/// The interface is deliberately lightweight: sources notify the server
/// that data is ready; the server pushes file data (or availability
/// notifications, in the hybrid push-pull method) and end-of-batch markers
/// downstream; receivers acknowledge.
enum class MessageType : uint8_t {
  kFileData = 1,      // push delivery: name + destination + contents
  kFileNotify = 2,    // hybrid push-pull: availability notification only
  kEndOfBatch = 3,    // punctuation: a logical batch boundary
  kSourceNotify = 4,  // source -> server: file deposited in landing zone
  kAck = 5,
  kHeartbeat = 6,
};

/// A protocol message. Fields are used according to `type`; unused fields
/// stay empty/zero and serialize compactly.
struct Message {
  MessageType type = MessageType::kHeartbeat;
  FileId file_id = 0;
  FeedName feed;          // feed the file/batch belongs to
  std::string name;       // original filename
  std::string dest_path;  // destination path (kFileData/kFileNotify)
  SharedPayload payload;  // file contents (kFileData); aliased on fan-out
  /// End-to-end payload checksum, computed by the sender from the staged
  /// bytes (not the wire bytes). The frame CRC below only covers the hop;
  /// this one travels with the message so the receiving Endpoint can
  /// detect corruption introduced anywhere between the staging read and
  /// the final write (bad buffers, proxies, re-encodes). 0 = not set.
  uint32_t payload_crc = 0;
  TimePoint data_time = 0;   // timestamp extracted from the filename
  TimePoint batch_time = 0;  // batch interval marker (kEndOfBatch)
  uint64_t batch_count = 0;  // files in the closed batch (kEndOfBatch)
  /// Transport-level correlation id. Stream transports (TCP) assign a
  /// per-connection sequence to every request they put on the wire; the
  /// remote side echoes it in the kAck so the sender can match an ack to
  /// the in-flight send it answers. 0 = unused (datagram-style transports
  /// correlate by position).
  uint64_t net_seq = 0;
  /// kAck only: StatusCode of the remote endpoint's HandleMessage result
  /// (0 = OK). On failure the remote puts the error text in `name`, so
  /// the sender's retry machinery sees the same Status it would have seen
  /// in-process.
  uint32_t ack_code = 0;

  bool operator==(const Message&) const = default;
};

/// Wire frame: varint body length, 4-byte frame CRC, body. The body is
/// the type byte, the fields, the payload and the trailing varints. When
/// `payload_crc` is set the type byte carries kPayloadCrcFlag and the
/// frame CRC covers the body except the payload bytes: the payload has
/// its own end-to-end check (VerifyPayloadCrc at the endpoint), so one
/// hop CRCs the payload once, not three times. Frames without a
/// payload_crc (control messages) keep a whole-body CRC.
inline constexpr uint8_t kPayloadCrcFlag = 0x80;

/// One encoded frame as three segments — head bytes, the payload
/// (shared, not copied) and tail bytes — whose concatenation is exactly
/// EncodeMessage(msg). Lets a socket send the payload straight from the
/// staged buffer with one gathered write.
struct EncodedFrame {
  std::string head;
  SharedPayload payload;
  std::string tail;

  size_t size() const { return head.size() + payload.size() + tail.size(); }
};

EncodedFrame EncodeFrame(const Message& msg);

/// Serializes a message to a CRC-framed binary blob.
std::string EncodeMessage(const Message& msg);

/// Parses a blob produced by EncodeMessage; verifies the frame CRC (not
/// the payload of a flagged frame: see VerifyPayloadCrc). Bodies larger
/// than `max_frame_bytes` are rejected without allocating.
Result<Message> DecodeMessage(std::string_view data,
                              size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// The end-to-end payload check every receiving endpoint runs before it
/// accepts file bytes: Corruption when `payload_crc` is set and does not
/// match the payload. Messages without a payload_crc pass.
Status VerifyPayloadCrc(const Message& msg);

/// Serializes several messages into one multi-message wire frame
/// (varint count + concatenated EncodeMessage blobs). Used by the
/// delivery coalescing path: many small files to one subscriber ride a
/// single frame — one link round trip — while each inner message keeps
/// its own CRC and ack bookkeeping.
std::string EncodeBundle(const std::vector<Message>& msgs);

/// Parses a frame produced by EncodeBundle. Callers must know a frame is
/// a bundle (the transports keep bundle and single sends on separate
/// paths); the format is not self-describing against EncodeMessage.
/// The claimed message count is validated against the bytes actually
/// present before any allocation sized from it.
Result<std::vector<Message>> DecodeBundle(
    std::string_view data, size_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace bistro

#endif  // BISTRO_NET_PROTOCOL_H_
