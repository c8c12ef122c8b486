#include "net/protocol.h"

#include <cstring>

#include "common/hash.h"

namespace bistro {

namespace {
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view* in, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (!in->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

// ZigZag for signed TimePoints.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

bool GetView(std::string_view* in, std::string_view* s) {
  uint64_t len;
  if (!GetVarint(in, &len) || in->size() < len) return false;
  *s = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}

bool GetString(std::string_view* in, std::string* s) {
  std::string_view v;
  if (!GetView(in, &v)) return false;
  s->assign(v);
  return true;
}
}  // namespace

EncodedFrame EncodeFrame(const Message& msg) {
  const bool flagged = msg.payload_crc != 0;
  // Body bytes before the payload; they move into `head` below, after
  // the length prefix and CRC that depend on the whole body.
  std::string fields;
  fields.push_back(static_cast<char>(static_cast<uint8_t>(msg.type) |
                                     (flagged ? kPayloadCrcFlag : 0)));
  PutVarint(&fields, msg.file_id);
  PutString(&fields, msg.feed);
  PutString(&fields, msg.name);
  PutString(&fields, msg.dest_path);
  PutVarint(&fields, msg.payload.size());
  EncodedFrame frame;
  frame.payload = msg.payload;
  std::string& tail = frame.tail;
  PutVarint(&tail, msg.payload_crc);
  PutVarint(&tail, ZigZag(msg.data_time));
  PutVarint(&tail, ZigZag(msg.batch_time));
  PutVarint(&tail, msg.batch_count);
  PutVarint(&tail, msg.net_seq);
  PutVarint(&tail, msg.ack_code);

  std::string_view payload = msg.payload;
  uint32_t crc = Crc32(fields);
  if (!flagged) crc = Crc32(payload.data(), payload.size(), crc);
  crc = Crc32(tail.data(), tail.size(), crc);
  frame.head.reserve(fields.size() + 14);
  PutVarint(&frame.head, fields.size() + payload.size() + tail.size());
  char crc_buf[4];
  std::memcpy(crc_buf, &crc, 4);
  frame.head.append(crc_buf, 4);
  frame.head += fields;
  return frame;
}

std::string EncodeMessage(const Message& msg) {
  EncodedFrame frame = EncodeFrame(msg);
  std::string out;
  out.reserve(frame.size());
  out += frame.head;
  out += frame.payload.view();
  out += frame.tail;
  return out;
}

Result<Message> DecodeMessage(std::string_view data, size_t max_frame_bytes) {
  uint64_t len;
  if (!GetVarint(&data, &len)) return Status::Corruption("message: bad length");
  // Bound check before the size comparison below: a hostile length prefix
  // must not drive any downstream allocation, and 4 + len could otherwise
  // wrap for lengths near UINT64_MAX.
  if (len > max_frame_bytes) {
    return Status::Corruption("message: body exceeds max_frame_bytes");
  }
  if (data.size() < 4 + len) return Status::Corruption("message: truncated");
  uint32_t crc;
  std::memcpy(&crc, data.data(), 4);
  data.remove_prefix(4);
  const std::string_view frame_body = data.substr(0, len);
  if (frame_body.empty()) return Status::Corruption("message: empty body");
  const uint8_t type_byte = static_cast<uint8_t>(frame_body.front());
  const bool flagged = (type_byte & kPayloadCrcFlag) != 0;
  if (!flagged && Crc32(frame_body) != crc) {
    return Status::Corruption("message: crc mismatch");
  }
  Message msg;
  uint8_t type = static_cast<uint8_t>(type_byte & ~kPayloadCrcFlag);
  if (type < 1 || type > 6) return Status::Corruption("message: bad type");
  msg.type = static_cast<MessageType>(type);
  std::string_view body = frame_body;
  body.remove_prefix(1);
  uint64_t u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: file_id");
  msg.file_id = u;
  std::string_view payload;
  if (!GetString(&body, &msg.feed) || !GetString(&body, &msg.name) ||
      !GetString(&body, &msg.dest_path) || !GetView(&body, &payload)) {
    return Status::Corruption("message: strings");
  }
  if (!GetVarint(&body, &u)) return Status::Corruption("message: payload_crc");
  msg.payload_crc = static_cast<uint32_t>(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: data_time");
  msg.data_time = UnZigZag(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: batch_time");
  msg.batch_time = UnZigZag(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: batch_count");
  msg.batch_count = u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: net_seq");
  msg.net_seq = u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: ack_code");
  msg.ack_code = static_cast<uint32_t>(u);
  if (flagged) {
    // The flag promises an end-to-end payload check; without one the
    // payload bytes would be covered by nothing.
    if (msg.payload_crc == 0) {
      return Status::Corruption("message: flagged frame without payload_crc");
    }
    size_t before = static_cast<size_t>(payload.data() - frame_body.data());
    size_t after = before + payload.size();
    uint32_t actual =
        Crc32(frame_body.data() + after, frame_body.size() - after,
              Crc32(frame_body.data(), before));
    if (actual != crc) return Status::Corruption("message: crc mismatch");
  }
  msg.payload = std::string(payload);
  return msg;
}

Status VerifyPayloadCrc(const Message& msg) {
  if (msg.payload_crc != 0 && Crc32(msg.payload) != msg.payload_crc) {
    return Status::Corruption("payload crc mismatch: " + msg.name);
  }
  return Status::OK();
}

std::string EncodeBundle(const std::vector<Message>& msgs) {
  std::string out;
  PutVarint(&out, msgs.size());
  for (const Message& msg : msgs) out += EncodeMessage(msg);
  return out;
}

Result<std::vector<Message>> DecodeBundle(std::string_view data,
                                          size_t max_frame_bytes) {
  uint64_t count;
  if (!GetVarint(&data, &count)) return Status::Corruption("bundle: bad count");
  // The claimed count sizes the reserve below, so validate it against the
  // bytes actually present first: every encoded message occupies at least
  // one byte, so a count beyond the remaining size is provably a lie (in
  // practice a hostile header) and must not drive an allocation.
  if (count > data.size()) {
    return Status::Corruption("bundle: count exceeds data");
  }
  // Each inner blob is self-delimiting (varint body length + 4-byte frame
  // CRC + body), so peel off one exact extent per message.
  std::vector<Message> msgs;
  msgs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view probe = data;
    uint64_t body_len;
    if (!GetVarint(&probe, &body_len)) {
      return Status::Corruption("bundle: truncated");
    }
    if (body_len > max_frame_bytes) {
      return Status::Corruption("bundle: body exceeds max_frame_bytes");
    }
    if (probe.size() < 4 + body_len) {
      return Status::Corruption("bundle: truncated");
    }
    size_t blob_len = (data.size() - probe.size()) + 4 + body_len;
    BISTRO_ASSIGN_OR_RETURN(
        Message msg, DecodeMessage(data.substr(0, blob_len), max_frame_bytes));
    msgs.push_back(std::move(msg));
    data.remove_prefix(blob_len);
  }
  if (!data.empty()) return Status::Corruption("bundle: trailing bytes");
  return msgs;
}

}  // namespace bistro
