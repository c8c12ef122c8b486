// Tests for the protocol encoding and the transports.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <memory>

#include "common/hash.h"
#include "common/random.h"
#include "common/logging.h"
#include "common/strings.h"
#include "fanout/relay.h"
#include "kv/kvstore.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "sim/event_loop.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

Message SampleMessage() {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = 12345;
  msg.feed = "SNMP.CPU";
  msg.name = "CPU_POLL1_201009250502.txt";
  msg.dest_path = "SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt";
  msg.payload = "some,measurement,rows\n";
  msg.data_time = FromCivil(CivilTime{2010, 9, 25, 5, 2, 0});
  msg.batch_time = -42;  // negative must survive (zigzag)
  msg.batch_count = 3;
  return msg;
}

TEST(ProtocolTest, RoundTrip) {
  Message msg = SampleMessage();
  auto decoded = DecodeMessage(EncodeMessage(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, msg);
}

TEST(ProtocolTest, RoundTripAllTypes) {
  for (auto type : {MessageType::kFileData, MessageType::kFileNotify,
                    MessageType::kEndOfBatch, MessageType::kSourceNotify,
                    MessageType::kAck, MessageType::kHeartbeat}) {
    Message msg;
    msg.type = type;
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, type);
  }
}

TEST(ProtocolTest, EmptyFieldsAndLargePayload) {
  Message msg;
  msg.type = MessageType::kFileData;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    msg.payload.mutable_str() += static_cast<char>(rng.Next() & 0xFF);
  }
  auto decoded = DecodeMessage(EncodeMessage(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, msg);
}

TEST(ProtocolTest, CorruptionDetected) {
  std::string wire = EncodeMessage(SampleMessage());
  for (size_t pos : {size_t{2}, wire.size() / 2, wire.size() - 1}) {
    std::string bad = wire;
    bad[pos] ^= 0x40;
    auto decoded = DecodeMessage(bad);
    // Either CRC catches it, or (if the flipped bit was in the length
    // prefix) framing fails. Never a silent wrong message.
    if (decoded.ok()) {
      EXPECT_EQ(*decoded, SampleMessage()) << "undetected corruption at " << pos;
      FAIL() << "corruption silently accepted at " << pos;
    }
  }
}

TEST(ProtocolTest, TruncationDetected) {
  std::string wire = EncodeMessage(SampleMessage());
  for (size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_FALSE(DecodeMessage(std::string_view(wire).substr(0, len)).ok());
  }
}

// Frames of SampleMessage() as the encoder wrote them before payload
// frames carried kPayloadCrcFlag: with payload_crc 0 (the format every
// control message still uses), and with payload_crc set and a whole-body
// frame CRC (the records of a relay spool written by that encoder).
constexpr char kGoldenUnflagged[] =
    "725f73f15901b96008534e4d502e4350551a4350555f504f4c4c315f32303130303932"
    "35303530322e74787426534e4d502e4350552f323031302f30392f32352f4350555f50"
    "4f4c4c315f303530322e74787416736f6d652c6d6561737572656d656e742c726f7773"
    "0a008088f9d2ccc3c80453030000";
constexpr char kGoldenWholeBodyWithPayloadCrc[] =
    "76be2b1a2b01b96008534e4d502e4350551a4350555f504f4c4c315f32303130303932"
    "35303530322e74787426534e4d502e4350552f323031302f30392f32352f4350555f50"
    "4f4c4c315f303530322e74787416736f6d652c6d6561737572656d656e742c726f7773"
    "0aa38fb59f018088f9d2ccc3c80453030000";
constexpr uint32_t kSamplePayloadCrc = 0x13ed47a3;

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// SampleMessage() carrying its true end-to-end checksum, as the delivery
// engine sends every staged file.
Message SampleWithPayloadCrc() {
  Message msg = SampleMessage();
  msg.payload_crc = Crc32(msg.payload);
  return msg;
}

// SampleMessage bodies are < 128 bytes: a one-byte length prefix, then
// the 4-byte frame CRC, then the body.
constexpr size_t kSampleBodyOffset = 5;

TEST(ProtocolTest, UnflaggedFrameIsByteIdenticalToPreviousFormat) {
  EXPECT_EQ(EncodeMessage(SampleMessage()), Unhex(kGoldenUnflagged));
  ASSERT_EQ(Crc32(SampleMessage().payload), kSamplePayloadCrc);
}

TEST(ProtocolTest, PreviousFormatFrameWithPayloadCrcStillDecodes) {
  auto decoded = DecodeMessage(Unhex(kGoldenWholeBodyWithPayloadCrc));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, SampleWithPayloadCrc());
  EXPECT_TRUE(VerifyPayloadCrc(*decoded).ok());
}

TEST(ProtocolTest, FlaggedFrameRoundTripsAndSharesEncodedSegments) {
  Message msg = SampleWithPayloadCrc();
  EncodedFrame frame = EncodeFrame(msg);
  // The payload segment aliases the message's buffer: no copy.
  EXPECT_EQ(frame.payload.view().data(), msg.payload.view().data());
  std::string wire = EncodeMessage(msg);
  EXPECT_EQ(wire, frame.head + msg.payload.str() + frame.tail);
  EXPECT_EQ(static_cast<uint8_t>(wire[kSampleBodyOffset]),
            static_cast<uint8_t>(MessageType::kFileData) | kPayloadCrcFlag);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, msg);
}

TEST(ProtocolTest, FlaggedFramePayloadFlipIsLeftToVerifyPayloadCrc) {
  Message msg = SampleWithPayloadCrc();
  std::string wire = EncodeMessage(msg);
  size_t at = wire.find(msg.payload.view());
  ASSERT_NE(at, std::string::npos);
  for (size_t pos = at; pos < at + msg.payload.size(); ++pos) {
    std::string bad = wire;
    bad[pos] ^= static_cast<char>(1u << (pos % 8));
    auto decoded = DecodeMessage(bad);
    ASSERT_TRUE(decoded.ok()) << "pos " << pos << ": " << decoded.status();
    EXPECT_NE(decoded->payload, msg.payload);
    Status verified = VerifyPayloadCrc(*decoded);
    EXPECT_TRUE(verified.IsCorruption()) << "pos " << pos << ": " << verified;
  }
}

TEST(ProtocolTest, FlaggedFrameFlipOutsidePayloadIsRejectedAtDecode) {
  Message msg = SampleWithPayloadCrc();
  std::string wire = EncodeMessage(msg);
  size_t at = wire.find(msg.payload.view());
  ASSERT_NE(at, std::string::npos);
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    if (pos >= at && pos < at + msg.payload.size()) continue;
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = wire;
      bad[pos] ^= static_cast<char>(1u << bit);
      EXPECT_FALSE(DecodeMessage(bad).ok())
          << "flip at " << pos << " bit " << bit << " accepted";
    }
  }
}

TEST(ProtocolTest, FlaggedFrameWithoutPayloadCrcIsRejected) {
  // A frame whose flag promises a payload check it does not carry, with a
  // frame CRC that is valid under the flagged rule: only the rule can
  // reject it.
  Message msg = SampleMessage();
  std::string wire = EncodeMessage(msg);
  wire[kSampleBodyOffset] =
      static_cast<char>(wire[kSampleBodyOffset] | kPayloadCrcFlag);
  size_t at = wire.find(msg.payload.view());
  ASSERT_NE(at, std::string::npos);
  size_t after = at + msg.payload.size();
  uint32_t crc =
      Crc32(wire.data() + after, wire.size() - after,
            Crc32(wire.data() + kSampleBodyOffset, at - kSampleBodyOffset));
  std::memcpy(&wire[1], &crc, 4);
  auto decoded = DecodeMessage(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  EXPECT_NE(decoded.status().message().find("payload_crc"), std::string::npos)
      << decoded.status();
}

TEST(ProtocolTest, VerifyPayloadCrcChecksOnlyMessagesThatCarryOne) {
  Message msg = SampleMessage();
  EXPECT_TRUE(VerifyPayloadCrc(msg).ok());  // payload_crc 0: nothing to check
  msg.payload_crc = Crc32(msg.payload);
  EXPECT_TRUE(VerifyPayloadCrc(msg).ok());
  msg.payload.mutable_str()[0] ^= 0x01;
  EXPECT_TRUE(VerifyPayloadCrc(msg).IsCorruption());
}

// A relay spool record written by the earlier encoder (whole-body frame
// CRC, payload_crc set) replays after an upgrade and reaches the child
// intact through today's flagged frames.
TEST(RelaySpoolCompatTest, RecordWrittenBeforeThePayloadCrcFlagReplays) {
  SimClock clock(0);
  EventLoop loop(&clock);
  LoopbackTransport transport(&loop);
  InMemoryFileSystem fs;
  FileSinkEndpoint child(&fs, "/child");
  transport.Register("child", &child);
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kError);
  {
    auto spool = KvStore::Open(&fs, "/spool");
    ASSERT_TRUE(spool.ok()) << spool.status();
    ASSERT_TRUE((*spool)
                    ->Apply({KvStore::Write::Put("seq", "1"),
                             KvStore::Write::Put(
                                 "m/0000000000000001",
                                 Unhex(kGoldenWholeBodyWithPayloadCrc)),
                             KvStore::Write::Put("w/0000000000000001",
                                                 "child")})
                    .ok());
  }
  fanout::RelayNode::Options options;
  options.spool_dir = "/spool";
  auto relay = fanout::RelayNode::Open("r", {"child"}, &fs, &transport,
                                       &loop, &logger, options);
  ASSERT_TRUE(relay.ok()) << relay.status();
  EXPECT_EQ((*relay)->replayed(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(child.files_received(), 1u);
  EXPECT_EQ(child.corrupt_rejected(), 0u);
  EXPECT_EQ((*relay)->Backlog(), 0u);
  auto data = fs.ReadFile("/child/SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, "some,measurement,rows\n");
}

// ---------------------------------------------------------------- Loopback

TEST(LoopbackTransportTest, DeliversToEndpoint) {
  SimClock clock(0);
  EventLoop loop(&clock);
  LoopbackTransport transport(&loop);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);

  Status result = Status::Internal("callback never ran");
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(sink.files_received(), 1u);
  auto data = fs.ReadFile("/dest/SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "some,measurement,rows\n");
}

TEST(LoopbackTransportTest, UnknownEndpointFails) {
  SimClock clock(0);
  EventLoop loop(&clock);
  LoopbackTransport transport(&loop);
  Status result;
  transport.Send("ghost", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
}

TEST(LoopbackTransportTest, EndpointErrorPropagates) {
  SimClock clock(0);
  EventLoop loop(&clock);
  LoopbackTransport transport(&loop);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  sink.SetFailing(true);
  transport.Register("sub", &sink);
  Status result;
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_EQ(sink.files_received(), 0u);
}

// ---------------------------------------------------------------- SimTransport

TEST(SimTransportTest, DeliveryTakesSimulatedTime) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  SimNetwork net(&rng);
  LinkSpec link;
  link.bandwidth_bytes_per_sec = 1000;
  link.latency = 0;
  net.SetLink("sub", link);
  SimTransport transport(&loop, &net);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);

  Message msg = SampleMessage();
  TimePoint done_at = -1;
  transport.Send("sub", msg, [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    done_at = clock.Now();
  });
  loop.RunUntilIdle();
  // ~ (payload + name + 64) bytes at 1000 B/s.
  uint64_t bytes = msg.payload.size() + msg.name.size() + 64;
  EXPECT_EQ(done_at, static_cast<TimePoint>(bytes * kSecond / 1000));
  EXPECT_EQ(sink.files_received(), 1u);
}

TEST(SimTransportTest, OfflineSubscriberFailsFast) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  SimNetwork net(&rng);
  net.SetLink("sub", LinkSpec::Fast());
  net.SetOnline("sub", false);
  SimTransport transport(&loop, &net);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);
  Status result;
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
}

TEST(FileSinkEndpointTest, DedupeSetBoundedByCapacity) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/d", /*dedupe_capacity=*/4);
  auto file = [](FileId id) {
    Message m;
    m.type = MessageType::kFileData;
    m.file_id = id;
    m.name = StrFormat("f%llu.txt", (unsigned long long)id);
    m.payload = "x";
    return m;
  };
  for (FileId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(sink.HandleMessage(file(id)).ok());
  }
  // Only the 4 newest ids are remembered; the 6 oldest were evicted.
  EXPECT_EQ(sink.files_received(), 10u);
  EXPECT_EQ(sink.dedupe_size(), 4u);
  EXPECT_EQ(sink.dedupe_evictions(), 6u);
  // A recent id redelivered is still absorbed as a duplicate...
  ASSERT_TRUE(sink.HandleMessage(file(10)).ok());
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(sink.files_received(), 10u);
  // ...while an evicted id re-lands (rewrites the same destination file,
  // which is safe) instead of growing the set without bound.
  ASSERT_TRUE(sink.HandleMessage(file(1)).ok());
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(sink.files_received(), 11u);
  EXPECT_EQ(sink.dedupe_size(), 4u);
}

TEST(FileSinkEndpointTest, CountsNotificationsAndBatches) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/d");
  Message notify;
  notify.type = MessageType::kFileNotify;
  Message eob;
  eob.type = MessageType::kEndOfBatch;
  int hooks = 0;
  sink.SetMessageHook([&](const Message&) { hooks++; });
  ASSERT_TRUE(sink.HandleMessage(notify).ok());
  ASSERT_TRUE(sink.HandleMessage(eob).ok());
  EXPECT_EQ(sink.notifications(), 1u);
  EXPECT_EQ(sink.batches(), 1u);
  EXPECT_EQ(hooks, 2);
}

// ------------------------------------------------------ SocketTransport

// Endpoint that records every message and answers with a fixed status.
class CollectingEndpoint : public Endpoint {
 public:
  Status HandleMessage(const Message& msg) override {
    messages.push_back(msg);
    return reply;
  }
  std::vector<Message> messages;
  Status reply = Status::OK();
};

// Runs the loop in short real-time slices until `pred` holds (or 10s).
void PumpUntil(EventLoop* loop, const std::function<bool()>& pred) {
  TimePoint deadline = RealClock::Get()->Now() + 10 * kSecond;
  while (!pred() && RealClock::Get()->Now() < deadline) {
    loop->RunFor(10 * kMillisecond);
  }
}

TEST(ParseInetAddressTest, AcceptsAndRejects) {
  auto ok = ParseInetAddress("127.0.0.1:4400");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->second, 4400);
  EXPECT_TRUE(ParseInetAddress("localhost:0").ok());
  EXPECT_TRUE(ParseInetAddress(":9100").ok());  // INADDR_ANY listener
  EXPECT_FALSE(ParseInetAddress("").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1").ok());
  EXPECT_FALSE(ParseInetAddress("bistro.example.com:9100").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1:notaport").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1:70000").ok());
}

TEST(SocketTransportTest, SendsAndAcksOverRealTcp) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());
  ASSERT_GT(server.listen_port(), 0);

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  Message msg = SampleMessage();
  Status result = Status::TimedOut("no callback");
  bool done = false;
  client.Send("srv", msg, [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result;
  ASSERT_EQ(inbound.messages.size(), 1u);
  // net_seq is stamped by the transport; everything else round-trips.
  Message got = inbound.messages[0];
  got.net_seq = 0;
  EXPECT_EQ(got, msg);
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(server.accepts(), 1u);
  EXPECT_TRUE(client.PeerConnected("srv"));
}

TEST(SocketTransportTest, RemoteHandlerErrorPropagatesThroughAck) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "localhost:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  inbound.reply = Status::Corruption("payload checksum mismatch");
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  Status result;
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsCorruption()) << result;
  EXPECT_NE(result.message().find("checksum"), std::string::npos);
}

// Large payloads over loopback force partial writes (the socket buffer is
// far smaller than the queued bytes); rapid-fire sends interleave many
// frames in single reads. Order and integrity must survive both.
TEST(SocketTransportTest, PartialWritesAndInterleavedFramesKeepOrder) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  constexpr int kCount = 64;
  Rng rng(7);
  int acked = 0;
  int failed = 0;
  std::vector<std::string> payloads;
  for (int i = 0; i < kCount; i++) {
    Message msg;
    msg.type = MessageType::kFileData;
    msg.file_id = static_cast<uint64_t>(i) + 1;
    msg.feed = "BULK";
    msg.name = "file_" + std::to_string(i);
    // Mix tiny frames (interleaving) with ~256 KiB frames (partial writes).
    size_t size = (i % 4 == 0) ? (256u << 10) + rng.Uniform(1024) : rng.Uniform(64) + 1;
    std::string payload;
    payload.reserve(size);
    for (size_t b = 0; b < size; b++) {
      payload.push_back(static_cast<char>('a' + (b + i) % 26));
    }
    msg.payload = payload;
    payloads.push_back(std::move(payload));
    client.Send("srv", msg, [&](const Status& s) { s.ok() ? acked++ : failed++; });
  }
  PumpUntil(&loop, [&] { return acked + failed == kCount; });
  EXPECT_EQ(acked, kCount);
  EXPECT_EQ(failed, 0);
  ASSERT_EQ(inbound.messages.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    EXPECT_EQ(inbound.messages[i].name, "file_" + std::to_string(i));
    EXPECT_EQ(inbound.messages[i].payload.str(), payloads[i]) << i;
  }
}

// Frames of every shape the transport queues: a control frame (empty
// payload), a file frame with payload_crc (flagged), one without.
std::vector<Message> MixedFrames() {
  std::vector<Message> msgs;
  Message ack;
  ack.type = MessageType::kAck;
  ack.net_seq = 7;
  msgs.push_back(ack);
  Message file = SampleWithPayloadCrc();
  file.payload = std::string(300, 'p');
  file.payload_crc = Crc32(file.payload);
  msgs.push_back(file);
  msgs.push_back(SampleMessage());
  msgs.push_back(ack);
  return msgs;
}

// Drains `queue` the way FlushWrites does, with a writer that accepts
// `budgets[i]` bytes on its i-th call (cycling): returns the bytes written.
std::string DrainWithWriter(FrameQueue* queue, int max_iov,
                            const std::vector<size_t>& budgets) {
  std::string out;
  for (size_t call = 0; !queue->empty(); ++call) {
    iovec iov[8];
    int n = queue->Gather(iov, max_iov);
    EXPECT_GT(n, 0);
    size_t budget = budgets[call % budgets.size()];
    size_t wrote = 0;
    for (int k = 0; k < n && wrote < budget; ++k) {
      size_t take = std::min(budget - wrote, iov[k].iov_len);
      out.append(static_cast<const char*>(iov[k].iov_base), take);
      wrote += take;
    }
    size_t left = queue->bytes();
    queue->Consume(wrote);
    EXPECT_EQ(queue->bytes(), left - wrote);
  }
  return out;
}

// A write may stop at any byte: mid-head, mid-payload, mid-tail, or on a
// frame boundary. Resuming from every one of those points must put the
// exact EncodeMessage stream on the wire.
TEST(FrameQueueTest, GatheredWritesResumeFromEveryByte) {
  std::vector<Message> msgs = MixedFrames();
  const std::string expect = EncodeMessageStream(msgs);
  for (size_t first = 1; first < expect.size(); ++first) {
    for (int max_iov : {2, 8}) {
      FrameQueue queue;
      for (const Message& msg : msgs) queue.Push(EncodeFrame(msg));
      ASSERT_EQ(queue.bytes(), expect.size());
      std::string got = DrainWithWriter(&queue, max_iov, {first, 5, 61});
      ASSERT_EQ(got, expect) << "first write " << first << " iov " << max_iov;
      EXPECT_EQ(queue.bytes(), 0u);
    }
  }
}

// Finds this process's TCP socket whose local port is `local_port` (the
// transport keeps its fds private; the test shrinks one's send buffer).
int FindSocketByLocalPort(uint16_t local_port) {
  for (int fd = 3; fd < 4096; ++fd) {
    sockaddr_in sin{};
    socklen_t len = sizeof(sin);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0 &&
        sin.sin_family == AF_INET && ntohs(sin.sin_port) == local_port) {
      return fd;
    }
  }
  return -1;
}

// The real sendmsg path: a client socket with a tiny SO_SNDBUF writing to
// a raw reader with a tiny receive window that reads in small random
// chunks, so gathered writes stop at arbitrary offsets of 1 MiB frames
// and of the small frames between them. Send and SendBundle interleave.
TEST(SocketTransportTest, GatheredWritesThroughSmallBuffersKeepEveryByte) {
  EventLoop loop(RealClock::Get());
  int listener = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  int small = 4096;
  setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);
  socklen_t alen = sizeof(addr);
  getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &alen);

  SocketTransport client(&loop, {});
  client.AddPeer("raw", "127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));
  int completed = 0;
  int failed = 0;
  auto done = [&](const Status& s) {
    completed++;
    if (!s.ok()) failed++;
  };
  std::vector<Message> sent;
  auto send_one = [&](Message msg) {
    sent.push_back(msg);
    client.Send("raw", msg, done);
  };
  Message hello;
  hello.type = MessageType::kHeartbeat;
  send_one(hello);

  // Accept, then shrink the client's send buffer before the bulk traffic.
  sockaddr_in peer{};
  socklen_t plen = sizeof(peer);
  int conn = -1;
  for (int i = 0; i < 1000 && conn < 0; ++i) {
    loop.RunFor(kMillisecond);
    conn = accept4(listener, reinterpret_cast<sockaddr*>(&peer), &plen,
                   SOCK_NONBLOCK | SOCK_CLOEXEC);
  }
  ASSERT_GE(conn, 0);
  int client_fd = FindSocketByLocalPort(ntohs(peer.sin_port));
  ASSERT_GE(client_fd, 0);
  ASSERT_EQ(setsockopt(client_fd, SOL_SOCKET, SO_SNDBUF, &small,
                       sizeof(small)),
            0);

  Rng rng(15);
  auto big = [&](int i) {
    Message msg;
    msg.type = MessageType::kFileData;
    msg.file_id = static_cast<FileId>(i);
    msg.name = "big_" + std::to_string(i);
    std::string& bytes = msg.payload.mutable_str();
    bytes.resize((1u << 20) + rng.Uniform(4096));
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    msg.payload_crc = Crc32(msg.payload);
    return msg;
  };
  auto control = [&](int i) {
    Message msg;
    msg.type = MessageType::kEndOfBatch;
    msg.feed = "F" + std::to_string(i);
    msg.batch_count = static_cast<uint64_t>(i);
    return msg;
  };
  for (int round = 0; round < 3; ++round) {
    send_one(big(10 * round));
    send_one(control(10 * round + 1));
    std::vector<BundleItem> bundle;
    for (Message msg : {control(10 * round + 2), big(10 * round + 3),
                        control(10 * round + 4)}) {
      sent.push_back(msg);
      bundle.push_back(BundleItem{msg, done});
    }
    client.SendBundle("raw", std::move(bundle));
    send_one(control(10 * round + 5));
  }

  // Read in small random chunks; ack every message as the remote side of
  // the protocol would.
  MessageStreamDecoder decoder;
  std::vector<Message> got;
  TimePoint deadline = RealClock::Get()->Now() + 20 * kSecond;
  std::vector<char> chunk(4096);
  while (completed < static_cast<int>(sent.size()) &&
         RealClock::Get()->Now() < deadline) {
    loop.RunFor(kMillisecond);
    for (int reads = 0; reads < 8; ++reads) {
      ssize_t n = read(conn, chunk.data(), 1 + rng.Uniform(chunk.size()));
      if (n <= 0) break;
      ASSERT_TRUE(decoder.Feed(std::string_view(chunk.data(), n)).ok());
    }
    while (auto msg = decoder.Next()) {
      Message ack;
      ack.type = MessageType::kAck;
      ack.net_seq = msg->net_seq;
      std::string wire = EncodeMessage(ack);
      ASSERT_EQ(write(conn, wire.data(), wire.size()),
                static_cast<ssize_t>(wire.size()));
      got.push_back(std::move(*msg));
    }
  }
  close(conn);
  close(listener);
  EXPECT_EQ(completed, static_cast<int>(sent.size()));
  EXPECT_EQ(failed, 0);
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].net_seq, i + 1);  // wire order is send order
    got[i].net_seq = 0;
    EXPECT_EQ(got[i], sent[i]) << "message " << i;
    EXPECT_TRUE(VerifyPayloadCrc(got[i]).ok()) << "message " << i;
  }
}

// A queued frame references the sender's payload buffer instead of a
// copy; mutating the message afterwards must detach (copy-on-write) and
// leave the queued bytes as they were when sent.
TEST(SocketTransportTest, MutatingAQueuedPayloadDoesNotChangeTheWire) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());
  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  Message msg;
  msg.type = MessageType::kFileData;
  msg.name = "cow";
  msg.payload.mutable_str().assign(4u << 20, 'a');  // owned, writable
  msg.payload_crc = Crc32(msg.payload);
  const std::string original = msg.payload.str();
  bool done = false;
  Status result;
  client.Send("srv", msg, [&](const Status& s) {
    result = s;
    done = true;
  });
  // 4 MiB cannot all be on the wire yet: the rest is still queued.
  EXPECT_GT(client.GetPeerStats("srv").queued_bytes, 0u);
  std::string& bytes = msg.payload.mutable_str();
  bytes[0] = 'Z';
  bytes[bytes.size() - 1] = 'Z';
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result;
  ASSERT_EQ(inbound.messages.size(), 1u);
  EXPECT_EQ(inbound.messages[0].payload.str(), original);
  EXPECT_TRUE(VerifyPayloadCrc(inbound.messages[0]).ok());
  EXPECT_NE(msg.payload.str(), original);
}

TEST(SocketTransportTest, SendBundleAcksEveryItem) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  int acked = 0;
  std::vector<BundleItem> items;
  for (int i = 0; i < 5; i++) {
    BundleItem item;
    item.msg = SampleMessage();
    item.msg.file_id = 100 + static_cast<uint64_t>(i);
    item.msg.name = "bundle_" + std::to_string(i);
    item.done = [&](const Status& s) {
      ASSERT_TRUE(s.ok()) << s;
      acked++;
    };
    items.push_back(std::move(item));
  }
  client.SendBundle("srv", std::move(items));
  PumpUntil(&loop, [&] { return acked == 5; });
  EXPECT_EQ(acked, 5);
  ASSERT_EQ(inbound.messages.size(), 5u);
  EXPECT_EQ(inbound.messages[4].name, "bundle_4");
}

TEST(SocketTransportTest, UnknownEndpointFailsUnavailable) {
  EventLoop loop(RealClock::Get());
  SocketTransport client(&loop, {});
  Status result;
  bool done = false;
  client.Send("nobody", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
}

TEST(SocketTransportTest, LocalEndpointWinsOverPeerName) {
  EventLoop loop(RealClock::Get());
  SocketTransport transport(&loop, {});
  CollectingEndpoint local;
  transport.AddPeer("dual", "127.0.0.1:1");  // nothing listens there
  transport.Register("dual", &local);
  bool done = false;
  Status result;
  transport.Send("dual", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result;
  EXPECT_EQ(local.messages.size(), 1u);
}

TEST(SocketTransportTest, QueueCapRejectsOversizedBacklog) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options opts;
  opts.outbound_queue_bytes = 4096;
  SocketTransport client(&loop, opts);
  client.AddPeer("srv", "127.0.0.1:1");  // never connects; sends just queue

  Message big = SampleMessage();
  big.payload = std::string(8192, 'x');
  Status result;
  bool done = false;
  client.Send("srv", big, [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_NE(result.message().find("queue"), std::string::npos) << result;
}

TEST(SocketTransportTest, AckTimeoutFailsSendAndDropsConnection) {
  EventLoop loop(RealClock::Get());
  // Raw listener that completes handshakes (kernel backlog) but never
  // reads or acks: the peer looks connected yet is effectively dead.
  int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(raw, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  int port = ntohs(addr.sin_port);

  SocketTransport::Options opts;
  opts.ack_timeout = 200 * kMillisecond;
  opts.reconnect_backoff_min = kHour;  // keep it down once dropped
  opts.reconnect_backoff_max = kHour;
  SocketTransport client(&loop, opts);
  client.AddPeer("dead", "127.0.0.1:" + std::to_string(port));

  Status result;
  bool done = false;
  client.Send("dead", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_GE(client.ack_timeouts(), 1u);
  EXPECT_GE(client.disconnects(), 1u);
  EXPECT_FALSE(client.PeerConnected("dead"));
  ::close(raw);
}

// A peer that dies and comes back on a new port is reachable again after
// re-addressing (the upstream restart path) — queued sends survive the
// outage as delivery-engine retries would.
TEST(SocketTransportTest, ReconnectsAfterPeerRestart) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint first_inbound;
  server->SetInboundEndpoint(&first_inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = 10 * kMillisecond;
  client_opts.reconnect_backoff_max = 50 * kMillisecond;
  SocketTransport client(&loop, client_opts);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);

  // Kill the server; the established connection drops.
  server.reset();
  PumpUntil(&loop, [&] { return !client.PeerConnected("srv"); });
  EXPECT_FALSE(client.PeerConnected("srv"));

  // An in-outage send fails Unavailable (the delivery engine would retry).
  Status outage;
  bool outage_done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    outage = s;
    outage_done = true;
  });
  PumpUntil(&loop, [&] { return outage_done; });

  // Restart on a fresh ephemeral port and re-address the peer.
  SocketTransport revived(&loop, server_opts);
  CollectingEndpoint second_inbound;
  revived.SetInboundEndpoint(&second_inbound);
  ASSERT_TRUE(revived.Listen().ok());
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(revived.listen_port()));

  bool again = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    again = true;
  });
  PumpUntil(&loop, [&] { return again; });
  ASSERT_TRUE(again);
  EXPECT_EQ(second_inbound.messages.size(), 1u);
  EXPECT_GE(client.connects(), 2u);
}

// A reader that dies mid-stream turns our connection into a write to a
// closed socket. Every write(2)-family call in the transport goes through
// the single MSG_NOSIGNAL sendmsg() in FlushWrites, so the process survives
// with a retryable error instead of dying on SIGPIPE. SIGPIPE is reset to
// its default disposition here to prove the transport doesn't depend on
// the embedding process ignoring it.
TEST(SocketTransportTest, SigpipeSafeWhenReaderDiesMidStream) {
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGPIPE, &dfl, &old), 0);

  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint inbound;
  server->SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = kHour;  // no reconnect noise
  client_opts.reconnect_backoff_max = kHour;
  client_opts.ack_timeout = 300 * kMillisecond;  // bound the failure path
  SocketTransport client(&loop, client_opts);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  // Establish the connection with one acked message.
  bool warm = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    warm = true;
  });
  PumpUntil(&loop, [&] { return warm; });
  ASSERT_TRUE(warm);

  // Kill the reader, then stream large frames into the dead connection.
  // Once the RST lands, send() returns EPIPE — which must surface as a
  // failed callback (directly, or via the ack-timeout sweep for frames
  // that made it into the socket buffer), never as a fatal signal.
  server.reset();
  int failed = 0;
  int completed = 0;
  for (int i = 0; i < 8; i++) {
    Message big = SampleMessage();
    big.name = "post_mortem_" + std::to_string(i);
    big.payload = std::string(512u << 10, 'x');
    client.Send("srv", big, [&](const Status& s) {
      completed++;
      if (!s.ok()) {
        EXPECT_TRUE(s.IsUnavailable()) << s;
        failed++;
      }
    });
  }
  PumpUntil(&loop, [&] { return completed == 8; });
  EXPECT_EQ(completed, 8);  // reaching here at all means no SIGPIPE death
  EXPECT_GE(failed, 1);
  ASSERT_EQ(sigaction(SIGPIPE, &old, nullptr), 0);
}

// Records every PeerObserver callback.
class RecordingObserver : public SocketTransport::PeerObserver {
 public:
  void OnPeerConnected(const std::string&) override { connected++; }
  void OnPeerConnectFailed(const std::string&, const Status&) override {
    connect_failed++;
  }
  void OnPeerDisconnected(const std::string&, const Status&) override {
    disconnected++;
  }
  void OnPeerAckTimeout(const std::string&) override { ack_timeouts++; }
  void OnPeerAck(const std::string&, const Status& s) override {
    acks++;
    last_ack_status = s;
  }
  int connected = 0;
  int connect_failed = 0;
  int disconnected = 0;
  int ack_timeouts = 0;
  int acks = 0;
  Status last_ack_status;
};

TEST(SocketTransportTest, ObserverSeesConnectAckAndDisconnect) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint inbound;
  server->SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = 10 * kMillisecond;
  client_opts.reconnect_backoff_max = 20 * kMillisecond;
  SocketTransport client(&loop, client_opts);
  RecordingObserver observer;
  client.SetPeerObserver(&observer);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_EQ(observer.connected, 1);
  EXPECT_EQ(observer.acks, 1);
  EXPECT_TRUE(observer.last_ack_status.ok());

  // Remote handler errors still arrive as acks: the wire works.
  inbound.reply = Status::Corruption("bad");
  done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_EQ(observer.acks, 2);
  EXPECT_TRUE(observer.last_ack_status.IsCorruption());

  // Peer death: one disconnect, then connect-failed on each reconnect try.
  server.reset();
  PumpUntil(&loop, [&] { return observer.connect_failed >= 1; });
  EXPECT_EQ(observer.disconnected, 1);
  EXPECT_GE(observer.connect_failed, 1);
}

TEST(SocketTransportTest, AckTimeoutReportsOnceNotAlsoAsDisconnect) {
  EventLoop loop(RealClock::Get());
  // Handshake-only listener: connects succeed, nothing is ever acked.
  int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(raw, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  SocketTransport::Options opts;
  opts.ack_timeout = 100 * kMillisecond;
  opts.reconnect_backoff_min = kHour;
  opts.reconnect_backoff_max = kHour;
  SocketTransport client(&loop, opts);
  RecordingObserver observer;
  client.SetPeerObserver(&observer);
  client.AddPeer("dead", "127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));

  bool done = false;
  client.Send("dead", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  // The drop reports as exactly one ack-timeout — not a second time as a
  // disconnect — so a health tracker weighs the failure once.
  EXPECT_EQ(observer.ack_timeouts, 1);
  EXPECT_EQ(observer.disconnected, 0);
  EXPECT_EQ(observer.acks, 0);
  ::close(raw);
}

TEST(SocketTransportTest, SendGateFailsFastWithoutQueueing) {
  EventLoop loop(RealClock::Get());
  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:1");  // never connects
  client.SetSendGate([](const std::string& peer, const Message& msg) {
    if (msg.type == MessageType::kHeartbeat) return Status::OK();
    return Status::Unavailable("peer " + peer + " is down (circuit open)");
  });

  Status result;
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_NE(result.message().find("circuit"), std::string::npos);
  EXPECT_EQ(client.gate_rejects(), 1u);
  // Nothing queued: the rejected send never consumed outbound bytes.
  EXPECT_EQ(client.GetPeerStats("srv").queued_bytes, 0u);

  // Heartbeats pass the gate: the probe queues toward the (unreachable)
  // peer instead of being rejected. Checked before running the loop —
  // the refused connect then fails it like any other queued send.
  Message probe;
  probe.type = MessageType::kHeartbeat;
  client.Send("srv", probe, [](const Status&) {});
  EXPECT_EQ(client.gate_rejects(), 1u);
  EXPECT_GT(client.GetPeerStats("srv").queued_bytes, 0u);
  loop.RunFor(10 * kMillisecond);

  std::vector<BundleItem> items;
  int bundle_failed = 0;
  for (int i = 0; i < 3; i++) {
    BundleItem item;
    item.msg = SampleMessage();
    item.done = [&](const Status& s) {
      if (s.IsUnavailable()) bundle_failed++;
    };
    items.push_back(std::move(item));
  }
  client.SendBundle("srv", std::move(items));
  PumpUntil(&loop, [&] { return bundle_failed == 3; });
  EXPECT_EQ(bundle_failed, 3);  // one gate verdict fails every item
}

TEST(SocketTransportTest, PeerStatsTrackReconnectsAndOutage) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options opts;
  opts.reconnect_backoff_min = 10 * kMillisecond;
  opts.reconnect_backoff_max = 20 * kMillisecond;
  SocketTransport client(&loop, opts);
  MetricsRegistry registry;
  client.AttachMetrics(&registry);

  EXPECT_FALSE(client.GetPeerStats("ghost").known);

  client.AddPeer("srv", "127.0.0.1:1");  // unreachable
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  // Let a few reconnect attempts fail.
  TimePoint until = RealClock::Get()->Now() + 300 * kMillisecond;
  while (RealClock::Get()->Now() < until) loop.RunFor(20 * kMillisecond);

  SocketTransport::PeerNetStats stats = client.GetPeerStats("srv");
  ASSERT_TRUE(stats.known);
  EXPECT_FALSE(stats.connected);
  EXPECT_GE(stats.reconnect_attempts, 2u);
  EXPECT_GT(stats.disconnected_total, 0);
  EXPECT_EQ(stats.last_ack_age, -1);
  EXPECT_EQ(client.PeerNames(), std::vector<std::string>{"srv"});

  // The per-peer series mirror the stats.
  bool saw_reconnects = false;
  for (const MetricSnapshot& m : registry.Collect()) {
    if (m.name == "bistro_net_peer_srv_reconnects_total") {
      saw_reconnects = true;
      EXPECT_GE(m.counter_value, 2u);
    }
  }
  EXPECT_TRUE(saw_reconnects);
}

}  // namespace
}  // namespace bistro
