// Deterministic byte ledger of one federation hop: staged file ->
// DeliveryEngine -> SocketTransport (loopback TCP) -> FederationInbound on
// a second server. Counts the payload bytes the hop runs through CRC32
// and the payload-sized buffers the send path allocates — the per-byte
// work the wire format and the zero-copy send queue are meant to bound.
// The normalize layer's codec gets the same allocation count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/hash.h"
#include "common/random.h"
#include "compress/codec.h"
#include "config/parser.h"
#include "core/server.h"
#include "federation/federation.h"
#include "net/socket_transport.h"
#include "vfs/memfs.h"

// Allocations of at least kBigAllocation bytes made on a thread while its
// counting window is open. Any user-space copy of a payload into a fresh
// buffer shows up here; the small per-frame header strings do not.
namespace {
constexpr size_t kBigAllocation = 32 << 10;
thread_local bool g_counting = false;
thread_local uint64_t g_big_allocated = 0;
thread_local uint64_t g_big_allocations = 0;
}  // namespace

// Out of line: inlined into a caller, GCC would pair this malloc-backed
// new with the free in delete and warn about a mismatch that is not one.
__attribute__((noinline)) void* operator new(size_t n) {
  if (g_counting && n >= kBigAllocation) {
    g_big_allocated += n;
    ++g_big_allocations;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace bistro {
namespace {

class CountingWindow {
 public:
  CountingWindow() { g_counting = true; }
  ~CountingWindow() { g_counting = false; }
};

/// Forwards to the real transport, counting big allocations made inside
/// Send/SendBundle (encode + queue + the first gathered write) and acks.
class SendLedgerTransport : public Transport {
 public:
  explicit SendLedgerTransport(Transport* inner) : inner_(inner) {}

  void Send(const std::string& endpoint, const Message& msg,
            SendCallback done) override {
    CountingWindow window;
    inner_->Send(endpoint, msg, Wrap(std::move(done)));
  }
  void SendBundle(const std::string& endpoint,
                  std::vector<BundleItem> items) override {
    for (BundleItem& item : items) item.done = Wrap(std::move(item.done));
    CountingWindow window;
    inner_->SendBundle(endpoint, std::move(items));
  }
  Duration EstimateCost(const std::string& endpoint,
                        uint64_t bytes) const override {
    return inner_->EstimateCost(endpoint, bytes);
  }
  void AttachMetrics(MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }

  uint64_t acked() const { return acked_; }

 private:
  SendCallback Wrap(SendCallback done) {
    return [this, done = std::move(done)](const Status& s) {
      if (s.ok()) ++acked_;
      if (done) done(s);
    };
  }

  Transport* inner_;
  uint64_t acked_ = 0;
};

constexpr char kFeeds[] = R"(feed BULK { pattern "bulk_%i_%Y%m%d%H%M.dat"; })";

TEST(ByteLedgerTest, CountingWindowSeesAPayloadCopy) {
  // Calibrates the instrument: encoding into one contiguous string copies
  // the payload, and the window must see that copy.
  Message msg;
  msg.type = MessageType::kFileData;
  msg.payload = std::string(256 << 10, 'x');
  g_big_allocated = 0;
  {
    CountingWindow window;
    std::string wire = EncodeMessage(msg);
    EXPECT_GT(wire.size(), msg.payload.size());
  }
  EXPECT_GE(g_big_allocated, msg.payload.size());
}

TEST(ByteLedgerTest, FederationHopChecksumsEachPayloadByteTwiceAndCopiesNoneOnSend) {
  constexpr int kFiles = 8;
  constexpr size_t kPayload = 256 << 10;

  EventLoop loop(RealClock::Get());
  Logger logger(RealClock::Get());
  logger.SetMinLevel(LogLevel::kAlarm);
  RecordingInvoker invoker;
  auto config = ParseConfig(kFeeds);
  ASSERT_TRUE(config.ok()) << config.status();

  // Downstream: a listening transport whose inbound endpoint dedupes and
  // ingests; no subscribers, so nothing leaves it again.
  InMemoryFileSystem down_fs;
  SocketTransport::Options listen;
  listen.listen_address = "127.0.0.1:0";
  SocketTransport down_net(&loop, listen);
  auto down = BistroServer::Create(BistroServer::Options(), *config, &down_fs,
                                   &down_net, &loop, &invoker, &logger);
  ASSERT_TRUE(down.ok()) << down.status();
  FederationInbound inbound(down->get(), &logger);
  down_net.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(down_net.Listen().ok());

  // Origin: the downstream is a push subscriber reached over TCP.
  InMemoryFileSystem origin_fs;
  SocketTransport origin_net(&loop, {});
  SendLedgerTransport ledger(&origin_net);
  auto origin = BistroServer::Create(BistroServer::Options(), *config,
                                     &origin_fs, &ledger, &loop, &invoker,
                                     &logger);
  ASSERT_TRUE(origin.ok()) << origin.status();
  ServerConfig wiring = *config;
  PeerSpec peer;
  peer.name = "down";
  peer.address = "127.0.0.1:" + std::to_string(down_net.listen_port());
  wiring.peers.push_back(peer);
  ASSERT_TRUE(WirePeers(wiring, origin->get(), &origin_net, &logger).ok());

  Rng rng(15);
  std::vector<std::string> payloads;
  for (int i = 0; i < kFiles; ++i) {
    std::string bytes(kPayload, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    payloads.push_back(std::move(bytes));
  }

  const uint64_t crc_before = Crc32BytesTotal();
  g_big_allocated = 0;
  for (int i = 0; i < kFiles; ++i) {
    std::string name = "bulk_" + std::to_string(i) + "_201009250400.dat";
    ASSERT_TRUE((*origin)->Deposit("src", name, payloads[i]).ok());
  }
  TimePoint deadline = RealClock::Get()->Now() + 20 * kSecond;
  while (ledger.acked() < kFiles && RealClock::Get()->Now() < deadline) {
    loop.RunFor(10 * kMillisecond);
  }
  const uint64_t crc_bytes = Crc32BytesTotal() - crc_before;
  const uint64_t send_allocated = g_big_allocated;

  ASSERT_EQ(ledger.acked(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ(inbound.files_ingested(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ((*down)->receipts()->ArrivalCount(), static_cast<size_t>(kFiles));

  // Two payload passes per hop: the origin's staging read computes the
  // end-to-end payload_crc and the downstream endpoint verifies it; the
  // frame CRCs on both sides skip the payload. What else gets CRC'd
  // (frame headers, acks, receipt WAL records) is a few hundred bytes per
  // file. Four payload passes (frame CRC on encode and decode as well)
  // would be 2x over the bound.
  const uint64_t payload_bytes = uint64_t{kFiles} * kPayload;
  EXPECT_GE(crc_bytes, 2 * payload_bytes);
  EXPECT_LE(crc_bytes, 2 * payload_bytes + uint64_t{kFiles} * 4096)
      << "CRC passes per payload byte: "
      << static_cast<double>(crc_bytes) / static_cast<double>(payload_bytes);
  // The send path queues the staged buffer by reference.
  EXPECT_EQ(send_allocated, 0u);

  // The ledger is exported for operators and benches.
  bool exported = false;
  for (const MetricSnapshot& m : (*origin)->metrics()->Collect()) {
    if (m.name == "bistro_crc_bytes_total") {
      exported = true;
      EXPECT_GE(m.counter_value, crc_bytes);
    }
  }
  EXPECT_TRUE(exported);
}

TEST(ByteLedgerTest, CompressAllocatesOnlyItsOutput) {
  // The lz match table is per thread and reused, and the frame header and
  // tokens go into one buffer: after the first call on a thread, a 1 MiB
  // compress allocates its frame and nothing else, and a 4 KiB one
  // allocates nothing big at all.
  const Codec* lz = GetCodec(CodecKind::kLz);
  Rng rng(16);
  std::string random(1 << 20, '\0');
  for (char& c : random) c = static_cast<char>(rng.Uniform(256));
  std::string csv;
  while (csv.size() < random.size()) {
    csv += "host" + std::to_string(rng.Uniform(200)) + ",cpu," +
           std::to_string(rng.Uniform(10000000000ull)) + "\n";
  }
  csv.resize(random.size());
  (void)lz->Compress(csv.substr(0, 4096));  // warm-up: this thread's table

  for (const std::string* input : {&random, &csv}) {
    g_big_allocated = 0;
    g_big_allocations = 0;
    std::string frame;
    {
      CountingWindow window;
      frame = lz->Compress(*input);
    }
    EXPECT_EQ(g_big_allocations, 1u);
    EXPECT_GE(g_big_allocated, frame.size());
    auto back = lz->Decompress(frame);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, *input);

    const std::string small = input->substr(0, 4096);
    g_big_allocations = 0;
    {
      CountingWindow window;
      frame = lz->Compress(small);
    }
    EXPECT_EQ(g_big_allocations, 0u);
  }
}

}  // namespace
}  // namespace bistro
