// Experiment E13 (DESIGN.md §12): the real TCP socket transport vs the
// simulated wire.
//
// Question: what does the real wire cost? The socket transport runs the
// same frame protocol as SimTransport — varint-framed, CRC'd, acked per
// message — but over genuine non-blocking TCP through the kernel's
// loopback, with poll(2) readiness, partial writes and per-peer ack
// correlation. This bench pushes a windowed stream of file messages
// through both and reports wall-clock throughput and send→ack latency.
//
// Time base: WALL CLOCK for both sides. The SimTransport leg runs under
// a SimClock whose virtual waits collapse to zero, so its wall time is
// pure protocol CPU — encode, the sender's payload CRC, decode, the
// endpoint's payload check, dispatch — with a free wire: an upper bound
// no socket can beat. The TCP leg adds syscalls, kernel
// buffering and scheduling on top of the identical protocol work.
//
// Acceptance (ISSUE 6): loopback TCP throughput within 2x of the
// SimTransport ceiling for >= 64 KiB payloads.
//
// With --partition, a second experiment runs (ISSUE 7): the link to the
// peer is severed through the PartitionableTransport chaos harness while
// a PeerHealthTracker drives the circuit breaker, then healed, and the
// bench measures recovery time — heal -> first acked send, and heal ->
// steady state (a full window streaming again) — across several
// partition/heal cycles.
//
// Env:
//   BISTRO_BENCH_QUICK  non-empty -> smaller corpus (CI smoke mode)
//   BISTRO_BENCH_OUT    JSON output path (default BENCH_federation.json)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "fault/partition.h"
#include "federation/health.h"
#include "net/socket_transport.h"
#include "report.h"
#include "sim/event_loop.h"
#include "sim/network.h"

using namespace bistro;

namespace {

/// Receiver that checks the payload as every receiving endpoint does
/// (VerifyPayloadCrc), then counts and discards: the bench isolates the
/// wire, not the server.
class CountingEndpoint : public Endpoint {
 public:
  Status HandleMessage(const Message& msg) override {
    BISTRO_RETURN_IF_ERROR(VerifyPayloadCrc(msg));
    ++received;
    return Status::OK();
  }
  uint64_t received = 0;
};

struct RunResult {
  std::string transport;
  size_t payload_bytes = 0;
  int files = 0;
  double wall_seconds = 0;
  double files_per_sec = 0;
  double mb_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

constexpr int kWindow = 32;  // sends in flight before awaiting acks

/// A file message shaped as delivery sends it: the sender computes the
/// payload's end-to-end CRC (delivery does so on its staging read), so the
/// frame is flagged and its own CRC skips the payload.
Message MakeMessage(int i, const std::string& payload) {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = static_cast<uint64_t>(i) + 1;
  msg.feed = "BENCH";
  msg.name = "bench_" + std::to_string(i) + ".dat";
  msg.payload = payload;
  msg.payload_crc = Crc32(payload);
  return msg;
}

/// Windowed send loop shared by both legs: keep kWindow messages in
/// flight, measure send→ack wall latency per message.
template <typename SendFn, typename PumpFn>
RunResult Stream(const std::string& name, int files,
                 const std::string& payload, SendFn send, PumpFn pump) {
  RunResult r;
  r.transport = name;
  r.payload_bytes = payload.size();
  r.files = files;

  int sent = 0, acked = 0, failed = 0;
  std::vector<double> lat_us;
  lat_us.reserve(files);
  const double start = bench::NowSeconds();
  while (acked + failed < files) {
    while (sent < files && sent - acked - failed < kWindow) {
      const int i = sent++;
      const double sent_at = bench::NowSeconds();
      send(i, [&, sent_at](const Status& s) {
        if (s.ok()) {
          ++acked;
          lat_us.push_back((bench::NowSeconds() - sent_at) * 1e6);
        } else {
          ++failed;
          std::fprintf(stderr, "send %d failed: %s\n", i,
                       s.ToString().c_str());
        }
      });
    }
    pump();
  }
  r.wall_seconds = bench::NowSeconds() - start;
  r.files_per_sec = files / r.wall_seconds;
  r.mb_per_sec = files * (payload.size() / 1e6) / r.wall_seconds;
  r.p50_us = bench::Percentile(lat_us, 0.50);
  r.p99_us = bench::Percentile(lat_us, 0.99);
  if (failed != 0) {
    std::fprintf(stderr, "%s: %d sends failed\n", name.c_str(), failed);
    std::exit(1);
  }
  return r;
}

RunResult RunTcp(int files, const std::string& payload) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CountingEndpoint endpoint;
  server.SetInboundEndpoint(&endpoint);
  if (!server.Listen().ok()) std::exit(1);

  SocketTransport::Options client_opts;
  client_opts.outbound_queue_bytes = 256u << 20;
  SocketTransport client(&loop, client_opts);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  RunResult r = Stream(
      "tcp", files, payload,
      [&](int i, SendCallback done) {
        client.Send("srv", MakeMessage(i, payload), std::move(done));
      },
      [&] { loop.RunFor(kMillisecond); });
  if (endpoint.received != static_cast<uint64_t>(files)) {
    std::fprintf(stderr, "tcp: received %llu != %d\n",
                 (unsigned long long)endpoint.received, files);
    std::exit(1);
  }
  return r;
}

RunResult RunSim(int files, const std::string& payload) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  network.SetLink("srv", LinkSpec::Fast());
  CountingEndpoint endpoint;
  transport.Register("srv", &endpoint);

  RunResult r = Stream(
      "sim", files, payload,
      [&](int i, SendCallback done) {
        transport.Send("srv", MakeMessage(i, payload), std::move(done));
      },
      [&] { loop.RunUntilIdle(); });
  if (endpoint.received != static_cast<uint64_t>(files)) {
    std::fprintf(stderr, "sim: received %llu != %d\n",
                 (unsigned long long)endpoint.received, files);
    std::exit(1);
  }
  return r;
}

// ------------------------------------------------- partition recovery

struct PartitionResult {
  int cycles = 0;
  double outage_ms = 0;
  std::vector<double> first_ack_ms;  // heal -> first OK ack, per cycle
  std::vector<double> steady_ms;     // heal -> full window re-streamed
  uint64_t fast_fails = 0;           // sends refused by the open circuit
  uint64_t severed_rejects = 0;      // reconnects bounced off the shim
};

/// Severs the link through the chaos harness for `outage` per cycle,
/// heals, and measures how fast the health machine + transport recover.
PartitionResult RunPartitionRecovery(int cycles, Duration outage) {
  EventLoop loop(RealClock::Get());
  Logger logger(RealClock::Get());
  logger.SetMinLevel(LogLevel::kAlarm);

  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CountingEndpoint endpoint;
  server.SetInboundEndpoint(&endpoint);
  if (!server.Listen().ok()) std::exit(1);

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = 10 * kMillisecond;
  client_opts.reconnect_backoff_max = 50 * kMillisecond;
  client_opts.ack_timeout = 200 * kMillisecond;
  SocketTransport client(&loop, client_opts);
  PartitionableTransport harness(&loop, &client, "up");
  if (!harness
           .AddPeer("srv",
                    "127.0.0.1:" + std::to_string(server.listen_port()))
           .ok()) {
    std::exit(1);
  }

  PeerHealthTracker tracker(&loop, &client, &logger);
  PeerHealthOptions hopts;
  hopts.probe_interval = 50 * kMillisecond;
  hopts.suspect_after = 1;
  hopts.down_after = 2;
  tracker.Track("srv", hopts);
  tracker.Attach();

  Rng rng(7);
  const std::string payload = rng.AlnumString(4096);
  int seq = 0;
  auto send_one = [&](SendCallback done) {
    client.Send("srv", MakeMessage(seq++, payload), std::move(done));
  };

  // Warm the connection.
  bool warm = false;
  send_one([&](const Status& s) { warm = s.ok(); });
  while (!warm) loop.RunFor(kMillisecond);

  PartitionResult pr;
  pr.cycles = cycles;
  pr.outage_ms = static_cast<double>(outage / kMillisecond);
  for (int c = 0; c < cycles; ++c) {
    harness.Partition("srv");
    TimePoint outage_end = RealClock::Get()->Now() + outage;
    while (RealClock::Get()->Now() < outage_end) {
      // Keep offering traffic, as production would: failures walk the
      // peer to `down` and the open circuit starts failing fast.
      send_one([](const Status&) {});
      loop.RunFor(5 * kMillisecond);
    }

    harness.Heal("srv");
    const double healed = bench::NowSeconds();

    // Heal -> first OK ack: keep one offer in flight (open-circuit
    // rejects bounce immediately) until a send round-trips.
    bool acked = false, inflight = false;
    while (!acked) {
      if (!inflight) {
        inflight = true;
        send_one([&](const Status& s) {
          inflight = false;
          if (s.ok()) acked = true;
        });
      }
      loop.RunFor(kMillisecond);
    }
    pr.first_ack_ms.push_back((bench::NowSeconds() - healed) * 1e3);

    // Heal -> steady state: a full window streams to completion.
    const int kSteadyFiles = 64;
    int ok_n = 0, live = 0;
    while (ok_n < kSteadyFiles) {
      while (live < kWindow && ok_n + live < kSteadyFiles) {
        ++live;
        send_one([&](const Status& s) {
          --live;
          if (s.ok()) ++ok_n;
        });
      }
      loop.RunFor(kMillisecond);
    }
    pr.steady_ms.push_back((bench::NowSeconds() - healed) * 1e3);
  }

  pr.fast_fails = tracker.fast_fails();
  pr.severed_rejects = harness.severed_rejects();
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_partition = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--partition") == 0) with_partition = true;
  }
  const bool quick = bench::Quick();

  struct Sweep {
    size_t payload_bytes;
    int files;
  };
  const std::vector<Sweep> sweep = quick
                                       ? std::vector<Sweep>{{4u << 10, 200},
                                                            {64u << 10, 100},
                                                            {1u << 20, 20}}
                                       : std::vector<Sweep>{{4u << 10, 2000},
                                                            {64u << 10, 1000},
                                                            {1u << 20, 100}};

  std::printf(
      "=== Federation wire: loopback TCP vs SimTransport ceiling "
      "(window %d%s) ===\n\n",
      kWindow, quick ? ", quick" : "");
  Rng payload_rng(42);
  bench::Table table;
  std::vector<bench::Row> results;
  double ratio_at_64k = 0;
  for (const Sweep& s : sweep) {
    std::string payload = payload_rng.AlnumString(s.payload_bytes);
    RunResult sim = RunSim(s.files, payload);
    RunResult tcp = RunTcp(s.files, payload);
    for (const RunResult& r : {sim, tcp}) {
      results.push_back({
          {"transport", "wire", "%s", r.transport},
          {"payload_bytes", "payload", "%zu", r.payload_bytes, 8},
          {"files", "files", "%d", r.files},
          {"wall_seconds", "wall sec", "%.4f", r.wall_seconds},
          {"files_per_sec", "files/sec", "%.1f", r.files_per_sec},
          {"mb_per_sec", "MB/s", "%.1f", r.mb_per_sec, 6},
          {"p50_us", "p50 us", "%.0f", r.p50_us},
          {"p99_us", "p99 us", "%.0f", r.p99_us},
      });
      table.Print(results.back());
    }
    double ratio = tcp.files_per_sec / sim.files_per_sec;
    if (s.payload_bytes == (64u << 10)) ratio_at_64k = ratio;
    std::printf("tcp/sim throughput ratio: %.2fx\n\n", ratio);
  }

  bench::Document doc("federation");
  doc.Add({"quick", nullptr, "%s", quick});
  doc.Add({"window", nullptr, "%d", kWindow});
  doc.Add("results", results);
  doc.Add({"tcp_vs_sim_at_64k", nullptr, "%.3f", ratio_at_64k});

  if (with_partition) {
    const int cycles = quick ? 3 : 5;
    PartitionResult pr =
        RunPartitionRecovery(cycles, /*outage=*/300 * kMillisecond);
    std::printf(
        "=== Partition recovery (chaos harness + health tracker, %d "
        "cycles, %.0f ms outage) ===\n"
        "ack: heal -> first acked send; steady: heal -> a full window "
        "re-streamed;\nfast fails: sends refused by the open circuit; "
        "rejects: reconnects bounced\noff the severed link\n\n",
        pr.cycles, pr.outage_ms);
    const bench::Row partition = {
        {"cycles", "cycles", "%d", pr.cycles},
        {"outage_ms", "outage ms", "%.0f", pr.outage_ms},
        {"heal_to_first_ack_ms_p50", "ack p50 ms", "%.1f",
         bench::Percentile(pr.first_ack_ms, 0.50)},
        {"heal_to_first_ack_ms_max", "ack max ms", "%.1f",
         bench::Percentile(pr.first_ack_ms, 1.0)},
        {"heal_to_steady_ms_p50", "steady p50 ms", "%.1f",
         bench::Percentile(pr.steady_ms, 0.50)},
        {"heal_to_steady_ms_max", "steady max ms", "%.1f",
         bench::Percentile(pr.steady_ms, 1.0)},
        {"fast_fails", "fast fails", "%llu",
         (unsigned long long)pr.fast_fails},
        {"severed_rejects", "rejects", "%llu",
         (unsigned long long)pr.severed_rejects},
    };
    bench::Table().Print(partition);
    std::printf("\n");
    doc.Add("partition", partition);
  }

  if (!doc.Write(bench::OutPath("BENCH_federation.json"))) return 1;

  std::printf(
      "\nExpected shape: the sim leg is the zero-wire protocol-CPU "
      "ceiling; real TCP\npays syscalls and kernel copies. At small "
      "payloads the per-message overhead\ndominates; at >= 64 KiB the "
      "CRC+copy cost does, and loopback TCP should sit\nwithin 2x of the "
      "ceiling (measured: %.2fx at 64 KiB).\n",
      1.0 / (ratio_at_64k > 0 ? ratio_at_64k : 1));
  if (ratio_at_64k < 0.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: tcp/sim ratio at 64 KiB = %.3f < 0.5\n",
                 ratio_at_64k);
    return 1;
  }
  return 0;
}
