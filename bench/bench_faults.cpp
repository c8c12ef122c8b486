// Fault-tolerance experiment (DESIGN.md §8): goodput and delivery latency
// as the injected failure probability rises from 0% to 30%.
//
// Setup: one feed, two pollers, one simulated hour of 5-minute intervals
// pushed to one subscriber over a simulated link, with a FaultyTransport
// injecting send failures (probability p), payload corruption (p/4, which
// the end-to-end CRC turns into NACK + retry) and lost acks (p/8, which
// the endpoint dedupe absorbs). Delivery hardening under test: exponential
// backoff with decorrelated jitter, bounded-but-large retry budgets, and
// receipt-based redelivery.
//
// Expected shape: goodput degrades gracefully (every file still arrives,
// paid for in retries), while p99 deposit->delivered latency grows with p
// as more files ride the backoff schedule. Nothing dead-letters.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fault/faulty_transport.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "sim/sources.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

struct SweepResult {
  double failure_prob = 0.0;
  uint64_t files_delivered = 0;
  uint64_t payload_bytes = 0;
  uint64_t retries = 0;
  uint64_t dead_lettered = 0;
  uint64_t injected = 0;
  Duration p50 = 0, p99 = 0, max = 0;
};

Duration Percentile(std::vector<Duration>* delays, double p) {
  if (delays->empty()) return 0;
  std::sort(delays->begin(), delays->end());
  size_t idx = static_cast<size_t>(p * (delays->size() - 1));
  return (*delays)[idx];
}

SweepResult RunPoint(double failure_prob, bool write_snapshot) {
  const Duration kRun = kHour;
  TimePoint start = FromCivil(CivilTime{2010, 9, 25});

  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  Rng rng(17);
  MetricsRegistry metrics;

  FaultPlan plan;
  plan.seed = 1000 + static_cast<uint64_t>(failure_prob * 1000);
  plan.net.send_failure_prob = failure_prob;
  plan.net.corrupt_prob = failure_prob / 4;
  plan.net.ack_loss_prob = failure_prob / 8;
  FaultInjector injector(plan, &metrics);

  SimNetwork network(&rng);
  SimTransport sim_transport(&loop, &network);
  FaultyTransport transport(&sim_transport, &loop, &injector);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.dat"; tardiness 60s; }
subscriber app { feeds CPU; method push; }
)");
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return {};
  }
  network.SetLink("app", LinkSpec::Fast());
  InMemoryFileSystem app_fs;
  FileSinkEndpoint app(&app_fs, "/app");
  sim_transport.Register("app", &app);

  BistroServer::Options opts;
  opts.metrics = &metrics;
  config->delivery.retry_backoff_min = 2 * kSecond;
  config->delivery.retry_backoff_max = 30 * kSecond;
  config->delivery.max_attempts = 100000;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return {};
  }

  std::map<std::string, TimePoint> deposited_at;
  std::vector<Duration> delays;
  uint64_t payload_bytes = 0;
  app.SetMessageHook([&](const Message& msg) {
    if (msg.type != MessageType::kFileData) return;
    payload_bytes += msg.payload.size();
    auto it = deposited_at.find(msg.name);
    if (it != deposited_at.end()) delays.push_back(clock.Now() - it->second);
  });

  PollerFleet::Options fleet_opts;
  fleet_opts.metric = "CPU";
  fleet_opts.source = "pollers";
  fleet_opts.extension = "dat";
  fleet_opts.num_pollers = 2;
  fleet_opts.period = 5 * kMinute;
  fleet_opts.max_delay = 5 * kSecond;
  fleet_opts.file_size = 43 * 1000;
  PollerFleet fleet(&loop, &rng, fleet_opts,
                    [&](const std::string& source, const std::string& name,
                        std::string content) {
                      deposited_at[name] = clock.Now();
                      (void)(*server)->Deposit(source, name,
                                               std::move(content));
                    });
  fleet.AttachMetrics(&metrics);
  fleet.ScheduleInterval(start, start + kRun);

  // Generous settle window: at 30% failure some files need many rides on
  // the capped backoff schedule.
  loop.RunUntil(start + kRun + 30 * kMinute);

  if (write_snapshot) {
    const char* path = "bench_metrics_faults.json";
    std::string snapshot = ExportJson(&metrics);
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(snapshot.data(), 1, snapshot.size(), f);
      std::fclose(f);
      std::printf("\nmetrics snapshot: %s (%zu metrics)\n", path,
                  metrics.size());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path);
    }
  }

  DeliveryStats d = (*server)->delivery_stats();
  SweepResult r;
  r.failure_prob = failure_prob;
  r.files_delivered = d.files_delivered;
  r.payload_bytes = payload_bytes;
  r.retries = d.retries;
  r.dead_lettered = d.dead_lettered;
  r.injected = injector.injected();
  r.p50 = Percentile(&delays, 0.50);
  r.p99 = Percentile(&delays, 0.99);
  r.max = Percentile(&delays, 1.0);
  return r;
}

}  // namespace

int main() {
  std::printf("=== Fault sweep: goodput & delivery latency vs failure "
              "probability ===\n\n");
  std::printf("%-6s %-9s %-11s %-8s %-6s %-9s %-10s %-10s %-10s\n", "p", "files",
              "goodput/h", "retries", "dead", "injected", "p50", "p99", "max");
  const std::vector<double> sweep = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  for (double p : sweep) {
    SweepResult r = RunPoint(p, /*write_snapshot=*/p == sweep.back());
    std::printf("%-6.2f %-9llu %-11s %-8llu %-6llu %-9llu %-10s %-10s %-10s\n",
                r.failure_prob, (unsigned long long)r.files_delivered,
                HumanBytes(r.payload_bytes).c_str(),
                (unsigned long long)r.retries,
                (unsigned long long)r.dead_lettered,
                (unsigned long long)r.injected,
                FormatDuration(r.p50).c_str(), FormatDuration(r.p99).c_str(),
                FormatDuration(r.max).c_str());
  }
  std::printf("\nExpected shape: files delivered stays constant across the "
              "sweep (no loss,\nno dead letters); retries and tail latency "
              "grow with p as the exponential\nbackoff schedule absorbs the "
              "injected failures.\n");
  return 0;
}
