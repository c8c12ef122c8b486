// Experiment E3 (paper §4.3): delivery scheduling policies under
// heterogeneous subscribers with backlogs.
//
// Claims reproduced:
//  - a global FIFO or EDF queue lets a slow/backlogged subscriber starve
//    responsive ones (their tardiness explodes);
//  - Bistro's partitioned scheduler (per-level slots + intra-partition
//    EDF) isolates the damage: fast subscribers stay on time even while
//    a returning subscriber's backlog is being backfilled concurrently;
//  - the same-file locality heuristic reduces repeated staging reads.
//
// Scenario: one feed, a file every 10 seconds for 2 simulated hours.
// Subscribers: 6 fast links, 2 slow links (64x less bandwidth), and one
// subscriber that is offline for the first half and then returns with a
// backlog. Each policy runs the identical trace.

#include <cstdio>
#include <map>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

struct ClassStats {
  uint64_t completed = 0;
  uint64_t late = 0;
  Duration total_tardiness = 0;
  Duration max_tardiness = 0;
};

struct RunResult {
  std::map<std::string, ClassStats> per_class;  // "fast", "slow", "returning"
  SchedulerMetrics overall;
  uint64_t staging_reads = 0;
  uint64_t backfilled = 0;
};

RunResult RunPolicy(const std::string& label,
                    std::unique_ptr<DeliveryScheduler> scheduler,
                    PartitionedScheduler* partitioned) {
  (void)label;
  TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  Rng rng(42);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  std::string config_text = "feed F { pattern \"f_%i_%Y%m%d%H%M%S.dat\"; tardiness 60s; }\n";
  std::map<std::string, std::string> klass;  // subscriber -> class
  std::vector<std::string> subs;
  for (int i = 0; i < 6; ++i) {
    std::string name = StrFormat("fast%d", i);
    klass[name] = "fast";
    subs.push_back(name);
  }
  for (int i = 0; i < 2; ++i) {
    std::string name = StrFormat("slow%d", i);
    klass[name] = "slow";
    subs.push_back(name);
  }
  klass["returning"] = "returning";
  subs.push_back("returning");
  for (const auto& s : subs) {
    config_text += "subscriber " + s + " { feeds F; method push; }\n";
  }
  auto config = ParseConfig(config_text);
  auto sinks = std::make_unique<std::vector<std::unique_ptr<FileSinkEndpoint>>>();
  for (const auto& s : subs) {
    LinkSpec link;
    if (klass[s] == "slow") {
      link.bandwidth_bytes_per_sec = 100 * 1000;  // 64x slower
    } else if (klass[s] == "returning") {
      // The returning subscriber is ALSO on a thin pipe (25 KB/s): its
      // hour-long backlog takes ~2 s per file to backfill, which is what
      // lets it monopolize a global scheduler's slots.
      link.bandwidth_bytes_per_sec = 25 * 1000;
    } else {
      link.bandwidth_bytes_per_sec = 6400 * 1000;
    }
    link.latency = 5 * kMillisecond;
    network.SetLink(s, link);
    sinks->push_back(std::make_unique<FileSinkEndpoint>(&fs, "/" + s));
    transport.Register(s, sinks->back().get());
  }
  if (partitioned != nullptr) {
    // The paper's configuration: partition by known responsiveness.
    for (const auto& s : subs) {
      if (klass[s] == "fast") {
        partitioned->SetPartition(s, 0);
      } else if (klass[s] == "slow") {
        partitioned->SetPartition(s, 1);
      } else {
        partitioned->SetPartition(s, 2);
      }
    }
  }

  RunResult result;
  scheduler->SetCompletionHook([&](const TransferJob& job, bool success,
                                   TimePoint now, Duration) {
    if (!success) return;
    ClassStats& cs = result.per_class[klass[job.subscriber]];
    cs.completed++;
    if (now > job.deadline) {
      Duration t = now - job.deadline;
      cs.late++;
      cs.total_tardiness += t;
      if (t > cs.max_tardiness) cs.max_tardiness = t;
    }
  });

  BistroServer::Options opts;
  config->delivery.retry_backoff_min = 10 * kSecond;
  config->delivery.probe_interval = 60 * kSecond;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger, scheduler.get());
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return result;
  }

  // The "returning" subscriber is down for the first hour.
  network.SetOnline("returning", false);
  loop.PostAt(start + kHour, [&] { network.SetOnline("returning", true); });

  // One 50 KB file every 10 seconds for 2 hours.
  const Duration kPeriod = 10 * kSecond;
  const int kFiles = 2 * 3600 / 10;
  for (int i = 0; i < kFiles; ++i) {
    TimePoint t = start + i * kPeriod;
    CivilTime c = ToCivil(t);
    std::string name = StrFormat("f_%d_%04d%02d%02d%02d%02d%02d.dat", i,
                                 c.year, c.month, c.day, c.hour, c.minute,
                                 c.second);
    loop.PostAt(t, [&, name] {
      (void)(*server)->Deposit("src", name, std::string(50 * 1000, 'd'));
    });
  }

  loop.RunUntil(start + 3 * kHour);
  loop.RunUntilIdle();
  result.overall = (*server)->scheduler_metrics();
  result.staging_reads = fs.stats().reads;
  result.backfilled = (*server)->delivery_stats().backfilled;
  return result;
}

void PrintRow(const std::string& policy, const RunResult& r) {
  auto cls = [&](const std::string& k) -> const ClassStats& {
    static ClassStats empty;
    auto it = r.per_class.find(k);
    return it == r.per_class.end() ? empty : it->second;
  };
  auto fmt = [](const ClassStats& c) {
    double late_pct = c.completed ? 100.0 * c.late / c.completed : 0.0;
    return StrFormat("%5.1f%% late, max %-9s",
                     late_pct,
                     FormatDuration(c.max_tardiness).c_str());
  };
  std::printf("%-16s fast: %s  slow: %s  returning: %s\n", policy.c_str(),
              fmt(cls("fast")).c_str(), fmt(cls("slow")).c_str(),
              fmt(cls("returning")).c_str());
}

}  // namespace

int main() {
  std::printf("=== E3: transfer scheduling under heterogeneous subscribers ===\n");
  std::printf("(6 fast, 2 slow (64x), 1 offline-then-backfilled; 720 files "
              "x 50KB over 2h; tardiness bound 60s)\n\n");

  const size_t kTotalSlots = 6;

  PrintRow("global FIFO", RunPolicy("fifo",
                                    std::make_unique<SinglePolicyScheduler>(
                                        PolicyKind::kFifo, kTotalSlots),
                                    nullptr));
  PrintRow("global EDF", RunPolicy("edf",
                                   std::make_unique<SinglePolicyScheduler>(
                                       PolicyKind::kEdf, kTotalSlots),
                                   nullptr));
  PrintRow("round robin", RunPolicy("rr",
                                    std::make_unique<SinglePolicyScheduler>(
                                        PolicyKind::kRoundRobin, kTotalSlots),
                                    nullptr));
  PrintRow("global max-benefit",
           RunPolicy("maxbenefit",
                     std::make_unique<SinglePolicyScheduler>(
                         PolicyKind::kMaxBenefit, kTotalSlots),
                     nullptr));
  {
    PartitionedScheduler::Options opts;
    opts.num_partitions = 3;
    opts.slots_per_partition = 2;
    auto sched = std::make_unique<PartitionedScheduler>(opts);
    PartitionedScheduler* raw = sched.get();
    PrintRow("partitioned EDF", RunPolicy("partitioned", std::move(sched), raw));
  }
  {
    // Ablation: partitioning without the locality heuristic.
    PartitionedScheduler::Options opts;
    opts.num_partitions = 3;
    opts.slots_per_partition = 2;
    opts.locality = false;
    auto sched = std::make_unique<PartitionedScheduler>(opts);
    PartitionedScheduler* raw = sched.get();
    PrintRow("  (no locality)", RunPolicy("partitioned-noloc", std::move(sched), raw));
  }

  std::printf("\nExpected shape: global FIFO/EDF show high late fractions "
              "for FAST subscribers\n(starved by the slow links' backlog and "
              "the returning subscriber's backfill);\npartitioned EDF keeps "
              "fast subscribers near 0%% late while still backfilling.\n");
  return 0;
}
