// Experiment E11 (DESIGN.md §10): the fan-out delivery fast path.
//
// Question: how much delivery throughput do the four fast-path features
// buy over the legacy lockstep sender at realistic fan-out? The features
// under test: pipelined send windows (overlap WAN latency), small-file
// frame coalescing (amortize per-transfer setup), the shared payload
// cache (read+CRC a staged file once per fan-out, not once per send),
// and group-committed delivery receipts (one WAL fsync per group).
//
// Time base: simulated. The WAN cost comes from SimNetwork (per-subscriber
// serial links: 40 ms setup latency, 4 MB/s); the durability cost is
// modeled by advancing the SimClock 500 us on every fsync and 25 us on
// every write/append — the shape of a local disk with a battery-backed
// cache, same constants as bench_ingest. Both costs therefore land in one
// deterministic time base, and files/sec below means simulated files/sec.
// The payload cache's win (skipping re-read + CRC per dispatch) is CPU,
// not simulated time, so the table also reports staged reads vs cache
// hits per config — the ablation rows keep cache_bytes = 0.
//
// Sweep: fanout x config. The `lockstep` row is the exact pre-fast-path
// shipping configuration (window 1, no coalescing, no cache, per-receipt
// fsync, non-pipelined ack link model) and is the baseline every other
// row's speedup is measured against. Acceptance: the full fast path
// clears 2x files/sec at fanout 8.
//
// Env:
//   BISTRO_BENCH_QUICK  non-empty -> smaller corpus (CI smoke mode)
//   BISTRO_BENCH_OUT    JSON output path (default BENCH_delivery.json)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "fanout/group.h"
#include "report.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "trigger/trigger.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

constexpr Duration kSyncCost = 500 * kMicrosecond;
constexpr Duration kWriteCost = 25 * kMicrosecond;

/// Delegates to an InMemoryFileSystem but charges each mutating op to the
/// SimClock, so fsyncs cost simulated time the receipt group commit can
/// (or cannot) amortize — the sim-time analogue of bench_ingest's slept
/// LatencyFileSystem.
class SimCostFileSystem : public FileSystem {
 public:
  SimCostFileSystem(FileSystem* base, SimClock* clock)
      : base_(base), clock_(clock) {}

  Status WriteFile(const std::string& path, std::string_view data) override {
    clock_->Advance(kWriteCost);
    return base_->WriteFile(path, data);
  }
  Status AppendFile(const std::string& path, std::string_view data) override {
    clock_->Advance(kWriteCost);
    return base_->AppendFile(path, data);
  }
  Status Sync(const std::string& path) override {
    clock_->Advance(kSyncCost);
    return base_->Sync(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<FileInfo> Stat(const std::string& path) override {
    return base_->Stat(path);
  }
  Result<std::vector<FileInfo>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Delete(const std::string& path) override { return base_->Delete(path); }
  Status MkDirs(const std::string& path) override { return base_->MkDirs(path); }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  FsOpStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  FileSystem* base_;
  SimClock* clock_;
};

struct BenchConfig {
  const char* name;
  size_t window;
  size_t coalesce_bytes;
  size_t cache_bytes;
  size_t receipt_group;
  bool pipelined_acks;
};

// Ordered so each row adds one feature; `lockstep` is the ablation
// baseline the acceptance bar is measured against.
const BenchConfig kConfigs[] = {
    {"lockstep", 1, 0, 0, 1, false},
    {"window4", 4, 0, 0, 1, true},
    {"window8", 8, 0, 0, 1, true},
    {"window8+coalesce", 8, 16 * 1024, 0, 1, true},
    {"fastpath", 8, 16 * 1024, 64 * 1024 * 1024, 32, true},
};

struct RunResult {
  std::string config;
  int fanout = 0;
  int files = 0;
  double sim_seconds = 0;
  double files_per_sec = 0;  // delivered (file, subscriber) sends / sim sec
  double speedup = 1.0;      // vs lockstep at the same fanout
  uint64_t staging_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t coalesced_frames = 0;
  uint64_t receipt_flushes = 0;
};

RunResult RunOne(const BenchConfig& cfg, int fanout, int num_files,
                 const std::string& payload) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem memfs;
  SimCostFileSystem fs(&memfs, &clock);
  Rng rng(7);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  network.SetPipelinedAcks(cfg.pipelined_acks);

  std::string config_text =
      "feed F { pattern \"F_POLL%i_%Y%m%d%H%M.txt\"; }\n";
  for (int s = 0; s < fanout; ++s) {
    config_text += StrFormat("subscriber s%d { feeds F; method push; }\n", s);
  }
  auto config = ParseConfig(config_text);
  if (!config.ok()) std::abort();

  // WAN shape: per-subscriber serial links, 40 ms transfer setup, 4 MB/s.
  // Small files are latency-bound on this link, which is exactly the
  // regime windows and coalescing are built for.
  LinkSpec wan;
  wan.bandwidth_bytes_per_sec = 4 * 1000 * 1000;
  wan.latency = 40 * kMillisecond;
  InMemoryFileSystem sink_fs;
  std::vector<std::unique_ptr<FileSinkEndpoint>> sinks;
  for (int s = 0; s < fanout; ++s) {
    std::string name = StrFormat("s%d", s);
    network.SetLink(name, wan);
    sinks.push_back(std::make_unique<FileSinkEndpoint>(
        &sink_fs, StrFormat("/sub/%d", s)));
    transport.Register(name, sinks.back().get());
  }

  // Hold the scheduler's slot pool constant across configs — and large
  // enough (window 8 x fanout 8 = 64) that it never binds — so the rows
  // differ only in the delivery features under test, not in how many
  // partition slots the server auto-scales.
  PartitionedScheduler::Options sched_opts;
  sched_opts.slots_per_partition = 64;
  PartitionedScheduler scheduler(sched_opts);

  MetricsRegistry metrics;
  BistroServer::Options opts;
  opts.metrics = &metrics;
  opts.kv.sync_wal = true;  // receipts are durable; fsync is the 500us cost
  config->delivery.window = cfg.window;
  config->delivery.coalesce_bytes = cfg.coalesce_bytes;
  config->delivery.cache_bytes = cfg.cache_bytes;
  config->delivery.receipt_group = cfg.receipt_group;
  config->delivery.receipt_flush_interval = 100 * kMillisecond;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger, &scheduler);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    std::abort();
  }

  // Stage the corpus with every subscriber offline so the measured window
  // is pure delivery: ingest/staging fsyncs land before t0, and backfill
  // hands the scheduler full rounds (the coalescer needs multi-job rounds).
  for (int s = 0; s < fanout; ++s) {
    (*server)->delivery()->SetOffline(StrFormat("s%d", s), true);
  }
  for (int i = 0; i < num_files; ++i) {
    std::string name = StrFormat("F_POLL%d_201009250400.txt", i + 1);
    if (!(*server)->Deposit("src", name, payload).ok()) std::abort();
  }
  loop.RunUntil(clock.Now() + kSecond);

  const uint64_t want =
      static_cast<uint64_t>(num_files) * static_cast<uint64_t>(fanout);
  auto received = [&] {
    uint64_t total = 0;
    for (const auto& sink : sinks) total += sink->files_received();
    return total;
  };

  TimePoint t0 = clock.Now();
  for (int s = 0; s < fanout; ++s) {
    (*server)->delivery()->SetOffline(StrFormat("s%d", s), false);
  }
  // Step one event at a time so t1 is the exact instant the last file
  // lands, not the end of a polling chunk.
  while (received() < want) {
    if (!loop.RunOne()) {
      std::fprintf(stderr, "%s fanout %d: loop idle at %llu/%llu files\n",
                   cfg.name, fanout, (unsigned long long)received(),
                   (unsigned long long)want);
      std::abort();
    }
  }
  TimePoint t1 = clock.Now();
  loop.RunUntil(t1 + kSecond);  // drain acks, receipt flushes, timers

  for (const auto& sink : sinks) {
    if (sink->files_received() != static_cast<uint64_t>(num_files)) {
      std::fprintf(stderr, "%s fanout %d: sink got %llu of %d files\n",
                   cfg.name, fanout,
                   (unsigned long long)sink->files_received(), num_files);
      std::abort();
    }
  }
  if ((*server)->delivery()->buffered_receipts() != 0) {
    std::fprintf(stderr, "%s fanout %d: unflushed delivery receipts\n",
                 cfg.name, fanout);
    std::abort();
  }

  const DeliveryStats& d = (*server)->delivery_stats();
  RunResult r;
  r.config = cfg.name;
  r.fanout = fanout;
  r.files = num_files;
  r.sim_seconds = static_cast<double>(t1 - t0) / kSecond;
  r.files_per_sec = static_cast<double>(want) / r.sim_seconds;
  r.staging_reads = d.staging_reads;
  r.cache_hits = d.staging_cache_hits;
  r.coalesced_frames = d.coalesced_frames;
  r.receipt_flushes = d.receipt_group_flushes;
  return r;
}

// ---- High-fanout sweep: subscriber groups scale the same engine to 1e5+
// subscribers. The engine pays one send + one receipt row per GROUP; the
// group relay fans to members in-process, so the per-file completion rate
// should stay within 2x of the plain fanout-8 rate even at 100k members.

/// Member endpoint for the fanout sweep: counts data files into a shared
/// total so progress polling is O(1), not O(members).
class CountingEndpoint : public Endpoint {
 public:
  explicit CountingEndpoint(uint64_t* total) : total_(total) {}
  Status HandleMessage(const Message& msg) override {
    if (msg.type == MessageType::kFileData) {
      ++count_;
      ++*total_;
    }
    return Status::OK();
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t* total_;
  uint64_t count_ = 0;
};

struct FanoutResult {
  std::string label;
  int groups = 0;            // 0 = plain individual subscribers
  int members_per_group = 0;
  uint64_t subscribers = 0;
  int files = 0;
  double sim_seconds = 0;
  double file_rate = 0;      // files fully fanned out per sim second
  double delivery_rate = 0;  // member deliveries per sim second
  double ratio_vs_plain8 = 0;
};

FanoutResult RunFanout(const char* label, int groups, int members_per_group,
                       int num_files, const std::string& payload) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem memfs;
  SimCostFileSystem fs(&memfs, &clock);
  Rng rng(7);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  network.SetPipelinedAcks(true);

  const uint64_t subscribers =
      static_cast<uint64_t>(groups == 0 ? members_per_group
                                        : groups * members_per_group);
  // Plain rows register members directly as subscribers; group rows
  // register one `group` block per relay, members only in the fan list.
  std::string config_text =
      "feed F { pattern \"F_POLL%i_%Y%m%d%H%M.txt\"; }\n"
      "receipts { shards 4; }\n";
  std::vector<std::string> wire_names;  // endpoints the engine sends to
  if (groups == 0) {
    for (int s = 0; s < members_per_group; ++s) {
      config_text += StrFormat("subscriber s%d { feeds F; method push; }\n", s);
      wire_names.push_back(StrFormat("s%d", s));
    }
  } else {
    for (int g = 0; g < groups; ++g) {
      config_text += StrFormat("group g%d { feeds F; members ", g);
      for (int m = 0; m < members_per_group; ++m) {
        config_text += StrFormat("%sm%d_%d", m == 0 ? "" : ", ", g, m);
      }
      config_text += "; }\n";
      wire_names.push_back(StrFormat("g%d", g));
    }
  }
  auto config = ParseConfig(config_text);
  if (!config.ok()) std::abort();

  LinkSpec wan;
  wan.bandwidth_bytes_per_sec = 4 * 1000 * 1000;
  wan.latency = 40 * kMillisecond;
  uint64_t total = 0;
  std::vector<std::unique_ptr<CountingEndpoint>> members;
  members.reserve(subscribers);
  std::map<std::string, Endpoint*> by_name;
  auto add_member = [&](const std::string& name) {
    members.push_back(std::make_unique<CountingEndpoint>(&total));
    by_name[name] = members.back().get();
  };
  if (groups == 0) {
    for (const std::string& name : wire_names) add_member(name);
  } else {
    for (int g = 0; g < groups; ++g) {
      for (int m = 0; m < members_per_group; ++m) {
        add_member(StrFormat("m%d_%d", g, m));
      }
    }
  }
  for (const std::string& name : wire_names) network.SetLink(name, wan);
  if (groups == 0) {
    for (const std::string& name : wire_names) {
      transport.Register(name, by_name[name]);
    }
  }

  // Constant across rows, and large enough (100 group endpoints x window
  // 8 = 800) that the slot pool never binds: rows differ only in how the
  // subscriber population is shaped, not in scheduler capacity.
  PartitionedScheduler::Options sched_opts;
  sched_opts.slots_per_partition = 1024;
  PartitionedScheduler scheduler(sched_opts);

  MetricsRegistry metrics;
  BistroServer::Options opts;
  opts.metrics = &metrics;
  opts.kv.sync_wal = true;
  config->delivery.window = 8;
  config->delivery.coalesce_bytes = 16 * 1024;
  config->delivery.cache_bytes = 64 * 1024 * 1024;
  config->delivery.receipt_group = 32;
  config->delivery.receipt_flush_interval = 100 * kMillisecond;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger, &scheduler);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    std::abort();
  }

  std::unique_ptr<fanout::GroupManager> manager;
  if (groups > 0) {
    fanout::GroupManager::Options group_options;
    group_options.catchup_interval = 0;  // no stragglers in the sweep
    manager = std::make_unique<fanout::GroupManager>(server->get(), &fs, &loop,
                                                     &logger, group_options);
    Status wired = manager->Wire(
        config->groups,
        [&](const std::string& m) -> Endpoint* {
          auto it = by_name.find(m);
          return it == by_name.end() ? nullptr : it->second;
        },
        [&](const std::string& name, Endpoint* ep) {
          transport.Register(name, ep);
        });
    if (!wired.ok()) {
      std::fprintf(stderr, "wire: %s\n", wired.ToString().c_str());
      std::abort();
    }
  }

  for (const std::string& name : wire_names) {
    (*server)->delivery()->SetOffline(name, true);
  }
  for (int i = 0; i < num_files; ++i) {
    std::string name = StrFormat("F_POLL%d_201009250400.txt", i + 1);
    if (!(*server)->Deposit("src", name, payload).ok()) std::abort();
  }
  loop.RunUntil(clock.Now() + kSecond);

  const uint64_t want = subscribers * static_cast<uint64_t>(num_files);
  TimePoint t0 = clock.Now();
  for (const std::string& name : wire_names) {
    (*server)->delivery()->SetOffline(name, false);
  }
  while (total < want) {
    if (!loop.RunOne()) {
      std::fprintf(stderr, "%s: loop idle at %llu/%llu deliveries\n", label,
                   (unsigned long long)total, (unsigned long long)want);
      std::abort();
    }
  }
  TimePoint t1 = clock.Now();
  loop.RunUntil(t1 + kSecond);

  for (const auto& m : members) {
    if (m->count() != static_cast<uint64_t>(num_files)) {
      std::fprintf(stderr, "%s: member got %llu of %d files\n", label,
                   (unsigned long long)m->count(), num_files);
      std::abort();
    }
  }

  FanoutResult r;
  r.label = label;
  r.groups = groups;
  r.members_per_group = members_per_group;
  r.subscribers = subscribers;
  r.files = num_files;
  r.sim_seconds = static_cast<double>(t1 - t0) / kSecond;
  r.file_rate = static_cast<double>(num_files) / r.sim_seconds;
  r.delivery_rate = static_cast<double>(want) / r.sim_seconds;
  return r;
}

}  // namespace

int main() {
  const bool quick = bench::Quick();
  const int num_files = quick ? 120 : 400;
  const size_t payload_bytes = 2000;

  std::string payload;
  payload.reserve(payload_bytes);
  while (payload.size() < payload_bytes) {
    payload += "1285387200,router07,ifInOctets,734592017,OK\n";
  }

  std::printf("=== Delivery fast path: fanout x config sweep "
              "(%d files x %zu B, WAN 40ms/4MBps, fsync %lld us%s) ===\n\n",
              num_files, payload_bytes,
              (long long)(kSyncCost / kMicrosecond), quick ? ", quick" : "");

  const std::vector<int> fanout_sweep = {1, 4, 8};
  bench::Table table;
  std::vector<bench::Row> results;
  double fastpath_at_8 = 0, lockstep_at_8 = 0;
  for (int fanout : fanout_sweep) {
    double baseline = 0;
    for (const BenchConfig& cfg : kConfigs) {
      RunResult r = RunOne(cfg, fanout, num_files, payload);
      if (std::string(cfg.name) == "lockstep") baseline = r.files_per_sec;
      r.speedup = r.files_per_sec / baseline;
      if (fanout == 8 && std::string(cfg.name) == "lockstep") {
        lockstep_at_8 = r.files_per_sec;
      }
      if (fanout == 8 && std::string(cfg.name) == "fastpath") {
        fastpath_at_8 = r.files_per_sec;
      }
      results.push_back({
          {"config", "config", "%s", r.config, 18},
          {"fanout", "fanout", "%d", r.fanout},
          {"sim_seconds", "sim sec", "%.4f", r.sim_seconds, 8},
          {"files_per_sec", "files/sec", "%.1f", r.files_per_sec},
          {"speedup_vs_lockstep", "speedup", "%.3f", r.speedup},
          {"staging_reads", "reads", "%llu",
           (unsigned long long)r.staging_reads, 6},
          {"cache_hits", "hits", "%llu", (unsigned long long)r.cache_hits, 6},
          {"coalesced_frames", "frames", "%llu",
           (unsigned long long)r.coalesced_frames},
          {"receipt_group_flushes", "flushes", "%llu",
           (unsigned long long)r.receipt_flushes},
      });
      table.Print(results.back());
    }
    std::printf("\n");
  }

  // High-fanout sweep: one send + one receipt row per group buys flat
  // engine cost while member count grows 4 orders of magnitude.
  const int fanout_files = quick ? 30 : 60;
  std::vector<std::pair<const char*, std::pair<int, int>>> fanout_shapes = {
      {"plain8", {0, 8}},
      {"groups-1k", {10, 100}},
      {"groups-10k", {20, 500}},
  };
  if (!quick) fanout_shapes.push_back({"groups-100k", {100, 1000}});

  std::printf("=== Subscriber-group fanout: %d files x %zu B ===\n\n",
              fanout_files, payload_bytes);
  bench::Table fanout_table;
  std::vector<bench::Row> fanout_rows;
  FanoutResult big;  // the last, largest shape
  double plain8_file_rate = 0;
  for (const auto& [label, shape] : fanout_shapes) {
    FanoutResult r =
        RunFanout(label, shape.first, shape.second, fanout_files, payload);
    if (shape.first == 0) plain8_file_rate = r.file_rate;
    r.ratio_vs_plain8 = r.file_rate / plain8_file_rate;
    big = r;
    fanout_rows.push_back({
        {"label", "label", "%s", r.label, 12},
        {"subscribers", "subscribers", "%llu",
         (unsigned long long)r.subscribers},
        {"groups", "groups", "%d", r.groups},
        {"members_per_group", "members", "%d", r.members_per_group},
        {"files", "files", "%d", r.files},
        {"sim_seconds", "sim sec", "%.4f", r.sim_seconds, 8},
        {"files_per_sec", "files/sec", "%.2f", r.file_rate},
        {"member_deliveries_per_sec", "deliveries/sec", "%.0f",
         r.delivery_rate},
        {"file_rate_vs_plain8", "vs plain8", "%.3f", r.ratio_vs_plain8},
    });
    fanout_table.Print(fanout_rows.back());
  }
  std::printf("\n");

  bench::Document doc("delivery");
  doc.Add({"quick", nullptr, "%s", quick});
  doc.Add({"files", nullptr, "%d", num_files});
  doc.Add({"payload_bytes", nullptr, "%zu", payload_bytes});
  doc.Add({"fsync_cost_us", nullptr, "%lld",
           (long long)(kSyncCost / kMicrosecond)});
  doc.Add({"wan_latency_ms", nullptr, "%d", 40});
  doc.Add("results", results);
  doc.Add("fanout", fanout_rows);
  if (!doc.Write(bench::OutPath("BENCH_delivery.json"))) return 1;

  std::printf("\nExpected shape: windows overlap the 40ms WAN latency, "
              "coalescing cuts the\nper-transfer setups, grouped receipts "
              "amortize the WAL fsync, and the cache\nturns %d staged reads "
              "into 1 read + %d hits per file. Acceptance: fastpath\n"
              ">= 2x lockstep files/sec at fanout 8.\n",
              8, 7);
  if (fastpath_at_8 < 2.0 * lockstep_at_8) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: fastpath %.0f files/sec < 2x lockstep "
                 "%.0f files/sec at fanout 8\n",
                 fastpath_at_8, lockstep_at_8);
    return 1;
  }
  std::printf("ACCEPTANCE PASS: %.2fx at fanout 8\n",
              fastpath_at_8 / lockstep_at_8);
  if (!quick) {
    if (big.subscribers < 100000 ||
        big.file_rate * 2.0 < plain8_file_rate) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAIL: %s file rate %.1f/sec not within 2x of "
                   "plain8 %.1f/sec\n",
                   big.label.c_str(), big.file_rate, plain8_file_rate);
      return 1;
    }
    std::printf("ACCEPTANCE PASS: %llu grouped subscribers at %.2fx the "
                "plain fanout-8 file rate\n",
                (unsigned long long)big.subscribers, big.ratio_vs_plain8);
  }
  return 0;
}
