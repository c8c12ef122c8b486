// pipebench: whole-path, real-clock feed benchmark.
//
// Files are deposited into an origin BistroServer, pushed over loopback
// TCP to a downstream BistroServer, and fanned out to leaf endpoints; a
// file counts as delivered when a leaf's HandleMessage sees it. See
// pipebench/README.md for the workloads, metrics and configuration.
//
// Usage:
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--config configs/example.conf] [--workdir .pipebench_run]
//             [--outdir .pipebench_out]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (end-to-end metrics untraced, per-layer metrics traced). Exit
// status is non-zero on bad arguments, a setup failure, or a wrong,
// duplicated or stray delivery.

#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "classify/classifier.h"
#include "common/hash.h"
#include "compress/codec.h"
#include "config/parser.h"
#include "config/registry.h"
#include "kv/receipts.h"
#include "net/protocol.h"
#include "topology.h"
#include "tracing.h"
#include "util.h"
#include "workload.h"

namespace pipebench {
namespace {

using bistro::MetricSnapshot;
using bistro::Status;

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string config = "configs/example.conf";
  std::string workdir = ".pipebench_run";
  std::string outdir = ".pipebench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--config") {
      args->config = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--outdir") {
      args->outdir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

// ------------------------------------------------------------- measuring

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int64_t NowUs() { return bistro::RealClock::Get()->Now(); }

using MetricMap = std::map<std::string, MetricSnapshot>;

/// Both servers' registries, filesystems and CPU at one instant.
struct Mark {
  MetricMap origin, down;
  bistro::FsOpStats origin_fs, down_fs;
  double process_cpu = 0, origin_loop_cpu = 0, down_loop_cpu = 0;
  int64_t steady_ns = 0;
};

MetricMap Collect(LoopThread* loop, bistro::BistroServer* server) {
  MetricMap out;
  loop->Run([&] {
    for (MetricSnapshot& m : server->metrics()->Collect()) {
      out[m.name] = std::move(m);
    }
  });
  return out;
}

Mark TakeMark(Topology* t) {
  Mark m;
  m.steady_ns = SteadyNs();
  m.process_cpu = ProcessCpuSeconds();
  m.origin_loop_cpu = t->origin_loop().CpuSeconds();
  m.down_loop_cpu = t->down_loop().CpuSeconds();
  m.origin = Collect(&t->origin_loop(), t->origin());
  m.down = Collect(&t->down_loop(), t->down());
  m.origin_fs = t->origin_fs()->stats();
  m.down_fs = t->down_fs()->stats();
  return m;
}

/// Counter (or histogram count) delta between two marks.
double Delta(const MetricMap& a, const MetricMap& b, const std::string& name,
             bool sum = false) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  if (ib == b.end()) return 0;
  const MetricSnapshot& y = ib->second;
  auto value = [sum](const MetricSnapshot& s) -> double {
    switch (s.type) {
      case MetricSnapshot::Type::kCounter:
        return static_cast<double>(s.counter_value);
      case MetricSnapshot::Type::kGauge:
        return static_cast<double>(s.gauge_value);
      case MetricSnapshot::Type::kHistogram:
        return sum ? static_cast<double>(s.sum) : static_cast<double>(s.count);
    }
    return 0;
  };
  return value(y) - (ia == a.end() ? 0 : value(ia->second));
}

/// Quantile of the samples a histogram gained between two marks, at the
/// containing bucket's upper bound (0 when none).
double HistQuantile(const MetricMap& a, const MetricMap& b,
                    const std::string& name, double q) {
  auto ib = b.find(name);
  if (ib == b.end()) return 0;
  const MetricSnapshot& y = ib->second;
  std::vector<uint64_t> buckets = y.buckets;
  auto ia = a.find(name);
  if (ia != a.end() && ia->second.buckets.size() == buckets.size()) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] -= ia->second.buckets[i];
    }
  }
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return i < y.bounds.size() ? static_cast<double>(y.bounds[i])
                                 : static_cast<double>(y.max);
    }
  }
  return static_cast<double>(y.max);
}

// ------------------------------------------------------------------- run

/// Everything one pass through a workload observed.
struct Pass {
  double setup_s = 0;
  std::vector<double> add_subscriber_ms;
  std::vector<int64_t> due_us;        // per file; 0 = no due time
  std::vector<uint8_t> refused;       // per file: deposit refused
  std::vector<double> gen_lag_ms;
  std::vector<std::vector<Delivery>> deliveries;  // per leaf
  std::vector<std::string> strangers;
  Mark open_start, open_end, sat_start, sat_end;
  // Files of the saturation phase (the history on late_subscriber_catchup).
  std::vector<uint32_t> sat_list;
  std::vector<uint8_t> deposited;     // per file: Deposit was called
  // Saturation: corpus files per second from the first deposit to the
  // last leaf delivery, and process CPU per corpus file.
  double sat_files_per_s = 0;
  double sat_cpu_us_per_file = 0;
  std::string dir;
  bool timed_out = false;
};

struct Context {
  const Plan& plan;
  const PayloadMaker& payloads;
  const NameIndex& names;
  const bistro::ServerConfig& tuning;
  int origin_workers;
  int down_workers;
};

bistro::ServerConfig ConfigWith(const bistro::ServerConfig& tuning,
                                const std::string& feeds) {
  auto parsed = bistro::ParseConfig(feeds);
  bistro::ServerConfig c = parsed.ok() ? *parsed : bistro::ServerConfig();
  c.delivery = tuning.delivery;
  c.ingest = tuning.ingest;
  c.receipts = tuning.receipts;
  c.classifier = tuning.classifier;
  return c;
}

int TotalLeaves(const Plan& plan) {
  return plan.initial_leaves + plan.late_leaves;
}

/// Polls until `done()` or the deadline; false on timeout.
template <typename F>
bool WaitFor(F done, int64_t deadline_ns) {
  while (!done()) {
    if (SteadyNs() > deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Deliveries at leaves [from, to): all, or only watched files.
uint64_t LeafCount(Topology* t, int from, int to, bool watched = false) {
  uint64_t n = 0;
  for (int i = from; i < to; ++i) {
    n += watched ? t->leaf(i)->watched() : t->leaf(i)->count();
  }
  return n;
}

/// Set-ups timed per untraced pass; setup_s is their median.
constexpr int kSetups = 7;

/// Writes back the dirty data of the file system that holds `dir`.
void SyncFileSystem(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// Runs one complete pass: setups, timed phases, drain, receipt flush.
/// Returns false (with `error`) only when the system could not be set up.
bool RunPass(const Context& ctx, const std::string& dir, SpanRecorder* rec,
             Pass* pass, std::string* error) {
  const Plan& plan = ctx.plan;
  const int leaves = TotalLeaves(plan);
  pass->dir = dir;
  pass->due_us.assign(plan.files.size(), 0);
  pass->refused.assign(plan.files.size(), 0);
  pass->deposited.assign(plan.files.size(), 0);

  TopologyOptions topts;
  topts.origin_config = ConfigWith(ctx.tuning, plan.FeedsConfig(true));
  topts.down_config = ConfigWith(ctx.tuning, plan.FeedsConfig(false));
  if (plan.down_cache_bytes != 0) {
    topts.down_config.delivery.cache_bytes =
        static_cast<int64_t>(plan.down_cache_bytes);
  }
  // The one departure from the example tuning: ingest workers sized to
  // the host (the config's `ingest { workers; }` would override Options).
  topts.origin_config.ingest.workers = ctx.origin_workers;
  topts.down_config.ingest.workers = ctx.down_workers;
  topts.leaves = leaves;
  topts.initial_leaves = plan.initial_leaves;
  topts.tracer = rec;
  topts.dir = dir;

  // setup_s is the median of kSetups timed Build()s: kSetups - 1
  // throwaway topologies in their own directories, then the measured one.
  // Each starts after the file system has written back what the one
  // before left dirty, so no set-up pays for another's writes. A traced
  // pass builds only the measured one, so its spans are the run's own.
  const int builds = rec == nullptr ? kSetups : 1;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::vector<double> setups;
  std::unique_ptr<Topology> t;
  for (int k = 0; k < builds; ++k) {
    bool measured = k == builds - 1;
    TopologyOptions o = topts;
    if (!measured) o.dir = dir + "/setup" + std::to_string(k);
    SyncFileSystem(dir);
    int64_t setup_start = SteadyNs();
    t = Topology::Build(o, &ctx.names, error);
    if (t == nullptr) return false;
    setups.push_back(static_cast<double>(SteadyNs() - setup_start) / 1e9);
    if (!measured) t.reset();
  }
  pass->setup_s = Median(setups);

  // Matched files whose deposit was refused: each stands for one missing
  // pair at every leaf it should have reached.
  std::atomic<uint64_t> refused_files{0};
  auto refused_pairs = [&](int per_file) {
    return refused_files.load() * static_cast<uint64_t>(per_file);
  };
  auto deposit = [&](uint32_t idx, const char* source) {
    const FileSpec& f = plan.files[idx];
    pass->deposited[idx] = 1;
    std::string content = ctx.payloads.Make(idx);
    Status s;
    {
      ScopedSpan span(rec, f.via_origin ? "deposit" : "history_deposit", idx + 1);
      s = f.via_origin ? t->origin()->Deposit(source, f.name, std::move(content))
                       : t->down()->Deposit(source, f.name, std::move(content));
    }
    if (!s.ok()) {
      pass->refused[idx] = 1;
      if (f.matched) refused_files.fetch_add(1);
    }
  };
  // Deposits `files` on `loop` as fast as admission allows, one per
  // event so the loop's other posted work runs in between (it polls its
  // sockets only once the chain ends); returns when all are deposited.
  // `begin_us` gets the first deposit's time.
  auto deposit_all = [&](LoopThread* loop, const std::vector<uint32_t>& files,
                         const char* source, int64_t* begin_us) {
    std::promise<void> deposited;
    std::function<void(size_t)> chunk = [&](size_t from) {
      if (from == 0) *begin_us = NowUs();
      deposit(files[from], source);
      size_t to = from + 1;
      if (to == files.size()) {
        deposited.set_value();
      } else {
        loop->loop()->Post([&chunk, to] { chunk(to); });
      }
    };
    loop->loop()->Post([&chunk] { chunk(0); });
    deposited.get_future().wait();
  };
  // Matched files of `files` times the leaves each should reach.
  auto pairs_of = [&](const std::vector<uint32_t>& files, int per_file) {
    uint64_t n = 0;
    for (uint32_t i : files) n += plan.files[i].matched ? per_file : 0;
    return n;
  };
  auto flags = [&](const std::vector<uint32_t>& files) {
    std::vector<char> f(plan.files.size(), 0);
    for (uint32_t i : files) f[i] = 1;
    return f;
  };
  // Saturation throughput and CPU per file of `files`, from `begin`
  // (with `cpu0` process CPU seconds) to the last delivery of any of
  // them at leaves [from, to).
  auto measure_saturation = [&](const std::vector<uint32_t>& files, int from,
                                int to, int64_t begin, double cpu0) {
    double cpu = ProcessCpuSeconds() - cpu0;
    std::vector<char> flagged = flags(files);
    int64_t last = 0;
    t->down_loop().Run([&] {
      for (int i = from; i < to; ++i) {
        for (const Delivery& d : t->leaf(i)->deliveries()) {
          if (flagged[d.file]) last = std::max(last, d.at_us);
        }
      }
    });
    double n = static_cast<double>(files.size());
    pass->sat_files_per_s = Ratio(n, static_cast<double>(last - begin) / 1e6);
    pass->sat_cpu_us_per_file = Ratio(cpu * 1e6, n);
  };

  // late_subscriber_catchup: staged history straight into the
  // downstream, delivered to the existing leaf before timing starts.
  if (!plan.history.empty()) {
    int64_t begin = 0;
    deposit_all(&t->down_loop(), plan.history, "history", &begin);
    uint64_t want = pairs_of(plan.history, plan.initial_leaves);
    if (!WaitFor([&] {
          return LeafCount(t.get(), 0, plan.initial_leaves) +
                     refused_pairs(plan.initial_leaves) >= want;
        },
                 SteadyNs() + 60'000'000'000)) {
      pass->timed_out = true;
    }
  }

  // ---- Open-loop phase: every tick posted at its due time.
  pass->open_start = TakeMark(t.get());
  const int64_t t0 = NowUs() + 20000;
  std::vector<uint32_t> open_files;
  std::mutex lag_mu;
  for (const Tick& tick : plan.open_loop) {
    int64_t due = t0 + tick.offset_us;
    for (uint32_t idx : tick.files) {
      pass->due_us[idx] = due;
      open_files.push_back(idx);
    }
    t->origin_loop().loop()->PostAt(due, [&, due, files = &tick.files] {
      double lag = static_cast<double>(NowUs() - due) / 1000.0;
      {
        std::lock_guard<std::mutex> lock(lag_mu);
        pass->gen_lag_ms.push_back(lag);
      }
      for (uint32_t idx : *files) deposit(idx, "poller");
    });
  }

  if (plan.late_leaves > 0) {
    // ---- Saturation phase = backlog drain: new leaves subscribe mid-
    // trickle and must catch up on the whole history.
    std::this_thread::sleep_until(
        std::chrono::system_clock::time_point(
            std::chrono::microseconds(t0 + plan.late_offset_us)));
    // The drain ends with the last history file at the last new leaf.
    std::vector<char> history = flags(plan.history);
    t->down_loop().Run([&] {
      for (int i = plan.initial_leaves; i < leaves; ++i) t->leaf(i)->Watch(&history);
    });
    pass->sat_start = TakeMark(t.get());
    double cpu0 = ProcessCpuSeconds();
    int64_t begin = NowUs();
    for (int i = plan.initial_leaves; i < leaves; ++i) {
      Status s;
      t->Subscribe(i, &s);
      if (!s.ok()) {
        t->Stop();  // posted ticks refer to this frame
        *error = "AddSubscriber: " + s.ToString();
        return false;
      }
    }
    uint64_t want = pairs_of(plan.history, leaves - plan.initial_leaves);
    bool ok = WaitFor(
        [&] {
          return LeafCount(t.get(), plan.initial_leaves, leaves, true) +
                     refused_pairs(leaves - plan.initial_leaves) >= want;
        },
        SteadyNs() + 120'000'000'000);
    pass->timed_out |= !ok;
    measure_saturation(plan.history, plan.initial_leaves, leaves, begin, cpu0);
    pass->sat_end = TakeMark(t.get());
    pass->sat_list = plan.history;
  }

  // Open-loop drain: every open-loop pair delivered (late leaves also
  // receive every trickle file, live or by backfill).
  {
    uint64_t want = pairs_of(open_files, leaves) +
                    pairs_of(plan.history, leaves);
    int64_t deadline = SteadyNs() + (plan.open_loop_us + 60'000'000) * 1000;
    bool ok = WaitFor(
        [&] { return LeafCount(t.get(), 0, leaves) + refused_pairs(leaves) >= want; },
        deadline);
    pass->timed_out |= !ok;
  }
  pass->open_end = TakeMark(t.get());

  if (!plan.corpus.empty()) {
    // ---- Saturation phase: the whole corpus deposited as fast as
    // admission allows, timed to its last leaf delivery.
    pass->sat_start = TakeMark(t.get());
    uint64_t want = LeafCount(t.get(), 0, leaves) + refused_pairs(leaves) +
                    pairs_of(plan.corpus, leaves);
    double cpu0 = ProcessCpuSeconds();
    int64_t begin = 0;
    deposit_all(&t->origin_loop(), plan.corpus, "poller", &begin);
    bool ok = WaitFor(
        [&] { return LeafCount(t.get(), 0, leaves) + refused_pairs(leaves) >= want; },
        SteadyNs() + 120'000'000'000);
    pass->timed_out |= !ok;
    measure_saturation(plan.corpus, 0, leaves, begin, cpu0);
    pass->sat_list = plan.corpus;
    pass->sat_end = TakeMark(t.get());
  }

  // Acks reach the origin before the downstream delivers, so every
  // receipt is buffered by now; commit them before the post-mortem.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  t->FlushReceipts();
  t->Stop();
  pass->add_subscriber_ms = t->subscribe_ms();
  for (int i = 0; i < leaves; ++i) {
    pass->deliveries.push_back(t->leaf(i)->deliveries());
    for (const std::string& s : t->leaf(i)->strangers()) {
      pass->strangers.push_back(s);
    }
  }
  return true;
}

// ---------------------------------------------------------------- oracle

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool fatal = false;  // wrong bytes, a duplicate, or a stray delivery
  std::vector<std::string> problems;
  // Open-loop pair latencies (a failed pair reads kFailedLatencyMs) and
  // each sample's due time.
  std::vector<double> latency_ms;
  std::vector<int64_t> latency_due_us;

  void Problem(const std::string& p) {
    if (problems.size() < 20) problems.push_back(p);
  }
};

constexpr double kFailedLatencyMs = 1e9;

/// Expected leaf fingerprint of every matched file: its payload, after
/// the origin's `compress lz` when it came through the origin. The codec
/// round trip back to the deposited bytes is checked on the way.
std::vector<uint64_t> ExpectedFingerprints(const Context& ctx, const Pass& pass,
                                           Verdict* v) {
  const Plan& plan = ctx.plan;
  std::vector<uint64_t> out(plan.files.size(), 0);
  std::vector<char> round_trip_ok(plan.files.size(), 1);
  const bistro::Codec* lz = bistro::GetCodec(bistro::CodecKind::kLz);
  unsigned threads = std::max(1u, std::min(3u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (size_t i = w; i < plan.files.size(); i += threads) {
        if (!plan.files[i].matched || !pass.deposited[i]) continue;
        std::string payload = ctx.payloads.Make(static_cast<uint32_t>(i));
        if (!plan.files[i].via_origin) {
          out[i] = Fingerprint(payload);
          continue;
        }
        std::string staged = lz->Compress(payload);
        auto back = bistro::AutoDecompress(staged);
        round_trip_ok[i] = back.ok() && *back == payload;
        out[i] = Fingerprint(staged);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (size_t i = 0; i < plan.files.size(); ++i) {
    if (!round_trip_ok[i]) {
      v->fatal = true;
      v->Problem("codec round trip changed " + plan.files[i].name);
    }
  }
  return out;
}

/// Reopens a server's receipt database after shutdown.
std::unique_ptr<bistro::ReceiptDatabase> Reopen(bistro::FileSystem* fs,
                                                const std::string& db,
                                                const Context& ctx) {
  auto opened = bistro::ReceiptDatabase::Open(
      fs, db, bistro::KvStore::Options(),
      ctx.tuning.receipts.shards.value_or(1));
  return opened.ok() ? std::move(*opened) : nullptr;
}

Verdict Check(const Context& ctx, const Pass& pass) {
  const Plan& plan = ctx.plan;
  const int leaves = TotalLeaves(plan);
  Verdict v;
  std::vector<uint64_t> expected = ExpectedFingerprints(ctx, pass, &v);

  // (file, leaf) -> times delivered, and the delivery time.
  std::vector<std::vector<uint8_t>> seen(
      static_cast<size_t>(leaves), std::vector<uint8_t>(plan.files.size(), 0));
  std::vector<std::vector<int64_t>> at(
      static_cast<size_t>(leaves), std::vector<int64_t>(plan.files.size(), 0));
  for (int l = 0; l < leaves; ++l) {
    for (const Delivery& d : pass.deliveries[static_cast<size_t>(l)]) {
      const FileSpec& f = plan.files[d.file];
      if (!f.matched) {
        v.fatal = true;
        ++v.failed;
        v.Problem("unmatched file delivered: " + f.name);
        continue;
      }
      uint8_t& n = seen[static_cast<size_t>(l)][d.file];
      if (n < 255) ++n;
      at[static_cast<size_t>(l)][d.file] = d.at_us;
      if (d.fingerprint != expected[d.file]) {
        v.fatal = true;
        v.Problem("wrong bytes: " + f.name + " at " + Topology::LeafName(l));
        n = 255;  // counted as failed below
      }
    }
  }
  for (const std::string& s : pass.strangers) {
    v.fatal = true;
    ++v.failed;
    v.Problem("unplanned name delivered: " + s);
  }

  // Post-mortem: both receipt databases must agree with the leaves.
  bistro::LocalFileSystem fs;
  auto origin_db = Reopen(&fs, pass.dir + "/origin/db", ctx);
  auto down_db = Reopen(&fs, pass.dir + "/down/db", ctx);
  if (origin_db == nullptr || down_db == nullptr) {
    v.fatal = true;
    v.Problem("cannot reopen a receipt database");
  }

  for (size_t i = 0; i < plan.files.size(); ++i) {
    const FileSpec& f = plan.files[i];
    if (!pass.deposited[i]) continue;
    bool open_loop = pass.due_us[i] != 0;
    if (!f.matched) {
      if (origin_db != nullptr && origin_db->FindIdByName(f.name).ok()) {
        ++v.failed;
        v.Problem("unmatched file has an arrival receipt: " + f.name);
      }
      continue;
    }
    bool origin_ok = true;
    if (f.via_origin && origin_db != nullptr) {
      auto id = origin_db->FindIdByName(f.name);
      origin_ok = id.ok() && origin_db->Delivered("down", *id);
    }
    auto down_id = down_db != nullptr ? down_db->FindIdByName(f.name)
                                      : bistro::Result<bistro::FileId>(
                                            Status::NotFound("no db"));
    if (pass.refused[i]) v.Problem("deposit refused: " + f.name);
    for (int l = 0; l < leaves; ++l) {
      ++v.attempted;
      uint8_t n = seen[static_cast<size_t>(l)][i];
      bool receipted = origin_ok && down_id.ok() &&
                       down_db->Delivered(Topology::LeafName(l), *down_id);
      bool failed = pass.refused[i] || n != 1 || !receipted;
      if (n > 1 && n != 255) {
        v.fatal = true;
        v.Problem("duplicate delivery: " + f.name + " at " +
                  Topology::LeafName(l));
      } else if (n == 0 && !pass.refused[i]) {
        v.Problem("never delivered: " + f.name + " at " +
                  Topology::LeafName(l));
      } else if (n == 1 && !receipted) {
        v.Problem("receipts disagree with the leaf: " + f.name + " at " +
                  Topology::LeafName(l));
      }
      if (failed) ++v.failed;
      // Latency samples: open-loop pairs; on late_subscriber_catchup
      // only the existing leaf's live trickle.
      bool sampled = open_loop && (plan.late_leaves == 0 || l < plan.initial_leaves);
      if (sampled) {
        v.latency_due_us.push_back(pass.due_us[i]);
        v.latency_ms.push_back(
            failed ? kFailedLatencyMs
                   : static_cast<double>(at[static_cast<size_t>(l)][i] -
                                         pass.due_us[i]) /
                         1000.0);
      }
    }
  }
  return v;
}

// ----------------------------------------------------------- calibration

/// fsync latency of a 64 KiB write in `dir`: {p50, p99} in microseconds.
std::pair<double, double> FsyncProbe(const std::string& dir) {
  std::string path = dir + "/fsync_probe";
  std::string block(64 << 10, 'x');
  std::vector<double> us;
  for (int i = 0; i < 100; ++i) {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) break;
    bool wrote = ::write(fd, block.data(), block.size()) ==
                 static_cast<ssize_t>(block.size());
    int64_t start = SteadyNs();
    bool synced = ::fsync(fd) == 0;
    us.push_back(static_cast<double>(SteadyNs() - start) / 1000.0);
    ::close(fd);
    if (!wrote || !synced) break;
  }
  ::unlink(path.c_str());
  return {Quantile(us, 0.5), Quantile(us, 0.99)};
}

/// Median loopback TCP round trip (1-byte ping-pong), microseconds.
double TcpRttProbe() {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    return 0;
  }
  int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client < 0 ||
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listener);
    if (client >= 0) ::close(client);
    return 0;
  }
  int server = ::accept(listener, nullptr, nullptr);
  if (server < 0) {
    ::close(client);
    ::close(listener);
    return 0;
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int kRounds = 500;
  std::thread echo([server] {
    char c;
    for (int i = 0; i < kRounds; ++i) {
      if (::read(server, &c, 1) != 1 || ::write(server, &c, 1) != 1) break;
    }
  });
  std::vector<double> us;
  char c = 'p';
  for (int i = 0; i < kRounds; ++i) {
    int64_t start = SteadyNs();
    if (::write(client, &c, 1) != 1 || ::read(client, &c, 1) != 1) break;
    us.push_back(static_cast<double>(SteadyNs() - start) / 1000.0);
  }
  ::shutdown(client, SHUT_RDWR);
  echo.join();
  ::close(client);
  ::close(server);
  ::close(listener);
  return Median(us);
}

// ---------------------------------------------------------------- probes

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Runs `fn` repeatedly for at least `min_s`; returns seconds per pass.
template <typename F>
double TimePerPass(F fn, double min_s) {
  int passes = 0;
  int64_t start = SteadyNs();
  do {
    fn();
    ++passes;
  } while (static_cast<double>(SteadyNs() - start) / 1e9 < min_s);
  return static_cast<double>(SteadyNs() - start) / 1e9 / passes;
}

/// Layer replay probes on the exact names and payloads of this run.
Metrics ReplayProbes(const Context& ctx) {
  const Plan& plan = ctx.plan;
  Metrics m;
  volatile uint64_t sink = 0;

  // classify: compile the origin's feed table, classify every name.
  auto registry = bistro::FeedRegistry::Create(
      ConfigWith(ctx.tuning, plan.FeedsConfig(true)));
  if (registry.ok()) {
    std::unique_ptr<bistro::FeedClassifier> classifier;
    double compile = TimePerPass(
        [&] { classifier = std::make_unique<bistro::FeedClassifier>(registry->get()); },
        0.05);
    m["classify.compile_ms"] = {compile * 1e3, "ms"};
    double s = TimePerPass(
        [&] {
          for (const FileSpec& f : plan.files) {
            sink = sink + classifier->ClassifySnapshot(f.name).feeds.size();
          }
        },
        0.2);
    m["classify.ns_per_name"] = {s * 1e9 / static_cast<double>(plan.files.size()),
                                 "ns"};
  }

  // codec, CRC, frame encode/decode: up to 24 MiB of origin payloads.
  std::vector<std::string> payloads;
  std::vector<std::string> staged;
  size_t bytes = 0;
  const bistro::Codec* lz = bistro::GetCodec(bistro::CodecKind::kLz);
  for (size_t i = 0; i < plan.files.size() && bytes < (24u << 20); ++i) {
    if (!plan.files[i].via_origin || !plan.files[i].matched) continue;
    payloads.push_back(ctx.payloads.Make(static_cast<uint32_t>(i)));
    bytes += payloads.back().size();
  }
  double mb = static_cast<double>(bytes) / (1 << 20);
  double s = TimePerPass(
      [&] {
        staged.clear();
        for (const std::string& p : payloads) staged.push_back(lz->Compress(p));
      },
      0.2);
  m["compress.mb_per_s"] = {mb / s, "MB/s"};
  s = TimePerPass(
      [&] {
        for (const std::string& p : payloads) sink = sink + bistro::Crc32(p);
      },
      0.1);
  m["crc.mb_per_s"] = {mb / s, "MB/s"};
  std::vector<bistro::Message> msgs;
  double staged_mb = 0;
  for (size_t i = 0; i < staged.size(); ++i) {
    bistro::Message msg;
    msg.type = bistro::MessageType::kFileData;
    msg.file_id = i + 1;
    msg.feed = "SNMP";
    msg.name = "replay" + std::to_string(i);
    msg.dest_path = msg.name;
    msg.payload_crc = bistro::Crc32(staged[i]);
    msg.payload = staged[i];
    staged_mb += static_cast<double>(staged[i].size()) / (1 << 20);
    msgs.push_back(std::move(msg));
  }
  std::vector<std::string> frames;
  s = TimePerPass(
      [&] {
        frames.clear();
        for (const bistro::Message& msg : msgs) {
          frames.push_back(bistro::EncodeMessage(msg));
        }
      },
      0.1);
  m["net.encode_mb_per_s"] = {staged_mb / s, "MB/s"};
  s = TimePerPass(
      [&] {
        for (const std::string& f : frames) {
          sink = sink + bistro::DecodeMessage(f).ok();
        }
      },
      0.1);
  m["net.decode_mb_per_s"] = {staged_mb / s, "MB/s"};
  (void)sink;
  return m;
}

// --------------------------------------------------------------- metrics


/// Quantile `q` of the open-loop latencies: over all samples, or within
/// each burst and then the median over bursts.
double LatencyMs(const Plan& plan, const Verdict& v, double q) {
  if (!plan.per_burst) return Quantile(v.latency_ms, q);
  std::map<int64_t, std::vector<double>> bursts;
  for (size_t i = 0; i < v.latency_ms.size(); ++i) {
    bursts[v.latency_due_us[i]].push_back(v.latency_ms[i]);
  }
  std::vector<double> per_burst;
  for (const auto& [due, samples] : bursts) {
    per_burst.push_back(Quantile(samples, q));
  }
  return Median(per_burst);
}

Metrics EndToEnd(const Context& ctx, const Pass& pass, const Verdict& v) {
  Metrics m;
  m["setup_s"] = {pass.setup_s, "s"};
  m["deliver_p50_ms"] = {LatencyMs(ctx.plan, v, 0.5), "ms"};
  m["deliver_tail_ms"] = {LatencyMs(ctx.plan, v, ctx.plan.tail_q), "ms"};
  m["throughput_files_per_s"] = {pass.sat_files_per_s, "files/s"};
  m["cpu_us_per_file"] = {pass.sat_cpu_us_per_file, "us"};
  m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  m["delivered_frac"] = {
      1.0 - Ratio(static_cast<double>(v.failed), static_cast<double>(v.attempted)),
      "ratio"};
  return m;
}

Metrics PerLayer(const Context& ctx, const Pass& pass, const Pass& untraced,
                 const SpanRecorder& rec) {
  const Plan& plan = ctx.plan;
  Metrics m;
  auto us_q = [&](const char* span, bool file_only, double q) {
    return Quantile(rec.Durations(span, file_only), q) / 1000.0;
  };
  // Saturation-phase deltas (the backlog drain on late_subscriber).
  const Mark& a = pass.sat_start;
  const Mark& b = pass.sat_end;
  auto both = [&](const std::string& name, bool sum = false) {
    return Delta(a.origin, b.origin, name, sum) + Delta(a.down, b.down, name, sum);
  };
  double files = static_cast<double>(pass.sat_list.size());
  double payload_bytes = 0;
  for (uint32_t i : pass.sat_list) payload_bytes += plan.files[i].size;

  // ingest
  m["ingest.deposit_us_p50"] = {us_q("deposit", true, 0.5), "us"};
  m["ingest.deposit_us_p99"] = {us_q("deposit", true, 0.99), "us"};
  m["ingest.commit_batch_mean"] = {
      Ratio(Delta(a.origin, b.origin, "bistro_ingest_commit_batch_size", true),
            Delta(a.origin, b.origin, "bistro_ingest_commit_batch_size")),
      "files"};
  m["ingest.blocked_per_file"] = {
      Ratio(Delta(a.origin, b.origin, "bistro_ingest_blocked_total"), files),
      "count"};
  // federation
  m["federation.inbound_us_p50"] = {us_q("inbound", true, 0.5), "us"};
  m["federation.inbound_us_p99"] = {us_q("inbound", true, 0.99), "us"};
  // obs: pipeline stage histograms over the open-loop phase
  const char* stages[] = {"classify", "normalize", "stage",  "receipt",
                          "schedule", "send",      "delivery_receipt"};
  for (const char* side : {"origin", "down"}) {
    bool origin = std::string(side) == "origin";
    const MetricMap& x = origin ? pass.open_start.origin : pass.open_start.down;
    const MetricMap& y = origin ? pass.open_end.origin : pass.open_end.down;
    for (const char* st : stages) {
      std::string h = std::string("bistro_pipeline_stage_") + st + "_latency_us";
      std::string n = std::string(side) + ".stage." + st + "_us_";
      m[n + "p50"] = {HistQuantile(x, y, h, 0.5), "us"};
      m[n + "p99"] = {HistQuantile(x, y, h, 0.99), "us"};
    }
  }
  // vfs
  bistro::FsOpStats fa = a.origin_fs, fb = b.origin_fs;
  bistro::FsOpStats da = a.down_fs, db = b.down_fs;
  auto ops = [](const bistro::FsOpStats& s) {
    return static_cast<double>(s.reads + s.writes + s.syncs + s.MetadataOps());
  };
  m["vfs.syncs_per_file"] = {
      Ratio(static_cast<double>(fb.syncs - fa.syncs + db.syncs - da.syncs), files),
      "count"};
  m["vfs.ops_per_file"] = {Ratio(ops(fb) - ops(fa) + ops(db) - ops(da), files),
                           "count"};
  m["vfs.write_bytes_per_payload_byte"] = {
      Ratio(static_cast<double>(fb.bytes_written - fa.bytes_written +
                                db.bytes_written - da.bytes_written),
            payload_bytes),
      "ratio"};
  m["vfs.read_bytes_per_payload_byte"] = {
      Ratio(static_cast<double>(fb.bytes_read - fa.bytes_read + db.bytes_read -
                                da.bytes_read),
            payload_bytes),
      "ratio"};
  m["vfs.sync_us_p50"] = {us_q("vfs.sync", false, 0.5), "us"};
  m["vfs.sync_us_p99"] = {us_q("vfs.sync", false, 0.99), "us"};
  m["vfs.write_us_p50"] = {us_q("vfs.write", false, 0.5), "us"};
  // compress
  m["compress.ratio"] = {
      Ratio(Delta(a.origin, b.origin, "bistro_codec_compress_bytes_out_total"),
            Delta(a.origin, b.origin, "bistro_codec_compress_bytes_in_total")),
      "ratio"};
  // net
  m["net.send_to_ack_us_p50"] = {us_q("net.send", true, 0.5), "us"};
  m["net.send_to_ack_us_p99"] = {us_q("net.send", true, 0.99), "us"};
  m["net.frames_per_file"] = {
      Ratio(Delta(a.down, b.down, "bistro_net_frames_in_total"), files), "count"};
  m["net.wire_bytes_per_payload_byte"] = {
      Ratio(Delta(a.down, b.down, "bistro_net_bytes_in_total"), payload_bytes),
      "ratio"};
  // kv
  m["kv.wal_syncs_per_file"] = {Ratio(both("bistro_wal_syncs_total"), files),
                                "count"};
  m["kv.arrival_group_files"] = {
      Ratio(both("bistro_receipts_group_commit_files_total"),
            both("bistro_receipts_group_commits_total")),
      "files"};
  m["kv.delivery_group_files"] = {
      Ratio(both("bistro_receipts_delivery_group_files_total"),
            both("bistro_receipts_delivery_group_commits_total")),
      "files"};
  m["kv.wal_bytes_per_file"] = {
      Ratio(both("bistro_wal_append_bytes_total"), files), "bytes"};
  // sched: the fan-out server, over the open-loop phase
  m["sched.job_wait_us_p50"] = {
      HistQuantile(pass.open_start.down, pass.open_end.down,
                   "bistro_sched_job_wait_us", 0.5),
      "us"};
  m["sched.job_wait_us_p99"] = {
      HistQuantile(pass.open_start.down, pass.open_end.down,
                   "bistro_sched_job_wait_us", 0.99),
      "us"};
  m["sched.late_frac"] = {
      Ratio(Delta(pass.open_start.down, pass.open_end.down, "bistro_sched_late_total"),
            Delta(pass.open_start.down, pass.open_end.down,
                  "bistro_sched_completed_total")),
      "ratio"};
  // delivery (the fan-out server)
  double hits = Delta(a.down, b.down, "bistro_delivery_cache_hits_total");
  double misses = Delta(a.down, b.down, "bistro_delivery_cache_misses_total");
  double delivered = Delta(a.down, b.down, "bistro_delivery_files_delivered_total");
  m["delivery.cache_hit_ratio"] = {Ratio(hits, hits + misses), "ratio"};
  m["delivery.staging_reads_per_delivery"] = {
      Ratio(Delta(a.down, b.down, "bistro_delivery_staging_reads_total"), delivered),
      "count"};
  m["delivery.retries_per_delivery"] = {
      Ratio(both("bistro_delivery_retries_total"),
            both("bistro_delivery_files_delivered_total")),
      "count"};
  m["delivery.coalesced_files_per_frame"] = {
      Ratio(both("bistro_delivery_coalesced_files_total"),
            both("bistro_delivery_coalesced_frames_total")),
      "files"};
  m["delivery.add_subscriber_ms"] = {Median(pass.add_subscriber_ms), "ms"};
  // fanout
  m["fanout.index_lookups_per_file"] = {
      Ratio(Delta(a.down, b.down, "bistro_fanout_index_lookups_total"), files),
      "count"};
  // sim: loop threads and the rest of the process
  double wall = static_cast<double>(b.steady_ns - a.steady_ns) / 1e9;
  double origin_loop = b.origin_loop_cpu - a.origin_loop_cpu;
  double down_loop = b.down_loop_cpu - a.down_loop_cpu;
  m["origin.loop_busy_frac"] = {Ratio(origin_loop, wall), "ratio"};
  m["down.loop_busy_frac"] = {Ratio(down_loop, wall), "ratio"};
  m["workers.cpu_frac"] = {
      Ratio(b.process_cpu - a.process_cpu - origin_loop - down_loop, wall),
      "ratio"};
  // generator
  m["gen.lag_ms_p99"] = {Quantile(pass.gen_lag_ms, 0.99), "ms"};
  m["gen.lag_ms_max"] = {Quantile(pass.gen_lag_ms, 1.0), "ms"};
  // trace: self time per file, and the cost of tracing itself
  std::map<std::string, int64_t> self = rec.SelfTimes();
  double all_files = 0;
  for (uint8_t d : pass.deposited) all_files += d;
  auto self_us = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1000.0;
  };
  double vfs_io = 0;
  for (const auto& [name, ns] : self) {
    if (name.rfind("vfs.", 0) == 0 && name != "vfs.sync") {
      vfs_io += static_cast<double>(ns) / 1000.0;
    }
  }
  m["self.deposit_us_per_file"] = {Ratio(self_us("deposit"), all_files), "us"};
  m["self.inbound_us_per_file"] = {Ratio(self_us("inbound"), all_files), "us"};
  m["self.vfs_sync_us_per_file"] = {Ratio(self_us("vfs.sync"), all_files), "us"};
  m["self.vfs_io_us_per_file"] = {Ratio(vfs_io, all_files), "us"};
  m["trace.overhead_frac"] = {1.0 - Ratio(pass.sat_files_per_s, untraced.sat_files_per_s),
                              "ratio"};
  for (const auto& [name, metric] : ReplayProbes(ctx)) m[name] = metric;
  return m;
}

std::string Json(const Metrics& metrics, const Verdict& v) {
  std::string out = "{\"correct\": ";
  out += (v.failed == 0 && !v.fatal) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload <poller_burst|bulk_federated|"
                 "late_subscriber_catchup> --seed <n> --seconds <s> "
                 "--trace <0|1> [--config <example.conf>] [--workdir <dir>] "
                 "[--outdir <dir>]\n");
    return 2;
  }
  Plan plan;
  if (!MakePlan(args.workload, args.seed, args.seconds, &plan)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  bistro::LocalFileSystem fs;
  auto text = fs.ReadFile(args.config);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", args.config.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  auto tuning = bistro::ParseConfig(*text);
  if (!tuning.ok()) {
    std::fprintf(stderr, "config error: %s\n", tuning.status().ToString().c_str());
    return 1;
  }

  // Write back what earlier processes left dirty (a previous run's
  // deletions included) so it is not charged to this run's fsyncs.
  ::sync();
  // Each run owns a fresh directory inside the working directory.
  std::error_code ec;
  std::string run_dir = args.workdir + "/" + args.workload + "-" +
                        std::to_string(getpid());
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  std::filesystem::create_directories(args.outdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Two loop threads need a core each; ingest workers share the rest.
  int nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  int workers = std::max(2, nproc - 2);
  auto [fsync_p50, fsync_p99] = FsyncProbe(run_dir);
  std::printf(
      "# calibration: nproc=%d fsync64k_p50_us=%.1f fsync64k_p99_us=%.1f "
      "tcp_rtt_us=%.1f ingest_workers=%d+%d\n",
      nproc, fsync_p50, fsync_p99, TcpRttProbe(), (workers + 1) / 2, workers / 2);

  NameIndex names;
  for (size_t i = 0; i < plan.files.size(); ++i) {
    names.emplace(plan.files[i].name, static_cast<uint32_t>(i));
  }
  PayloadMaker payloads(plan, args.seed);
  Context ctx{plan, payloads, names, *tuning, (workers + 1) / 2, workers / 2};

  std::string error;
  Pass pass;
  if (!RunPass(ctx, run_dir + "/untraced", nullptr, &pass, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    std::filesystem::remove_all(run_dir, ec);
    return 1;
  }
  Verdict verdict = Check(ctx, pass);
  Metrics metrics;
  if (!args.trace) {
    metrics = EndToEnd(ctx, pass, verdict);
  } else {
    SpanRecorder rec;
    Pass traced;
    if (!RunPass(ctx, run_dir + "/traced", &rec, &traced, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      std::filesystem::remove_all(run_dir, ec);
      return 1;
    }
    Verdict tv = Check(ctx, traced);
    verdict.attempted += tv.attempted;
    verdict.failed += tv.failed;
    verdict.fatal |= tv.fatal;
    for (const std::string& p : tv.problems) verdict.Problem(p);
    metrics = PerLayer(ctx, traced, pass, rec);
    std::string dump = args.outdir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".tsv";
    if (rec.Dump(dump)) {
      std::printf("# spans: %zu written to %s\n", rec.size(), dump.c_str());
    }
  }
  std::filesystem::remove_all(run_dir, ec);
  ::sync();  // this run's deletions are written back before the next run

  size_t n = verdict.latency_ms.size();
  size_t bursts = plan.per_burst ? plan.open_loop.size() : 1;
  size_t per = n / std::max<size_t>(1, bursts);
  size_t beyond = per - static_cast<size_t>(std::ceil(plan.tail_q * static_cast<double>(per)));
  std::printf("# deliver_tail_ms is p%g over %zu samples%s (%zu beyond it%s)%s\n",
              plan.tail_q * 100, n,
              plan.per_burst ? ", per burst, median over bursts" : "",
              beyond, plan.per_burst ? " per burst" : "",
              beyond < 10 ? " -- too few for this percentile" : "");
  for (const std::string& p : verdict.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  if (pass.timed_out) std::printf("# problem: a phase timed out\n");
  std::printf("%s\n", Json(metrics, verdict).c_str());
  std::fflush(stdout);
  return verdict.fatal ? 1 : 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
