#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util.h"

namespace pipebench {

namespace {

constexpr char kFamilies[5][5] = {"cpu", "mem", "if", "disk", "temp"};
constexpr int kRegions = 20;
constexpr int kMetrics = 50;  // 5 families x 10 stats

std::string MetricName(int m) {
  return std::string(kFamilies[m / 10]) + "Stat" + std::to_string(m % 10);
}

/// SNMP-poller feed table: 1000 feeds (20 regions x 50 metrics) whose
/// patterns share long prefixes ("snmp_r07_if...").
std::vector<FeedDef> PollerFeeds() {
  std::vector<FeedDef> feeds;
  for (int r = 0; r < kRegions; ++r) {
    for (int m = 0; m < kMetrics; ++m) {
      char region[16];
      std::snprintf(region, sizeof(region), "r%02d", r);
      feeds.push_back({std::string("R") + (region + 1) + "_" + MetricName(m),
                       std::string("snmp_") + region + "_" + MetricName(m) +
                           "_%i_%Y%m%d%H%M.csv"});
    }
  }
  return feeds;
}

/// Fixed, seed-independent minute stamps keep names deterministic.
std::string Stamp(uint64_t minute) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "202610%02d%02d%02d",
                static_cast<int>(1 + (minute / 1440) % 28),
                static_cast<int>((minute / 60) % 24),
                static_cast<int>(minute % 60));
  return buf;
}

/// A poller file on `feed`, or (when `matched` is false) a name that
/// matches no feed.
FileSpec PollerFile(Rng* rng, uint32_t seq, int feed, bool matched,
                    bool via_origin) {
  FileSpec f;
  int r = feed / kMetrics;
  int m = feed % kMetrics;
  f.feed = static_cast<uint32_t>(feed);
  f.matched = matched;
  f.via_origin = via_origin;
  f.csv = true;
  f.size = 3584 + static_cast<uint32_t>(rng->Uniform(1025));  // ~4 KiB
  char region[16];
  std::snprintf(region, sizeof(region), "r%02d", r);
  // The unmatched variant breaks the metric token ("ifStat3x_"), so the
  // name shares every prefix with real feeds and still matches none.
  f.name = std::string("snmp_") + region + "_" + MetricName(m) +
           (f.matched ? "_" : "x_") + std::to_string(seq) + "_" +
           Stamp(seq / 1000) + ".csv";
  return f;
}

/// A poller file on a random feed; `unmatched_pct` percent of names are
/// deliberately unmatchable.
FileSpec RandomPollerFile(Rng* rng, uint32_t seq, bool via_origin,
                          int unmatched_pct) {
  int feed = static_cast<int>(rng->Uniform(kRegions * kMetrics));
  bool matched = rng->Uniform(100) >= static_cast<uint64_t>(unmatched_pct);
  return PollerFile(rng, seq, feed, matched, via_origin);
}

uint32_t Add(Plan* plan, FileSpec f) {
  plan->files.push_back(std::move(f));
  return static_cast<uint32_t>(plan->files.size() - 1);
}

/// One poll cycle: a file for every feed plus 2% unmatched names, in a
/// seeded order.
std::vector<uint32_t> PollBurst(Rng* rng, uint32_t* seq, Plan* plan) {
  const int feeds = kRegions * kMetrics;
  std::vector<int> order;
  for (int i = 0; i < feeds + feeds / 50; ++i) order.push_back(i);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(i + 1)]);
  }
  std::vector<uint32_t> burst;
  for (int k : order) {
    bool matched = k < feeds;
    int feed = matched ? k : static_cast<int>(rng->Uniform(feeds));
    burst.push_back(Add(plan, PollerFile(rng, (*seq)++, feed, matched, true)));
  }
  return burst;
}

void MakePollerBurst(Rng* rng, double seconds, Plan* plan) {
  plan->feeds = PollerFeeds();
  plan->initial_leaves = 8;
  // 8000 samples per burst: p99 leaves 80 beyond it in every burst.
  plan->tail_q = 0.99;
  plan->per_burst = true;
  // Open loop: one poll burst (1020 files, 8000 file-leaf pairs) every
  // 4 s, about 250 files/s: below the saturation rate, so each burst
  // drains before the next. 7 bursts at S=32.
  const int64_t kCycleUs = 4000000;
  plan->open_loop_us = static_cast<int64_t>(seconds * 0.8 * 1e6);
  uint32_t seq = 0;
  for (int64_t t = 0; t < plan->open_loop_us; t += kCycleUs) {
    plan->open_loop.push_back({t, PollBurst(rng, &seq, plan)});
  }
  // Saturation: one poll burst per 8 s of run budget (4 at S=32), all
  // deposited at once: a backlog of thousands of files and of tens of
  // thousands of delivery jobs.
  int bursts = std::max(1, static_cast<int>(seconds / 8));
  for (int b = 0; b < bursts; ++b) {
    std::vector<uint32_t> burst = PollBurst(rng, &seq, plan);
    plan->corpus.insert(plan->corpus.end(), burst.begin(), burst.end());
  }
}

void MakeBulkFederated(Rng* rng, double seconds, Plan* plan) {
  for (int i = 0; i < 4; ++i) {
    std::string n = "BULK" + std::to_string(i);
    plan->feeds.push_back({n, "bulk" + std::to_string(i) + "_%i_%Y%m%d%H%M.dat"});
  }
  plan->initial_leaves = 1;
  plan->tail_q = 0.90;
  // Sizes are spread evenly over 0.5-1.5 MiB, 1 MiB on average. With one
  // size for all files the two kinds' latencies form two separate humps
  // (compressible ~32 ms, incompressible ~46 ms for 1 MiB files on a
  // 4-core VM), and the median of their even mix falls in the empty gap
  // between them, where it swings with the extremes of either hump;
  // spread sizes make the humps overlap. Each kind takes every size of
  // kSizes once, in a seeded order, per kSizes files of that kind, so
  // every complete cycle's bytes are the same for every seed.
  constexpr uint32_t kSizes = 16;
  uint32_t order[2][kSizes];
  uint32_t count[2] = {0, 0};
  uint32_t seq = 0;
  auto make = [&]() {
    FileSpec f;
    f.feed = static_cast<uint32_t>(rng->Uniform(4));
    f.csv = (seq % 2) == 0;  // half compressible, half incompressible
    uint32_t* perm = order[f.csv ? 1 : 0];
    uint32_t& n = count[f.csv ? 1 : 0];
    if (n % kSizes == 0) {
      for (uint32_t i = 0; i < kSizes; ++i) perm[i] = i;
      for (uint32_t i = kSizes - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng->Uniform(i + 1)]);
      }
    }
    // 512 KiB + (2j + 1)/(2 kSizes) MiB: the midpoints of kSizes equal
    // slices of 0.5-1.5 MiB.
    f.size = (1u << 19) + ((2 * perm[n % kSizes] + 1) << 20) / (2 * kSizes);
    ++n;
    f.name = "bulk" + std::to_string(f.feed) + "_" + std::to_string(seq) +
             "_" + Stamp(seq) + ".dat";
    ++seq;
    return Add(plan, std::move(f));
  };
  // Open loop: one file every 62.5 ms (16 MiB/s).
  const int64_t kPeriodUs = 62500;
  plan->open_loop_us = static_cast<int64_t>(seconds * 0.5 * 1e6);
  for (int64_t t = 0; t < plan->open_loop_us; t += kPeriodUs) {
    plan->open_loop.push_back({t, {make()}});
  }
  // Saturation: 12 files per second of run budget, all deposited at once.
  int corpus = std::max(16, static_cast<int>(seconds * 12));
  for (int i = 0; i < corpus; ++i) plan->corpus.push_back(make());
}

void MakeLateSubscriber(Rng* rng, double seconds, Plan* plan) {
  plan->feeds = PollerFeeds();
  plan->initial_leaves = 1;
  plan->late_leaves = 4;
  plan->tail_q = 0.98;
  // 4 MiB payload cache against 340 files of ~4 KiB per second of run
  // budget (~43 MiB, about 10x the cache, at S=32): the backfill must
  // miss the cache and read staging for most files.
  plan->down_cache_bytes = 4u << 20;
  uint32_t seq = 0;
  int history = std::max(512, static_cast<int>(seconds * 340));
  for (int i = 0; i < history; ++i) {
    plan->history.push_back(Add(plan, RandomPollerFile(rng, seq++, false, 0)));
  }
  // Live trickle: one file every 5 ms through the origin for the first
  // part of the drain (the four new leaves are added a tenth of the way
  // in), so deliver_* measure live files during catch-up and follow the
  // drain time without amplifying it.
  const int64_t kPeriodUs = 5000;
  plan->open_loop_us = static_cast<int64_t>(seconds * 0.125 * 1e6);
  plan->late_offset_us = plan->open_loop_us / 10;
  for (int64_t t = 0; t < plan->open_loop_us; t += kPeriodUs) {
    plan->open_loop.push_back(
        {t, {Add(plan, RandomPollerFile(rng, seq++, true, 2))}});
  }
}

}  // namespace

std::string Plan::FeedsConfig(bool compress) const {
  std::string out = "group SNMP {\n";
  for (const FeedDef& f : feeds) {
    out += "  feed " + f.name + " { pattern \"" + f.pattern + "\";";
    if (compress) out += " compress lz;";
    out += " tardiness 60s; }\n";
  }
  out += "}\n";
  return out;
}

bool MakePlan(const std::string& workload, uint64_t seed, double seconds,
              Plan* plan) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 7);
  plan->workload = workload;
  if (workload == "poller_burst") {
    MakePollerBurst(&rng, seconds, plan);
  } else if (workload == "bulk_federated") {
    MakeBulkFederated(&rng, seconds, plan);
  } else if (workload == "late_subscriber_catchup") {
    MakeLateSubscriber(&rng, seconds, plan);
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------ payloads

namespace {

std::string CsvBlock(Rng* rng, size_t size) {
  std::string out;
  out.reserve(size + 96);
  uint64_t ts = 1792195200 + rng->Uniform(86400);
  char line[96];
  while (out.size() < size) {
    int n = std::snprintf(line, sizeof(line), "%llu,host%03u,%s,%u,%llu\n",
                          static_cast<unsigned long long>(ts),
                          static_cast<unsigned>(rng->Uniform(200)),
                          MetricName(static_cast<int>(rng->Uniform(kMetrics)))
                              .c_str(),
                          static_cast<unsigned>(rng->Uniform(48)),
                          static_cast<unsigned long long>(
                              rng->Uniform(10000000000ull)));
    out.append(line, static_cast<size_t>(n));
    ts += rng->Uniform(3);
  }
  out.resize(size);
  return out;
}

std::string RandomBlock(Rng* rng, size_t size) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; i += 8) {
    uint64_t w = rng->Next();
    std::memcpy(&out[i], &w, std::min<size_t>(8, size - i));
  }
  return out;
}

}  // namespace

PayloadMaker::PayloadMaker(const Plan& plan, uint64_t seed) : plan_(plan) {
  Rng rng(seed ^ 0xA0761D6478BD642Full);
  size_t largest = 0;
  bool any_random = false;
  for (const FileSpec& f : plan.files) {
    largest = std::max<size_t>(largest, f.size);
    any_random |= !f.csv;
  }
  // Small files draw from many blocks, large ones from a few.
  int blocks = largest > (64u << 10) ? 4 : 64;
  for (int i = 0; i < blocks; ++i) {
    csv_blocks_.push_back(CsvBlock(&rng, largest));
    if (any_random) random_blocks_.push_back(RandomBlock(&rng, largest));
  }
}

std::string PayloadMaker::Make(uint32_t index) const {
  const FileSpec& f = plan_.files[index];
  const std::vector<std::string>& pool = f.csv ? csv_blocks_ : random_blocks_;
  std::string out(pool[index % pool.size()], 0, f.size);
  // A header naming the file makes every payload distinct, so a swapped
  // or stale delivery cannot pass the fingerprint check.
  std::string header = "# " + f.name + "\n";
  std::memcpy(out.data(), header.data(), std::min(header.size(), out.size()));
  return out;
}

}  // namespace pipebench
