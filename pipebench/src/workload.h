// Workload plans: every file name, size, payload kind and due time a run
// deposits, all derived from the workload seed.

#ifndef PIPEBENCH_WORKLOAD_H_
#define PIPEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

/// One file the benchmark deposits.
struct FileSpec {
  std::string name;
  uint32_t feed = 0;       // index into Plan::feeds (meaningless if unmatched)
  bool matched = true;     // false: matches no feed, must never be delivered
  bool via_origin = true;  // false: deposited straight into the downstream
  bool csv = true;         // compressible CSV, else incompressible bytes
  uint32_t size = 0;       // bytes deposited
};

/// Files the open-loop generator deposits together at one due time.
struct Tick {
  int64_t offset_us = 0;  // from the start of the open-loop phase
  std::vector<uint32_t> files;
};

struct FeedDef {
  std::string name;     // under group SNMP
  std::string pattern;
};

struct Plan {
  std::string workload;
  std::vector<FeedDef> feeds;
  std::vector<FileSpec> files;
  /// Open-loop phase: the schedule, and its length.
  std::vector<Tick> open_loop;
  int64_t open_loop_us = 0;
  /// Saturation phase: a fixed corpus deposited as fast as admission
  /// allows (empty for late_subscriber_catchup, whose saturation phase
  /// is the backlog drain).
  std::vector<uint32_t> corpus;
  /// late_subscriber_catchup: staged history deposited into the
  /// downstream before the timed phases.
  std::vector<uint32_t> history;
  int initial_leaves = 1;
  /// late_subscriber_catchup: leaves added with AddSubscriber during the
  /// open-loop phase, at `late_offset_us` after it starts.
  int late_leaves = 0;
  int64_t late_offset_us = 0;
  /// Fixed percentile reported as deliver_tail_ms.
  double tail_q = 0.99;
  /// deliver_p50_ms and deliver_tail_ms are taken within each tick's
  /// samples and the median over ticks is reported (how fast a typical
  /// burst drains); otherwise over all samples of the phase.
  bool per_burst = false;
  /// Downstream payload-cache budget override (0 = the example config's).
  uint64_t down_cache_bytes = 0;

  /// `group SNMP { feed ... }` text; `compress` adds `compress lz`.
  std::string FeedsConfig(bool compress) const;
};

/// Builds the plan for `workload`; `seconds` scales the phase lengths.
/// Returns false for an unknown workload.
bool MakePlan(const std::string& workload, uint64_t seed, double seconds,
              Plan* plan);

/// Deterministic payload bytes of every planned file. Payloads are cut
/// from a small seeded pool of base blocks and stamped with the file's
/// name, so every file's bytes are distinct.
class PayloadMaker {
 public:
  PayloadMaker(const Plan& plan, uint64_t seed);
  std::string Make(uint32_t index) const;

 private:
  const Plan& plan_;
  std::vector<std::string> csv_blocks_;
  std::vector<std::string> random_blocks_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOAD_H_
