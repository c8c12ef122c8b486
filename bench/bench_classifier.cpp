// Experiment E14 (DESIGN.md §15), superseding E5's flattering sweep: the
// fused classify+extract automaton against the per-candidate strategies
// on workloads the prefix trie cannot prune.
//
// The old E5 sweep gave every feed a distinct literal prefix — the trie's
// best case, one candidate per file. Real feed tables are adversarial:
// hundreds of pollers share one naming family ("SNMP_CPU_POLL..."), and
// analyzer-suggested patterns often start with a variable field, which the
// trie cannot index at all. Three workloads cover the spectrum:
//
//   unique_prefix   metric<N>_POLL%i_%Y%m%d%H%M.csv   trie best case
//   shared_prefix   SNMP_CPU_POLL%i_host<N>.%Y%m%d.csv  one family, the
//                   distinguishing digits come after the first %i, so
//                   every feed shares the literal prefix "SNMP_CPU_POLL"
//   prefixless      %s_POLL%i_f<N>.csv                 no literal prefix;
//                   the trie checks every feed for every file
//
// A separate scale sweep (m<NNNNN>_%i.csv) grows the table to 10^5
// patterns to show the automaton's per-file cost stays flat: the scan is
// O(name length) whatever the table size.
//
// Time base: wall clock (the classifier is pure CPU).
//
// Acceptance: automaton >= 10x trie files/sec at 1000 shared-prefix
// feeds, and automaton per-file cost at the largest scale row <= 1.5x its
// 1000-feed cost.
//
// Env:
//   BISTRO_BENCH_QUICK  non-empty -> smaller corpus, scale stops at 10^4
//   BISTRO_BENCH_OUT    JSON output path (default BENCH_classifier.json)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "report.h"

using namespace bistro;

namespace {

std::unique_ptr<FeedRegistry> MakeRegistry(const std::string& config_text) {
  auto parsed = ParseConfig(config_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config: %s\n", parsed.status().ToString().c_str());
    std::abort();
  }
  auto registry = FeedRegistry::Create(*parsed);
  if (!registry.ok()) {
    std::fprintf(stderr, "registry: %s\n",
                 registry.status().ToString().c_str());
    std::abort();
  }
  return std::move(*registry);
}

struct Workload {
  const char* name;
  std::string (*pattern)(int i);                 // feed i's pattern
  std::string (*file)(Rng& rng, int num_feeds);  // a matching filename
  std::string (*junk)(Rng& rng);                 // an unmatched filename
};

const Workload kWorkloads[] = {
    {"unique_prefix",
     [](int i) {
       return StrFormat("metric%04d_POLL%%i_%%Y%%m%%d%%H%%M.csv", i);
     },
     [](Rng& rng, int n) {
       return StrFormat("metric%04d_POLL%d_201009250%d%d5.csv",
                        (int)rng.Uniform(n), (int)rng.Uniform(8),
                        (int)rng.Uniform(10), (int)rng.Uniform(6));
     },
     [](Rng& rng) { return rng.AlnumString(24); }},
    {"shared_prefix",
     [](int i) {
       return StrFormat("SNMP_CPU_POLL%%i_host%04d.%%Y%%m%%d.csv", i);
     },
     [](Rng& rng, int n) {
       return StrFormat("SNMP_CPU_POLL%d_host%04d.20100925.csv",
                        (int)rng.Uniform(64), (int)rng.Uniform(n));
     },
     // Junk that still wears the family prefix, so the trie walks deep
     // before every candidate fails.
     [](Rng& rng) {
       return StrFormat("SNMP_CPU_POLL%d_host%04d.20100925.txt",
                        (int)rng.Uniform(64), (int)rng.Uniform(1000));
     }},
    {"prefixless",
     [](int i) { return StrFormat("%%s_POLL%%i_f%04d.csv", i); },
     [](Rng& rng, int n) {
       return StrFormat("%s_POLL%d_f%04d.csv", rng.AlnumString(6).c_str(),
                        (int)rng.Uniform(9), (int)rng.Uniform(n));
     },
     [](Rng& rng) { return rng.AlnumString(24); }},
};

std::string BuildConfig(const Workload& w, int num_feeds) {
  std::string config;
  config.reserve(static_cast<size_t>(num_feeds) * 64);
  for (int i = 0; i < num_feeds; ++i) {
    config += StrFormat("feed F%05d { pattern \"%s\"; }\n", i,
                        w.pattern(i).c_str());
  }
  return config;
}

std::vector<std::string> MakeNames(const Workload& w, int num_feeds,
                                   size_t n) {
  Rng rng(7);
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(rng.Bernoulli(0.1) ? w.junk(rng) : w.file(rng, num_feeds));
  }
  return names;
}

struct RunResult {
  std::string workload;
  std::string mode;
  int feeds = 0;
  size_t files = 0;
  double ns_per_file = 0;
  double checks_per_file = 0;
  double matched_pct = 0;
  double compile_ms = 0;  // automaton only
  AutomatonStats automaton;
};

RunResult RunOne(const Workload& w, FeedClassifier::IndexMode mode,
                 FeedRegistry* registry, int num_feeds,
                 const std::vector<std::string>& names) {
  FeedClassifier classifier(registry, mode);
  const double t_compile0 = bench::NowSeconds();
  classifier.Rebuild();
  const double compile_ms = (bench::NowSeconds() - t_compile0) * 1e3;

  // Warm-up pass over a slice: faults the tables in and settles the
  // branch predictors before the timed pass.
  size_t warm = names.size() < 2048 ? names.size() : 2048;
  for (size_t i = 0; i < warm; ++i) (void)classifier.Classify(names[i]);
  classifier.ResetStats();

  const double t0 = bench::NowSeconds();
  for (const std::string& name : names) (void)classifier.Classify(name);
  const double elapsed_sec = bench::NowSeconds() - t0;

  ClassifierStats stats = classifier.stats();
  RunResult r;
  r.workload = w.name;
  r.mode = std::string(IndexModeName(mode));
  r.feeds = num_feeds;
  r.files = names.size();
  r.ns_per_file = elapsed_sec * 1e9 / static_cast<double>(names.size());
  r.checks_per_file = static_cast<double>(stats.candidate_checks) /
                      static_cast<double>(stats.files);
  r.matched_pct =
      100.0 * static_cast<double>(stats.matched) / static_cast<double>(stats.files);
  r.compile_ms = compile_ms;
  if (auto snapshot = classifier.automaton(); snapshot != nullptr) {
    r.automaton = snapshot->stats();
  }
  return r;
}

}  // namespace

int main() {
  const bool quick = bench::Quick();

  const size_t linear_names = quick ? 2000 : 6000;
  const size_t fast_names = quick ? 10000 : 40000;

  std::printf("=== Classifier: workload x mode sweep%s ===\n\n",
              quick ? " (quick)" : "");
  bench::Table sweep_table;
  std::vector<bench::Row> sweep;
  double trie_shared_1000 = 0, automaton_shared_1000 = 0;
  for (const Workload& w : kWorkloads) {
    for (int num_feeds : {100, 1000}) {
      auto registry = MakeRegistry(BuildConfig(w, num_feeds));
      auto names = MakeNames(w, num_feeds, fast_names);
      std::vector<std::string> short_names(
          names.begin(),
          names.begin() + static_cast<ptrdiff_t>(
                              linear_names < names.size() ? linear_names
                                                          : names.size()));
      for (auto mode : {FeedClassifier::IndexMode::kLinear,
                        FeedClassifier::IndexMode::kPrefixIndex,
                        FeedClassifier::IndexMode::kAutomaton}) {
        // Linear at 1000 shared-prefix feeds is ~1000 full match attempts
        // per file; give it the smaller corpus so the row stays cheap.
        const auto& corpus =
            mode == FeedClassifier::IndexMode::kLinear ? short_names : names;
        RunResult r = RunOne(w, mode, registry.get(), num_feeds, corpus);
        if (w.name == std::string("shared_prefix") && num_feeds == 1000) {
          if (mode == FeedClassifier::IndexMode::kPrefixIndex) {
            trie_shared_1000 = r.ns_per_file;
          }
          if (mode == FeedClassifier::IndexMode::kAutomaton) {
            automaton_shared_1000 = r.ns_per_file;
          }
        }
        sweep.push_back({
            {"workload", "workload", "%s", r.workload, 14},
            {"mode", "mode", "%s", r.mode, 9},
            {"feeds", "feeds", "%d", r.feeds},
            {"files", "files", "%zu", r.files},
            {"ns_per_file", "ns/file", "%.1f", r.ns_per_file, 8},
            {"checks_per_file", "checks/file", "%.2f", r.checks_per_file},
            {"matched_pct", "matched %", "%.1f", r.matched_pct},
            {"compile_ms", "compile ms", "%.2f", r.compile_ms},
        });
        sweep_table.Print(sweep.back());
      }
    }
    std::printf("\n");
  }

  // ---- Scale sweep: the automaton's per-file cost vs table size.
  // Arrival order follows the landing zone's real shape: a feed's
  // generator deposits a cycle's worth of files at once (paper §2.1 —
  // feeds are periodic batches), so consecutive arrivals cluster by feed
  // rather than sampling 10^5 feeds uniformly one file at a time.
  const Workload scale_workload = {
      "scale", [](int i) { return StrFormat("m%05d_%%i.csv", i); },
      [](Rng& rng, int n) {
        return StrFormat("m%05d_%d.csv", (int)rng.Uniform(n),
                         (int)rng.Uniform(100000));
      },
      [](Rng& rng) { return rng.AlnumString(20); }};
  auto make_burst_names = [](int num_feeds, size_t n) {
    Rng rng(7);
    std::vector<std::string> names;
    names.reserve(n);
    while (names.size() < n) {
      if (rng.Bernoulli(0.1)) {
        names.push_back(rng.AlnumString(20));  // unmatched junk
        continue;
      }
      int feed = (int)rng.Uniform(num_feeds);
      size_t burst = 4 + rng.Uniform(12);
      for (size_t b = 0; b < burst && names.size() < n; ++b) {
        names.push_back(
            StrFormat("m%05d_%d.csv", feed, (int)rng.Uniform(100000)));
      }
    }
    return names;
  };
  std::vector<int> scales = {1000, 10000};
  if (!quick) scales.push_back(100000);

  std::printf("=== Automaton scale sweep (m<NNNNN>_%%i.csv) ===\n\n");
  bench::Table scale_table;
  std::vector<bench::Row> scale_rows;
  double scale_base_ns = 0, scale_top_ns = 0;
  for (int num_feeds : scales) {
    auto registry = MakeRegistry(BuildConfig(scale_workload, num_feeds));
    auto names = make_burst_names(num_feeds, fast_names);
    RunResult r = RunOne(scale_workload, FeedClassifier::IndexMode::kAutomaton,
                         registry.get(), num_feeds, names);
    if (num_feeds == 1000) scale_base_ns = r.ns_per_file;
    scale_top_ns = r.ns_per_file;
    const AutomatonStats& a = r.automaton;
    scale_rows.push_back({
        {"feeds", "feeds", "%d", r.feeds, 6},
        {"ns_per_file", "ns/file", "%.1f", r.ns_per_file},
        {"compile_ms", "compile ms", "%.2f", r.compile_ms},
        {"dfa_states", "dfa states", "%llu", (unsigned long long)a.dfa_states},
        {"dense_rows", "dense", "%llu", (unsigned long long)a.dense_rows, 6},
        {"sparse_rows", "sparse", "%llu", (unsigned long long)a.sparse_rows},
        {"accept_sets", "accepts", "%llu", (unsigned long long)a.accept_sets},
        {"memory_bytes", "table bytes", "%llu",
         (unsigned long long)a.memory_bytes},
    });
    scale_table.Print(scale_rows.back());
  }
  std::printf("\n");

  const double speedup =
      automaton_shared_1000 > 0 ? trie_shared_1000 / automaton_shared_1000 : 0;
  const double flatness = scale_base_ns > 0 ? scale_top_ns / scale_base_ns : 0;

  bench::Document doc("classifier");
  doc.Add({"quick", nullptr, "%s", quick});
  doc.Add("sweep", sweep);
  doc.Add("scale", scale_rows);
  doc.Add({"speedup_vs_trie_shared_prefix_1000", nullptr, "%.2f", speedup});
  doc.Add({"scale_per_file_ratio", nullptr, "%.3f", flatness});
  doc.Add({"scale_top_feeds", nullptr, "%d", scales.back()});
  if (!doc.Write(bench::OutPath("BENCH_classifier.json"))) return 1;

  std::printf("\nExpected shape: on shared-prefix and prefixless tables the "
              "trie's candidate\nloop degenerates to ~feeds checks per file "
              "while the automaton stays a single\nscan (0 checks); on the "
              "scale sweep the automaton's per-file cost is flat in\ntable "
              "size. Acceptance: automaton >= 10x trie at 1000 shared-prefix "
              "feeds;\nscale per-file ratio <= 1.5x.\n");
  bool ok = true;
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: automaton %.0f ns/file vs trie %.0f "
                 "ns/file = %.1fx < 10x at 1000 shared-prefix feeds\n",
                 automaton_shared_1000, trie_shared_1000, speedup);
    ok = false;
  } else {
    std::printf("ACCEPTANCE PASS: automaton %.1fx trie at 1000 "
                "shared-prefix feeds\n",
                speedup);
  }
  if (flatness > 1.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: per-file cost at %d feeds is %.2fx the "
                 "1000-feed cost (> 1.5x)\n",
                 scales.back(), flatness);
    ok = false;
  } else {
    std::printf("ACCEPTANCE PASS: per-file cost at %d feeds is %.2fx the "
                "1000-feed cost\n",
                scales.back(), flatness);
  }
  return ok ? 0 : 1;
}
