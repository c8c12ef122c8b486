// Experiment E7 (paper §5): feed analyzer quality and throughput.
//
// E7a  New-feed discovery: labelled corpora with known ground-truth
//      templates + junk; report recovered templates, precision/recall of
//      the file->feed assignment implied by the discovered patterns.
// E7b  False-negative detection: apply naming-convention mutations the
//      paper describes (case change, separator change, new field) and
//      measure how often the generalized-pattern similarity ranks the
//      true feed first — against the raw edit-distance baseline (which
//      the paper's TRAP example defeats).
// E7c  Discovery throughput on large corpora (names/second).
//
// E12  Incremental vs batch analysis (DESIGN.md §11): a drifting corpus
//      arrives in cycles; the batch baseline re-clusters the full
//      retained history every cycle while the incremental engine folds
//      only the new names and re-induces its live clusters. Sweep of
//      corpus size x workers; JSON snapshot for CI trend tracking.
//
// Env:
//   BISTRO_BENCH_QUICK  non-empty -> smaller corpora (CI smoke mode)
//   BISTRO_BENCH_OUT    JSON output path (default BENCH_analyzer.json)

#include <cstdio>
#include <set>

#include "analyzer/analyzer.h"
#include "analyzer/stream.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "config/parser.h"
#include "pattern/pattern.h"
#include "report.h"
#include "sim/sources.h"

using namespace bistro;

namespace {

void DiscoveryQuality() {
  std::printf("--- E7a: new-feed discovery on labelled corpora ---\n");
  std::printf("%10s %6s %12s %11s %11s\n", "templates", "junk",
              "recovered", "precision", "recall");
  Rng rng(31);
  for (int num_templates : {2, 5, 10}) {
    CorpusGenerator gen(&rng);
    std::vector<CorpusGenerator::FeedTemplate> templates;
    for (int t = 0; t < num_templates; ++t) {
      CorpusGenerator::FeedTemplate tpl;
      tpl.metric = StrFormat("METRIC%c", 'A' + t);
      tpl.pollers = 2 + t % 3;
      tpl.intervals = 24;
      tpl.style = static_cast<CorpusGenerator::FeedTemplate::Style>(t % 3);
      templates.push_back(tpl);
    }
    size_t junk = 20;
    auto corpus = gen.Generate(templates, junk,
                               FromCivil(CivilTime{2010, 9, 25}));
    std::vector<FileObservation> observations;
    for (const auto& l : corpus) observations.push_back(l.obs);
    DiscoveryOptions options;
    options.min_support = 3;
    auto result = DiscoverFeeds(observations, options);

    // Recovered = ground-truth patterns found verbatim.
    std::set<std::string> truth;
    for (const auto& t : templates) truth.insert(CorpusGenerator::TruthPattern(t));
    int recovered = 0;
    for (const auto& feed : result.feeds) {
      if (truth.count(feed.pattern)) ++recovered;
    }
    // Precision/recall of implied classification: compile each
    // discovered pattern, assign every labelled file, check against truth.
    std::vector<Pattern> compiled;
    for (const auto& feed : result.feeds) {
      auto p = Pattern::Compile(feed.pattern);
      if (p.ok()) compiled.push_back(std::move(*p));
    }
    uint64_t tp = 0, fp = 0, fn = 0;
    for (const auto& l : corpus) {
      bool matched = false;
      for (const auto& p : compiled) {
        if (p.Matches(l.obs.name)) {
          matched = true;
          break;
        }
      }
      if (matched && l.truth >= 0) ++tp;
      if (matched && l.truth < 0) ++fp;
      if (!matched && l.truth >= 0) ++fn;
    }
    double precision = tp + fp == 0 ? 0 : double(tp) / double(tp + fp);
    double recall = tp + fn == 0 ? 0 : double(tp) / double(tp + fn);
    std::printf("%10d %6zu %9d/%-2d %10.3f %10.3f\n", num_templates, junk,
                recovered, num_templates, precision, recall);
  }
}

void FalseNegativeDetection() {
  std::printf("\n--- E7b: false-negative ranking, pattern-sim vs edit distance ---\n");
  // Registry of 8 realistic feeds.
  auto config = ParseConfig(R"(
feed MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
feed CPU    { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
feed BPS    { pattern "BPS_%s_%Y%m%d%H.csv"; }
feed PPS    { pattern "PPS_%s_%Y%m%d%H.csv"; }
feed TRAP   { pattern "TRAP__%Y%m%d_DCTAGN_klpi.txt"; }
feed LOSS   { pattern "LOSS_P%i_%Y%m%d.dat"; }
feed ALARM  { pattern "ALARMHISTORY%i%Y%m%d%H%M.gz"; }
feed CONFIG { pattern "router_config_%s_%Y%m%d.xml"; }
)");
  auto registry = FeedRegistry::Create(*config);
  Logger logger;
  logger.SetMinLevel(LogLevel::kAlarm);
  FeedAnalyzer analyzer(registry->get(), &logger);

  // Mutated files with their true feed (the paper's evolution scenarios).
  struct Case {
    const char* file;
    const char* truth;
    const char* mutation;
  };
  Case cases[] = {
      {"MEMORY_Poller1_20100926.gz", "MEMORY", "capitalized field"},
      {"MEMORY_poller12_20100926.bz2", "MEMORY", "new extension"},
      {"CPU-POLL3-201009250500.txt", "CPU", "separator change"},
      {"CPU_POLL3_201009250500_v2.txt", "CPU", "appended field"},
      {"BPS_newpoller_2010092510.csv.tmp", "BPS", "suffix added"},
      {"TRAP_2010030817_UVIPTV-PER-BAN-DSPS-IPTV_MOM-rcsntxsqlcv122_9234SEC_klpi.txt",
       "TRAP", "the paper's TRAP example"},
      {"LOSS_P44_2010_12_30.dat", "LOSS", "date split with separators"},
      {"ALARMHISTORY7201009250500.bz2", "ALARM", "new compression"},
  };
  // A detector needs an absolute threshold that separates true false
  // negatives from unrelated junk — ranking alone is not enough. Compute
  // each method's junk ceiling (highest score any junk file achieves
  // against any feed), then check whether the mutated files clear it.
  Rng rng(13);
  // Junk = filenames from unrelated systems that happen to share the
  // environment's lingua franca (dates, counters, common extensions) —
  // the traffic an FN detector must NOT flag. Pure random strings would
  // flatter edit distance; real unmatched streams look like this.
  static const char* kWords[] = {"billing", "report",  "backup", "syslog",
                                 "invoice", "weekly",  "db",     "export",
                                 "audit",   "session", "core",   "dump"};
  static const char* kExts[] = {"pdf", "tar", "log", "tmp", "xml", "csv"};
  double psim_junk_ceiling = 0, ed_junk_ceiling = 0;
  for (int j = 0; j < 200; ++j) {
    std::string junk = std::string(kWords[rng.Uniform(12)]) + "_" +
                       kWords[rng.Uniform(12)] +
                       std::to_string(rng.Uniform(100)) + "_2010092" +
                       std::to_string(rng.Uniform(10)) + "." +
                       kExts[rng.Uniform(6)];
    std::string gen = GeneralizeName(junk);
    for (const RegisteredFeed* feed : (*registry)->feeds()) {
      psim_junk_ceiling = std::max(
          psim_junk_ceiling, PatternSimilarity(gen, feed->spec.pattern));
      ed_junk_ceiling = std::max(
          ed_junk_ceiling, EditDistanceSimilarity(junk, feed->spec.pattern));
    }
  }
  std::printf("junk ceiling (max score of 200 structured junk files): "
              "pattern-sim %.2f, edit-dist %.2f\n",
              psim_junk_ceiling, ed_junk_ceiling);
  int psim_detected = 0, ed_detected = 0;
  std::printf("%-34s %-10s %-26s %8s %8s\n", "mutated file (truncated)",
              "truth", "mutation", "psim", "edit");
  for (const Case& c : cases) {
    std::string generalized = GeneralizeName(c.file);
    const RegisteredFeed* truth_feed = (*registry)->FindFeed(c.truth);
    double ps = PatternSimilarity(generalized, truth_feed->spec.pattern);
    double es = EditDistanceSimilarity(c.file, truth_feed->spec.pattern);
    bool ps_ok = ps > psim_junk_ceiling;
    bool ed_ok = es > ed_junk_ceiling;
    psim_detected += ps_ok;
    ed_detected += ed_ok;
    std::string shown(c.file);
    if (shown.size() > 32) shown = shown.substr(0, 29) + "...";
    std::printf("%-34s %-10s %-26s %5.2f %s %5.2f %s\n", shown.c_str(),
                c.truth, c.mutation, ps, ps_ok ? "+" : "-", es,
                ed_ok ? "+" : "-");
  }
  std::printf("detected above junk ceiling: pattern similarity %d/8, "
              "edit distance %d/8\n",
              psim_detected, ed_detected);
}

void Throughput() {
  std::printf("\n--- E7c: discovery throughput ---\n");
  Rng rng(5);
  CorpusGenerator gen(&rng);
  std::vector<CorpusGenerator::FeedTemplate> templates;
  for (int t = 0; t < 50; ++t) {
    CorpusGenerator::FeedTemplate tpl;
    // Alphabetic metric names: a trailing digit would merge structurally
    // identical templates into one atomic feed (correct, but we want 50
    // distinct clusters for the throughput run).
    tpl.metric = StrFormat("METRIC%c%c", 'A' + t % 26, 'A' + t / 26);
    tpl.pollers = 4;
    tpl.intervals = 250;
    tpl.style = static_cast<CorpusGenerator::FeedTemplate::Style>(t % 3);
    templates.push_back(tpl);
  }
  auto corpus = gen.Generate(templates, 1000, FromCivil(CivilTime{2010, 9, 25}));
  std::vector<FileObservation> observations;
  for (const auto& l : corpus) observations.push_back(l.obs);
  RealClock clock;
  TimePoint t0 = clock.Now();
  auto result = DiscoverFeeds(observations);
  Duration elapsed = clock.Now() - t0;
  double rate = elapsed > 0
                    ? double(observations.size()) / (double(elapsed) / kSecond)
                    : 0;
  std::printf("%zu names -> %zu atomic feeds in %s (%.0f names/s)\n",
              observations.size(), result.feeds.size(),
              FormatDuration(elapsed).c_str(), rate);
}

// ------------------------------------------------- E12: incremental sweep

/// Returns false when the snapshot cannot be written.
bool IncrementalSweep(bool quick, const std::string& out_path) {
  std::printf("\n--- E12: incremental vs batch analysis, size x workers ---\n");
  // The corpus streams in over `cycles` analysis sweeps, the scenario the
  // analyzer daemon actually runs: with the default 10-minute
  // cycle_interval a daemon performs 144 sweeps per day, so 50 models
  // roughly a work shift of accumulation and is conservative. Batch cost
  // grows quadratically in the number of sweeps (it re-clusters the full
  // retained history each time); incremental grows linearly.
  const size_t cycles = 50;
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{2000, 10000}
            : std::vector<size_t>{10000, 100000, 1000000};
  const std::vector<size_t> worker_sweep = {0, 1, 4};
  DiscoveryOptions discovery;
  discovery.min_support = 3;

  bench::Table table;
  std::vector<bench::Row> results;
  for (size_t names : sizes) {
    Rng rng(1912);
    CorpusGenerator gen(&rng);
    CorpusGenerator::DriftOptions drift;
    drift.total = names;
    auto corpus =
        gen.GenerateDrifting(drift, FromCivil(CivilTime{2010, 9, 25}));
    const size_t delta = (corpus.size() + cycles - 1) / cycles;

    // Batch baseline: every cycle re-clusters the full retained history —
    // the pre-incremental daemon's cost model. Worker count is irrelevant
    // (DiscoverFeeds is single-threaded), so time it once per size.
    std::vector<FileObservation> history;
    history.reserve(corpus.size());
    const double b0 = bench::NowSeconds();
    size_t batch_feeds = 0;
    for (size_t off = 0; off < corpus.size(); off += delta) {
      size_t end = std::min(off + delta, corpus.size());
      history.insert(history.end(), corpus.begin() + off, corpus.begin() + end);
      batch_feeds = DiscoverFeeds(history, discovery).feeds.size();
    }
    const double batch_sec = bench::NowSeconds() - b0;

    for (size_t workers : worker_sweep) {
      ThreadPool pool(workers);
      ThreadPool* p = workers > 0 ? &pool : nullptr;
      IncrementalCorpus::Options copts;
      // Same population as the baseline.
      copts.max_corpus = static_cast<int>(corpus.size());
      IncrementalCorpus inc(copts);
      const double i0 = bench::NowSeconds();
      size_t inc_feeds = 0;
      for (size_t off = 0; off < corpus.size(); off += delta) {
        size_t end = std::min(off + delta, corpus.size());
        inc.ObserveBatch({corpus.begin() + off, corpus.begin() + end}, p);
        inc_feeds = inc.Induce(discovery, p).feeds.size();
      }
      const double inc_sec = bench::NowSeconds() - i0;
      if (inc_feeds != batch_feeds) {
        std::fprintf(stderr,
                     "E12 MISMATCH at %zu names: batch %zu feeds vs "
                     "incremental %zu\n",
                     names, batch_feeds, inc_feeds);
      }

      const double speedup = inc_sec > 0 ? batch_sec / inc_sec : 0;
      const double folds = inc_sec > 0 ? double(corpus.size()) / inc_sec : 0;
      results.push_back({
          {"names", "names", "%zu", corpus.size(), 8},
          {"workers", "workers", "%zu", workers},
          {"batch_sec", "batch_sec", "%.4f", batch_sec},
          {"incremental_sec", "incr_sec", "%.4f", inc_sec, 9},
          {"speedup", "speedup", "%.2f", speedup},
          {"folds_per_sec", "folds/sec", "%.0f", folds},
          {"clusters", "clusters", "%zu", inc.cluster_count()},
          {"feeds", "feeds", "%zu", inc_feeds},
      });
      table.Print(results.back());
    }
  }

  // Bounded-memory mode: a tight retention budget keeps the corpus (and
  // cycle cost) flat no matter how much junk streams past.
  {
    Rng rng(1912);
    CorpusGenerator gen(&rng);
    CorpusGenerator::DriftOptions drift;
    drift.total = sizes.back();
    auto corpus =
        gen.GenerateDrifting(drift, FromCivil(CivilTime{2010, 9, 25}));
    IncrementalCorpus::Options copts;
    copts.max_corpus = 10000;
    IncrementalCorpus inc(copts);
    const double t0 = bench::NowSeconds();
    inc.ObserveBatch(corpus);
    const double sec = bench::NowSeconds() - t0;
    std::printf("bounded: %zu names through a %d budget in %.3fs "
                "(retained %zu, shed %llu, clusters %zu)\n",
                corpus.size(), copts.max_corpus, sec, inc.size(),
                (unsigned long long)inc.stats().shed, inc.cluster_count());
  }

  bench::Document doc("analyzer");
  doc.Add({"quick", nullptr, "%s", quick});
  doc.Add({"cycles", nullptr, "%zu", cycles});
  doc.Add("results", results);
  return doc.Write(out_path);
}

}  // namespace

int main() {
  std::printf("=== E7/E12: feed analyzer quality and throughput ===\n\n");
  DiscoveryQuality();
  FalseNegativeDetection();
  Throughput();
  const bool wrote =
      IncrementalSweep(bench::Quick(), bench::OutPath("BENCH_analyzer.json"));
  return wrote ? 0 : 1;
}
