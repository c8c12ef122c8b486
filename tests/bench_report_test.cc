// Unit tests for bench/report.h, the reporter every JSON-writing bench
// binary uses: the percentile rule, JSON string escaping, row rendering
// and the BENCH_*.json document layout.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bench/report.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/time.h"

namespace bistro {
namespace {

// The rule bench_end_to_end and bench_faults applied before the shared
// reporter: sort, then v[floor(q * (n - 1))].
Duration ReferencePercentile(std::vector<Duration> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * (v.size() - 1));
  return v[idx];
}

TEST(BenchReportTest, PercentileOfEmptyAndSingleValues) {
  EXPECT_EQ(bench::Percentile(std::vector<Duration>{}, 0.5), 0);
  EXPECT_EQ(bench::Percentile(std::vector<double>{}, 0.99), 0.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(bench::Percentile(std::vector<Duration>{42}, q), 42);
  }
}

TEST(BenchReportTest, PercentileTakesTheFloorRankOfTheSortedValues) {
  const std::vector<Duration> v = {7, 3, 10, 1, 9, 2, 8, 5, 6, 4};
  EXPECT_EQ(bench::Percentile(v, 0.0), 1);
  EXPECT_EQ(bench::Percentile(v, 0.5), 5);   // floor(4.5) = 4
  EXPECT_EQ(bench::Percentile(v, 0.99), 9);  // floor(8.91) = 8
  EXPECT_EQ(bench::Percentile(v, 1.0), 10);
}

TEST(BenchReportTest, PercentileMatchesTheEndToEndRule) {
  Rng rng(5);
  for (size_t n = 1; n <= 300; ++n) {
    std::vector<Duration> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<Duration>(rng.Uniform(1000000)));
    }
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(bench::Percentile(v, q), ReferencePercentile(v, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(BenchReportTest, QuoteEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(bench::Quote("plain"), "\"plain\"");
  EXPECT_EQ(bench::Quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(bench::Quote("C:\\dir\\"), "\"C:\\\\dir\\\\\"");
  EXPECT_EQ(bench::Quote("a\nb\tc\x01"), "\"a\\nb\\tc\\u0001\"");
}

TEST(BenchReportTest, StringFieldsAreEscapedInTheDocument) {
  bench::Document doc("t");
  doc.Add({"clauses", nullptr, "%s", std::string("sample \"x\" \\ 1;")});
  EXPECT_EQ(doc.Text(),
            "{\n  \"bench\": \"t\",\n"
            "  \"clauses\": \"sample \\\"x\\\" \\\\ 1;\"\n}\n");
}

TEST(BenchReportTest, RowRendersEachFieldAsItsFormatDid) {
  const double seconds = 2.168249;
  const double rate = 1457.3861;
  const uint64_t reads = 18446744073709551615ull;
  const bench::Row row = {
      {"config", "config", "%s", std::string("lockstep")},
      {"fanout", "fanout", "%d", 8},
      {"sim_seconds", "sim sec", "%.4f", seconds},
      {"files_per_sec", "files/sec", "%.1f", rate},
      {"staging_reads", "reads", "%llu", (unsigned long long)reads},
  };
  const std::string before = StrFormat(
      "{\"config\": \"%s\", \"fanout\": %d, \"sim_seconds\": %.4f, "
      "\"files_per_sec\": %.1f, \"staging_reads\": %llu}",
      "lockstep", 8, seconds, rate, (unsigned long long)reads);
  EXPECT_EQ(bench::Object(row), before);
  EXPECT_EQ(row[2].text, "2.1682");
  EXPECT_EQ(row[3].text, "1457.4");
  EXPECT_EQ(row[4].text, "18446744073709551615");
}

TEST(BenchReportTest, DocumentKeepsTheSnapshotLayout) {
  bench::Document doc("delivery");
  doc.Add({"quick", nullptr, "%s", true});
  doc.Add({"files", nullptr, "%d", 120});
  doc.Add("results", std::vector<bench::Row>{{{"a", "a", "%d", 1}},
                                             {{"a", "a", "%d", 2}}});
  doc.Add("empty", std::vector<bench::Row>{});
  doc.Add("partition", bench::Row{{"cycles", "cycles", "%d", 3},
                                  {"outage_ms", "outage", "%.0f", 300.0}});
  EXPECT_EQ(doc.Text(),
            "{\n"
            "  \"bench\": \"delivery\",\n"
            "  \"quick\": true,\n"
            "  \"files\": 120,\n"
            "  \"results\": [\n"
            "    {\"a\": 1},\n"
            "    {\"a\": 2}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ],\n"
            "  \"partition\": {\"cycles\": 3, \"outage_ms\": 300}\n"
            "}\n");
}

TEST(BenchReportTest, TablePrintsTheHeaderOnceAndAlignsColumns) {
  bench::Table table;
  testing::internal::CaptureStdout();
  for (int fanout : {1, 8}) {
    table.Print({{"config", "config", "%s", std::string("window8"), 10},
                 {"clauses", nullptr, "%s", std::string("json only")},
                 {"fanout", "fanout", "%d", fanout}});
  }
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "config     fanout\n"
            "window8         1\n"
            "window8         8\n");
}

}  // namespace
}  // namespace bistro
