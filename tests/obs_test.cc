// Observability subsystem: histogram quantile math, registry semantics,
// exporter round-trips, the file-lifecycle tracer, the monitor's stall
// re-arm behaviour, and an end-to-end metrics check over a simulated WAN.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "config/parser.h"
#include "core/monitor.h"
#include "core/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, ExactValuesAtBucketBoundaries) {
  // min_bound=1, growth=2 -> bounds 1, 2, 4, 8, ...
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(4);
  h.Record(8);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 15);
  EXPECT_EQ(h.Max(), 8);
  // rank = ceil(q * 4): boundary samples resolve exactly.
  EXPECT_EQ(h.Quantile(0.25), 1);
  EXPECT_EQ(h.Quantile(0.50), 2);
  EXPECT_EQ(h.Quantile(0.75), 4);
  EXPECT_EQ(h.Quantile(1.00), 8);
  EXPECT_EQ(h.Quantile(0.0), 1);  // rank clamps to 1
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
}

TEST(HistogramTest, SingleSampleExactAtEveryQuantile) {
  Histogram h;
  h.Record(5);  // lands in the (4, 8] bucket
  // Every quantile is min(bucket bound 8, exact max 5) = 5.
  EXPECT_EQ(h.Quantile(0.0), 5);
  EXPECT_EQ(h.Quantile(0.5), 5);
  EXPECT_EQ(h.Quantile(0.99), 5);
  EXPECT_EQ(h.Quantile(1.0), 5);
}

TEST(HistogramTest, OverflowBucketResolvesToMax) {
  Histogram::Options options;
  options.num_buckets = 4;  // bounds 1, 2, 4, 8; >8 overflows
  Histogram h(options);
  h.Record(2);
  h.Record(1000);
  h.Record(5000);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.BucketCount(h.bounds().size()), 2u);  // overflow bucket
  EXPECT_EQ(h.Quantile(1.0), 5000);   // overflow rank -> exact max
  EXPECT_EQ(h.Quantile(0.99), 5000);  // rank 3 also overflows
  EXPECT_EQ(h.Quantile(0.33), 2);     // rank 1 still in bounded buckets
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-17);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
}

// -------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, SameNameReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("bistro_test_total", "help");
  Counter* b = registry.GetCounter("bistro_test_total", "ignored");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, CollectSnapshotsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("bistro_b_total", "b")->Increment(2);
  registry.GetGauge("bistro_a_level", "a")->Set(-5);
  registry.GetHistogram("bistro_c_us", "c")->Record(7);
  auto snapshots = registry.Collect();
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].name, "bistro_a_level");
  EXPECT_EQ(snapshots[0].gauge_value, -5);
  EXPECT_EQ(snapshots[1].name, "bistro_b_total");
  EXPECT_EQ(snapshots[1].counter_value, 2u);
  EXPECT_EQ(snapshots[2].name, "bistro_c_us");
  EXPECT_EQ(snapshots[2].count, 1u);
  EXPECT_EQ(snapshots[2].p50, 7);
}

TEST(MetricsRegistryTest, CollectHooksRefreshGauges) {
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("bistro_queue_depth", "depth");
  int source = 0;
  registry.AddCollectHook([&] { depth->Set(source); });
  source = 42;
  auto snapshots = registry.Collect();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].gauge_value, 42);
}

// ------------------------------------------------------------- Exporters

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.GetCounter("bistro_x_total", "events")->Increment(11);
    registry_.GetGauge("bistro_y_level", "level")->Set(-3);
    Histogram* h = registry_.GetHistogram("bistro_z_us", "latency");
    h->Record(1);
    h->Record(3);
    h->Record(100);
  }

  MetricsRegistry registry_;
};

TEST_F(ExportTest, PrometheusRoundTripsAllRegisteredMetrics) {
  std::string text = ExportPrometheus(&registry_);
  auto parsed = ParsePrometheusText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ((*parsed)["bistro_x_total"], 11.0);
  EXPECT_DOUBLE_EQ((*parsed)["bistro_y_level"], -3.0);
  EXPECT_DOUBLE_EQ((*parsed)["bistro_z_us_count"], 3.0);
  EXPECT_DOUBLE_EQ((*parsed)["bistro_z_us_sum"], 104.0);
  // Cumulative le buckets: <=1 holds one sample, <=4 holds two, +Inf all.
  EXPECT_DOUBLE_EQ((*parsed)["bistro_z_us_bucket{le=\"1\"}"], 1.0);
  EXPECT_DOUBLE_EQ((*parsed)["bistro_z_us_bucket{le=\"4\"}"], 2.0);
  EXPECT_DOUBLE_EQ((*parsed)["bistro_z_us_bucket{le=\"+Inf\"}"], 3.0);
  // Every collected metric appears as at least one sample.
  for (const MetricSnapshot& m : registry_.Collect()) {
    bool found = false;
    for (const auto& [key, _] : *parsed) {
      if (key.rfind(m.name, 0) == 0) found = true;
    }
    EXPECT_TRUE(found) << "no sample exported for " << m.name;
  }
}

TEST_F(ExportTest, JsonRoundTripsAllRegisteredMetrics) {
  std::string json = ExportJson(&registry_);
  auto parsed = ParseJsonNumbers(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ((*parsed)["counters.bistro_x_total"], 11.0);
  EXPECT_DOUBLE_EQ((*parsed)["gauges.bistro_y_level"], -3.0);
  EXPECT_DOUBLE_EQ((*parsed)["histograms.bistro_z_us.count"], 3.0);
  EXPECT_DOUBLE_EQ((*parsed)["histograms.bistro_z_us.sum"], 104.0);
  EXPECT_DOUBLE_EQ((*parsed)["histograms.bistro_z_us.max"], 100.0);
  // Per-bucket counts survive: bucket 0 has bound 1 and one sample.
  EXPECT_DOUBLE_EQ((*parsed)["histograms.bistro_z_us.buckets.0.le"], 1.0);
  EXPECT_DOUBLE_EQ((*parsed)["histograms.bistro_z_us.buckets.0.count"], 1.0);
  for (const MetricSnapshot& m : registry_.Collect()) {
    bool found = false;
    for (const auto& [key, _] : *parsed) {
      if (key.find("." + m.name) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "no JSON value exported for " << m.name;
  }
}

TEST(ExportEmptyTest, EmptyRegistryProducesParseableOutput) {
  MetricsRegistry registry;
  EXPECT_TRUE(ParsePrometheusText(ExportPrometheus(&registry)).ok());
  EXPECT_TRUE(ParseJsonNumbers(ExportJson(&registry)).ok());
}

TEST(ScrapeTest, PeriodicScrapeStopsWhenHandleDropped) {
  SimClock clock(0);
  EventLoop loop(&clock);
  MetricsRegistry registry;
  registry.GetCounter("bistro_x_total", "x")->Increment();
  std::vector<std::string> scrapes;
  ScrapeHandle handle = StartMetricsScrape(
      &loop, &registry, kSecond,
      [&](const std::string& text) { scrapes.push_back(text); });
  loop.RunUntil(3 * kSecond + kSecond / 2);
  EXPECT_EQ(scrapes.size(), 3u);
  EXPECT_NE(scrapes[0].find("bistro_x_total 1"), std::string::npos);
  handle.reset();
  loop.RunUntil(10 * kSecond);
  EXPECT_EQ(scrapes.size(), 3u);  // queued ticks became no-ops
}

// ---------------------------------------------------------------- Tracer

TEST(FileTracerTest, SpansOrderedAndRolledUpUnderSimClock) {
  MetricsRegistry registry;
  FileTracer tracer(&registry);
  const TimePoint t0 = 1000 * kSecond;
  tracer.Begin(7, "CPU_1.txt", "SNMP.CPU", t0);
  tracer.Mark(7, PipelineStage::kClassify, t0 + 2 * kMillisecond);
  tracer.Mark(7, PipelineStage::kNormalize, t0 + 3 * kMillisecond);
  tracer.Mark(7, PipelineStage::kStage, t0 + 5 * kMillisecond);
  tracer.Mark(7, PipelineStage::kReceipt, t0 + 6 * kMillisecond);
  tracer.Mark(7, PipelineStage::kSchedule, t0 + 7 * kMillisecond);
  tracer.Mark(7, PipelineStage::kSend, t0 + 10 * kMillisecond);
  tracer.Mark(7, PipelineStage::kDeliveryReceipt, t0 + 30 * kMillisecond);

  auto trace = tracer.Trace(7);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->name, "CPU_1.txt");
  ASSERT_EQ(trace->marks.size(), 8u);
  for (size_t i = 0; i < trace->marks.size(); ++i) {
    EXPECT_EQ(trace->marks[i].stage, static_cast<PipelineStage>(i));
    if (i > 0) {
      EXPECT_GE(trace->marks[i].at, trace->marks[i - 1].at);
    }
  }
  EXPECT_EQ(trace->start(), t0);

  // End-to-end latency recorded once, exactly landing -> delivery receipt.
  Histogram* e2e = registry.GetHistogram("bistro_pipeline_e2e_latency_us", "");
  EXPECT_EQ(e2e->Count(), 1u);
  EXPECT_EQ(e2e->Max(), 30 * kMillisecond);

  // Per-feed rollup holds each stage span (send -> delivery receipt: 20ms).
  auto rollup = tracer.FeedRollup("SNMP.CPU");
  size_t receipt_idx = static_cast<size_t>(PipelineStage::kDeliveryReceipt);
  EXPECT_EQ(rollup[receipt_idx].count, 1u);
  EXPECT_EQ(rollup[receipt_idx].max, 20 * kMillisecond);
  EXPECT_EQ(tracer.RolledUpFeeds(), std::vector<FeedName>{"SNMP.CPU"});
}

TEST(FileTracerTest, RingBufferEvictsOldestTrace) {
  MetricsRegistry registry;
  FileTracer::Options options;
  options.capacity = 2;
  FileTracer tracer(&registry, options);
  tracer.Begin(1, "a", "F", 0);
  tracer.Begin(2, "b", "F", 0);
  tracer.Begin(3, "c", "F", 0);
  EXPECT_EQ(tracer.retained(), 2u);
  EXPECT_FALSE(tracer.Trace(1).has_value());
  EXPECT_TRUE(tracer.Trace(3).has_value());
  // Marks on evicted ids are ignored, not resurrected.
  tracer.Mark(1, PipelineStage::kClassify, kSecond);
  EXPECT_EQ(tracer.retained(), 2u);
  EXPECT_EQ(registry.GetCounter("bistro_trace_evicted_total", "")->value(), 1u);
}

// --------------------------------------------------------------- Monitor

TEST(FeedMonitorTest, StallAlarmRearmsAfterResume) {
  SimClock clock(0);
  Logger logger(&clock);
  MetricsRegistry registry;
  FeedMonitor monitor(&logger);
  monitor.AttachMetrics(&registry);

  // Learn a 60s period (>= 5 files to pass the warm-up guard).
  const Duration period = kMinute;
  TimePoint t = 0;
  for (int i = 0; i < 6; ++i) {
    monitor.OnArrival("F", 100, t);
    t += period;
  }
  TimePoint last = t - period;

  // First stall: quiet for 4 periods.
  auto stalled = monitor.CheckStalls(last + 4 * period);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "F");

  // Resume. The outage gap must NOT inflate the period estimate.
  TimePoint resume = last + 4 * period;
  monitor.OnArrival("F", 100, resume);
  EXPECT_FALSE(monitor.Progress("F").stalled);
  Duration est_after_resume = monitor.Progress("F").est_period;
  EXPECT_LE(est_after_resume, 2 * period);

  // A few normal arrivals, then a second identical stall: the alarm must
  // fire again (regression: the resume gap used to pollute est_period and
  // mask the next episode).
  t = resume;
  for (int i = 0; i < 3; ++i) {
    t += period;
    monitor.OnArrival("F", 100, t);
  }
  auto stalled_again = monitor.CheckStalls(t + 4 * period);
  ASSERT_EQ(stalled_again.size(), 1u);
  EXPECT_EQ(stalled_again[0], "F");

  EXPECT_EQ(registry.GetCounter("bistro_monitor_stall_alarms_total", "")->value(),
            2u);
  EXPECT_EQ(registry.GetCounter("bistro_monitor_resumes_total", "")->value(), 1u);
}

// ------------------------------------------------------- End-to-end (WAN)

constexpr char kWanConfig[] = R"(
feed WAN {
  pattern "WAN_%s_%Y%m%d.csv";
  tardiness 60s;
}
subscriber warehouse {
  destination "/warehouse";
  feeds WAN;
  method push;
}
)";

TEST(ObsEndToEndTest, DeliveryCountersAndLatencyHistogramOverSimulatedWan) {
  const int kFiles = 5;
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  Rng rng(7);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  LinkSpec link;  // default: 10ms setup latency per transfer
  network.SetLink("warehouse", link);
  FileSinkEndpoint warehouse(&fs, "/warehouse");
  transport.Register("warehouse", &warehouse);

  auto config = ParseConfig(kWanConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  MetricsRegistry registry;
  network.AttachMetrics(&registry);
  BistroServer::Options options;
  options.metrics = &registry;
  auto server = BistroServer::Create(options, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();

  for (int i = 0; i < kFiles; ++i) {
    std::string name = StrFormat("WAN_h%d_20100925.csv", i);
    ASSERT_TRUE((*server)->Deposit("src", name, "row," + std::to_string(i)).ok());
  }
  loop.RunUntilIdle();

  EXPECT_EQ(warehouse.files_received(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ(
      registry.GetCounter("bistro_delivery_files_delivered_total", "")->value(),
      static_cast<uint64_t>(kFiles));
  EXPECT_EQ(registry.GetCounter("bistro_server_files_received_total", "")->value(),
            static_cast<uint64_t>(kFiles));

  // One e2e latency sample per delivery, all at least the 10ms link setup
  // latency and all bounded by the run (plausible sim-clock values).
  Histogram* e2e = registry.GetHistogram("bistro_pipeline_e2e_latency_us", "");
  EXPECT_EQ(e2e->Count(), static_cast<uint64_t>(kFiles));
  EXPECT_GE(e2e->Quantile(0.01), link.latency);
  EXPECT_GE(e2e->Sum(), kFiles * link.latency);
  EXPECT_LT(e2e->Max(), kMinute);

  // The file trace shows the pipeline stages in order.
  auto trace = (*server)->tracer()->Trace(1);
  ASSERT_TRUE(trace.has_value());
  ASSERT_GE(trace->marks.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(trace->marks[i].stage, static_cast<PipelineStage>(i));
    if (i > 0) {
      EXPECT_GE(trace->marks[i].at, trace->marks[i - 1].at);
    }
  }
  // Transport counters flowed through the shared registry too.
  EXPECT_GE(registry.GetCounter("bistro_net_sends_total", "")->value(),
            static_cast<uint64_t>(kFiles));
  EXPECT_EQ(registry.GetCounter("bistro_simnet_transfers_total", "")->value(),
            static_cast<uint64_t>(kFiles));

  // Both exporters render the full registry parseably.
  auto prom = ParsePrometheusText(ExportPrometheus(&registry));
  ASSERT_TRUE(prom.ok()) << prom.status();
  EXPECT_DOUBLE_EQ((*prom)["bistro_delivery_files_delivered_total"],
                   static_cast<double>(kFiles));
  auto json = ParseJsonNumbers(ExportJson(&registry));
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_DOUBLE_EQ((*json)["counters.bistro_delivery_files_delivered_total"],
                   static_cast<double>(kFiles));
  EXPECT_DOUBLE_EQ((*json)["histograms.bistro_pipeline_e2e_latency_us.count"],
                   static_cast<double>(kFiles));
}

}  // namespace
}  // namespace bistro
