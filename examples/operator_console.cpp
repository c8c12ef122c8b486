// The operator's view: a running server with the analyzer daemon and the
// status report (paper §3.2: extensive logging, progress monitoring,
// alarms; §5: continuous analysis).
//
// One feed stalls mid-run (its poller dies) — the monitor raises an
// alarm; a new unknown subfeed appears — the analyzer daemon suggests a
// definition; a subscriber drops offline and recovers — the report shows
// both states. Everything an operator would see, in one run.
//
//   ./build/examples/operator_console

#include <cstdio>

#include "analyzer/daemon.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "sim/sources.h"
#include "vfs/memfs.h"

using namespace bistro;

int main() {
  TimePoint start = FromCivil(CivilTime{2010, 9, 25, 6, 0, 0});
  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  LoopbackTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kWarning);  // operators see WARN+ on stderr
  logger.AddSink(std::make_shared<StderrSink>());
  Rng rng(1);

  auto config = ParseConfig(R"(
group SNMP {
  feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
  feed BPS { pattern "BPS_POLL%i_%Y%m%d%H%M.txt"; }
}
subscriber warehouse { feeds SNMP; method push; }
)");
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  FileSinkEndpoint warehouse(&fs, "/warehouse");
  transport.Register("warehouse", &warehouse);
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  (*server)->StartMaintenanceTimer();

  AnalyzerDaemon::Options daemon_opts;
  daemon_opts.cycle_interval = 15 * kMinute;
  daemon_opts.analyzer.discovery.min_support = 3;
  AnalyzerDaemon daemon(server->get(), &loop, &logger, daemon_opts);
  daemon.Start();

  auto deposit = [&](const std::string& src, const std::string& name,
                     std::string content) {
    (void)(*server)->Deposit(src, name, std::move(content));
  };

  // CPU pollers run the whole time; BPS's poller dies after 40 minutes.
  PollerFleet::Options cpu_opts;
  cpu_opts.metric = "CPU";
  cpu_opts.num_pollers = 2;
  cpu_opts.period = 5 * kMinute;
  PollerFleet cpu(&loop, &rng, cpu_opts, deposit);
  cpu.ScheduleInterval(start, start + 2 * kHour);

  PollerFleet::Options bps_opts;
  bps_opts.metric = "BPS";
  bps_opts.num_pollers = 2;
  bps_opts.period = 5 * kMinute;
  PollerFleet bps(&loop, &rng, bps_opts, deposit);
  bps.ScheduleInterval(start, start + 40 * kMinute);  // then silence -> alarm

  // An undocumented subfeed starts appearing 30 minutes in.
  for (int i = 0; i < 8; ++i) {
    TimePoint t = start + 30 * kMinute + i * 10 * kMinute;
    CivilTime c = ToCivil(t);
    std::string name =
        StrFormat("LINKLOSS_POLL%d_%04d%02d%02d%02d%02d.csv", 1 + i % 2,
                  c.year, c.month, c.day, c.hour, c.minute);
    loop.PostAt(t, [&, name] { deposit("unknown_src", name, "loss=0.01"); });
  }

  // The warehouse link flaps for 10 minutes around t+70m.
  loop.PostAt(start + 70 * kMinute, [&] { warehouse.SetFailing(true); });
  loop.PostAt(start + 80 * kMinute, [&] { warehouse.SetFailing(false); });

  loop.RunUntil(start + 2 * kHour);

  std::printf("\n%s\n", RenderStatusReport(server->get()).c_str());

  std::printf("analyzer daemon after %zu passes:\n", daemon.passes());
  for (const auto& s : daemon.new_feed_suggestions()) {
    std::printf("  suggested new feed: %-40s (%zu files, period %s)\n",
                s.feed.pattern.c_str(), s.feed.file_count,
                FormatDuration(s.feed.est_period).c_str());
  }
  for (const auto& r : daemon.false_negatives()) {
    std::printf("  suspected false negatives for %s: %zu files like %s\n",
                r.feed.c_str(), r.files.size(), r.generalized.c_str());
  }
  if (daemon.new_feed_suggestions().empty() &&
      daemon.false_negatives().empty()) {
    std::printf("  (no findings)\n");
  }
  return 0;
}
