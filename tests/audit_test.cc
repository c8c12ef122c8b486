// Tests of the exactly-once oracle itself (tests/audit.h): a clean run
// passes every audit, and each audit reports exactly one failure on a
// synthetic violation of the guarantee it states. An oracle that cannot
// fail proves nothing about the suites that lean on it.

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "audit.h"
#include "common/random.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

constexpr char kName[] = "feeda_1_201009250010.dat";

/// One server pushing FEEDA to one sink over a fast simulated link.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sink_.feeds = {"FEEDA"};
    network_.SetLink("sub0", LinkSpec::Fast());
    transport_.Register("sub0", &sink_.endpoint);
    logger_.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber sub0 { feeds FEEDA; method push; }
)");
    ASSERT_TRUE(config.ok()) << config.status();
    auto server = BistroServer::Create(BistroServer::Options(), *config, &fs_,
                                       &transport_, &loop_, &invoker_,
                                       &logger_);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  /// Deposits `bytes` under `name` and runs until delivery settles.
  void DepositAndSettle(const std::string& name, const std::string& bytes) {
    ASSERT_TRUE(server_->Deposit("src", name, bytes).ok());
    loop_.RunUntil(loop_.Now() + kHour);
  }

  /// Pushes a file straight at the sink, bypassing the server.
  void Land(const std::string& dest_path, const std::string& bytes) {
    Message msg;
    msg.type = MessageType::kFileData;
    msg.name = kName;
    msg.dest_path = dest_path;
    msg.payload = bytes;
    ASSERT_TRUE(sink_.endpoint.HandleMessage(msg).ok());
  }

  /// Stops the server so its receipt DB can be audited post-mortem.
  std::set<std::string> AuditPostMortem(const audit::Expected& expected) {
    server_.reset();
    return audit::AuditReceiptDb(&fs_, "/bistro/db", expected);
  }

  SimClock clock_{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop_{&clock_};
  InMemoryFileSystem fs_;
  Rng rng_{1};
  SimNetwork network_{&rng_};
  SimTransport transport_{&loop_, &network_};
  CallbackInvoker invoker_;
  Logger logger_{&clock_};
  audit::Sink sink_;
  std::unique_ptr<BistroServer> server_;
  const audit::Expected expected_ = {{kName, {"FEEDA", "deposited"}}};
};

TEST_F(AuditTest, CleanRunPassesEveryAudit) {
  DepositAndSettle(kName, "deposited");
  audit::AuditSink("sub0", &sink_, expected_);
  audit::AuditDrained(server_.get(), expected_);
  EXPECT_EQ(AuditPostMortem(expected_).size(), 1u);
}

TEST_F(AuditTest, SinkAuditCatchesDoubleLanding) {
  DepositAndSettle(kName, "deposited");
  Land(std::string("FEEDA/") + kName, "deposited");  // a redelivery landed
  EXPECT_NONFATAL_FAILURE(
      audit::AuditSink("sub0", &sink_, expected_),
      "sub0 delivery count off");
}

TEST_F(AuditTest, SinkAuditCatchesMissingFile) {
  Land(std::string("FEEDB/") + kName, "deposited");  // landed elsewhere
  EXPECT_NONFATAL_FAILURE(
      audit::AuditSink("sub0", &sink_, expected_), "sub0 lost");
}

TEST_F(AuditTest, SinkAuditCatchesByteMismatch) {
  Land(std::string("FEEDA/") + kName, "corrupted");
  EXPECT_NONFATAL_FAILURE(
      audit::AuditSink("sub0", &sink_, expected_), "corrupted");
}

TEST_F(AuditTest, DrainedAuditCatchesUndrainedQueue) {
  ASSERT_TRUE(server_->Deposit("src", kName, "deposited").ok());
  // The loop never runs, so the delivery is still owed.
  EXPECT_NONFATAL_FAILURE(audit::AuditDrained(server_.get(), expected_),
                          "sub0 still has 1 undelivered files");
}

TEST_F(AuditTest, DrainedAuditCatchesSecondArrivalReceipt) {
  DepositAndSettle(kName, "deposited");
  DepositAndSettle(kName, "deposited");  // re-ingested, not deduped
  EXPECT_NONFATAL_FAILURE(audit::AuditDrained(server_.get(), expected_),
                          "arrival receipts != expected files");
}

TEST_F(AuditTest, DrainedAuditCatchesMissingArrival) {
  DepositAndSettle("feeda_2_201009250020.dat", "other");  // not kName
  EXPECT_NONFATAL_FAILURE(audit::AuditDrained(server_.get(), expected_),
                          "no arrival receipt");
}

TEST_F(AuditTest, ReceiptDbAuditCatchesUnexpectedName) {
  DepositAndSettle(kName, "deposited");
  const audit::Expected other = {{"feeda_2_201009250020.dat", {"FEEDA", "x"}}};
  std::set<std::string> seen;
  EXPECT_NONFATAL_FAILURE(seen = AuditPostMortem(other), "unexpected file");
  EXPECT_EQ(seen.size(), 1u);
}

TEST_F(AuditTest, ReceiptDbAuditCatchesStagedByteMismatch) {
  DepositAndSettle(kName, "staged");
  EXPECT_NONFATAL_FAILURE(AuditPostMortem(expected_), "deposited");
}

}  // namespace
}  // namespace bistro
