// The one exactly-once oracle of the end-to-end suites (paper §4.2):
// once a run quiesces, every file that matched a feed has ONE arrival
// receipt, every subscriber of that feed holds it exactly once with the
// deposited bytes, and no delivery queue recomputed from the receipts
// still owes anything. Checks report through non-fatal EXPECTs, so one
// run shows every violation; audit_test.cc pins each check.

#ifndef BISTRO_TESTS_AUDIT_H_
#define BISTRO_TESTS_AUDIT_H_

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/server.h"
#include "kv/receipts.h"
#include "vfs/memfs.h"

namespace bistro::audit {

/// Seed window offset: CI matrix legs shift it via BISTRO_CHAOS_SEED_BASE.
inline int SeedBase() {
  const char* env = std::getenv("BISTRO_CHAOS_SEED_BASE");
  return env == nullptr ? 0 : std::atoi(env);
}

/// What a run deposited, keyed by file name.
struct ExpectedFile {
  FeedName feed;
  std::string bytes;
};
using Expected = std::map<std::string, ExpectedFile>;

/// A landing target: files pushed for `feeds` land under /recv/<feed>/<name>.
struct Sink {
  std::vector<FeedName> feeds;
  InMemoryFileSystem fs;
  FileSinkEndpoint endpoint{&fs, "/recv"};
};

/// Sink audit: every expected file of the sink's feeds landed with
/// identical bytes, and nothing more: a redelivery that receipts and
/// FileId dedupe failed to absorb inflates files_received().
inline void AuditSink(const std::string& who, Sink* sink,
                      const Expected& expected) {
  const std::set<FeedName> feeds(sink->feeds.begin(), sink->feeds.end());
  uint64_t want = 0;
  for (const auto& [name, file] : expected) {
    if (feeds.count(file.feed) == 0) continue;
    ++want;
    const std::string dest = "/recv/" + file.feed + "/" + name;
    auto got = sink->fs.ReadFile(dest);
    EXPECT_TRUE(got.ok()) << who << " lost " << dest;
    if (got.ok()) {
      EXPECT_EQ(*got, file.bytes) << who << " " << dest;
    }
  }
  EXPECT_EQ(sink->endpoint.files_received(), want)
      << who << " delivery count off";
}

/// Drained audit of a live server: every subscriber's recomputed delivery
/// queue is empty, nothing was dead-lettered, and each expected name has
/// exactly one arrival receipt (each has one, and there are no more).
inline void AuditDrained(BistroServer* server, const Expected& expected) {
  const FeedRegistry* registry = server->registry();
  ReceiptDatabase* receipts = server->receipts();
  for (const SubscriberSpec& spec : registry->subscribers()) {
    auto queue = receipts->ComputeDeliveryQueue(
        spec.name, registry->SubscribedFeeds(spec));
    EXPECT_TRUE(queue.empty()) << spec.name << " still has " << queue.size()
                               << " undelivered files";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "run dead-lettered a file";
  for (const auto& [name, file] : expected) {
    EXPECT_TRUE(receipts->FindIdByName(name).ok())
        << "no arrival receipt: " << name;
  }
  EXPECT_EQ(receipts->ArrivalCount(), expected.size())
      << "arrival receipts != expected files";
}

/// Post-mortem audit of a stopped server's receipt DB: every arrival
/// names a distinct expected file with its staged bytes intact, and none
/// lies outside the expected feeds. Returns the names seen.
inline std::set<std::string> AuditReceiptDb(FileSystem* fs,
                                            const std::string& db_dir,
                                            const Expected& expected) {
  auto db = ReceiptDatabase::Open(fs, db_dir);
  EXPECT_TRUE(db.ok()) << db.status();
  if (!db.ok()) return {};
  std::set<FileId> ids;  // a file classified into two feeds is one arrival
  for (const auto& [name, file] : expected) {
    for (FileId id : (*db)->FilesInFeed(file.feed)) ids.insert(id);
  }
  std::set<std::string> seen;
  for (FileId id : ids) {
    auto receipt = (*db)->GetArrival(id);
    EXPECT_TRUE(receipt.ok()) << receipt.status();
    if (!receipt.ok()) continue;
    EXPECT_TRUE(seen.insert(receipt->name).second)
        << "name ingested twice: " << receipt->name;
    auto it = expected.find(receipt->name);
    EXPECT_NE(it, expected.end()) << "unexpected file: " << receipt->name;
    if (it == expected.end()) continue;
    auto staged = fs->ReadFile(receipt->staged_path);
    EXPECT_TRUE(staged.ok()) << staged.status();
    if (staged.ok()) {
      EXPECT_EQ(*staged, it->second.bytes) << receipt->name;
    }
  }
  EXPECT_EQ((*db)->ArrivalCount(), ids.size()) << "arrival outside the feeds";
  return seen;
}

}  // namespace bistro::audit

#endif  // BISTRO_TESTS_AUDIT_H_
