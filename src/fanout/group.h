#ifndef BISTRO_FANOUT_GROUP_H_
#define BISTRO_FANOUT_GROUP_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "config/spec.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace bistro {

class BistroServer;

namespace fanout {

/// Snapshot of one group member (admin `subscriptions`, tests).
struct GroupMemberStats {
  std::string name;
  uint64_t delivered = 0;
  int consecutive_failures = 0;
  bool straggler = false;
  size_t missed = 0;  // catch-up backlog owed to this member
};

/// The local fan-out endpoint of a subscriber group.
///
/// The server schedules a group as ONE subscriber — one delivery cursor,
/// one pending-dedupe entry, one receipt row per file — and this relay
/// turns each accepted file into member-many local handoffs. Delivery
/// cost upstream of the relay is therefore O(groups), not O(members).
///
/// Ack policy: the relay acks a file only when every *non-straggler*
/// member accepted it. Any member failure NACKs the whole file, so the
/// engine retries it against the group; members that already took it
/// absorb the repeat via their own FileId dedupe. A member that fails
/// `straggler_after` consecutive deliveries stops holding the group ack:
/// it becomes a straggler, the files it misses are tracked per member,
/// and CatchUp() later replays exactly that delta (recorded as
/// d/<group>~<member>/ receipts by the caller) until the member drains
/// its backlog and rejoins the ack set.
class GroupRelay : public Endpoint {
 public:
  GroupRelay(std::string group, int straggler_after, Logger* logger)
      : group_(std::move(group)),
        straggler_after_(straggler_after),
        logger_(logger) {}

  /// Members are borrowed endpoints (caller owns them).
  void AddMember(const std::string& name, Endpoint* target);

  /// Fan a message out to the members (see ack policy above).
  Status HandleMessage(const Message& msg) override;

  /// Post-restart re-offer: sends to every member, but a failure is
  /// queued on that member's missed set (drained by CatchUp) instead of
  /// NACKing — nobody retries a resync, so dropping the failure would
  /// lose the file for members that never took the original delivery.
  void Reoffer(const Message& msg);

  /// Rebuilds a file's Message by id (receipts + staging read).
  using MessageLoader = std::function<Result<Message>(FileId)>;
  /// Observes one per-member catch-up delivery (delta receipt hook).
  using DeltaRecorder =
      std::function<void(const std::string& member, FileId, bool ok)>;

  /// Replays every member's missed files in id order; a straggler that
  /// drains its backlog rejoins the ack set. Files the loader reports
  /// NotFound for (expired from the history window) are dropped from the
  /// backlog. Returns the number of (member, file) deltas delivered.
  size_t CatchUp(const MessageLoader& load, const DeltaRecorder& record);

  /// Highest file id the group acked (the shared cursor).
  FileId cursor() const { return cursor_; }
  size_t member_count() const { return members_.size(); }
  size_t straggler_count() const;
  /// Total files owed to stragglers (the group's straggler lag).
  size_t straggler_lag() const;
  uint64_t files_acked() const { return files_acked_; }
  uint64_t nacks() const { return nacks_; }
  std::vector<GroupMemberStats> member_stats() const;

 private:
  struct Member {
    std::string name;
    Endpoint* target = nullptr;
    uint64_t delivered = 0;
    int consecutive_failures = 0;
    bool straggler = false;
    std::set<FileId> missed;
  };

  std::string group_;
  int straggler_after_;
  Logger* logger_;
  std::vector<Member> members_;
  FileId cursor_ = 0;
  uint64_t files_acked_ = 0;
  uint64_t nacks_ = 0;
};

/// Wires `group { }` config blocks into a running BistroServer.
///
/// Layered above the server like the federation runtime: for each
/// GroupSpec it builds a GroupRelay over the resolved member endpoints,
/// registers the relay with the transport under the group's name, and
/// registers the group as a single SubscriberSpec (which backfills
/// history through the normal queue-recomputation path). A periodic
/// timer drains straggler backlogs via GroupRelay::CatchUp, recording a
/// per-member delta receipt d/<group>~<member>/<id> for each replay.
///
/// Resync() re-offers every group-delivered file in the window to the
/// whole group after a restart (in-memory straggler state is gone; the
/// members' own dedupe absorbs files they already have, and members that
/// are still down fail back into straggler catch-up).
class GroupManager {
 public:
  struct Options {
    Options() {}
    /// Cadence of the straggler catch-up timer (0 = manual CatchUp only).
    Duration catchup_interval = 30 * kSecond;
  };

  /// Maps a member identifier to its in-process endpoint.
  using MemberResolver = std::function<Endpoint*(const std::string&)>;
  /// Registers the group relay with the transport (name -> endpoint).
  using EndpointRegistrar =
      std::function<void(const std::string&, Endpoint*)>;

  GroupManager(BistroServer* server, FileSystem* fs, EventLoop* loop,
               Logger* logger, Options options = Options());
  ~GroupManager() { *alive_ = false; }

  /// Builds relays for `groups`, registers each with the transport and
  /// the server, and starts the catch-up timer. Call once after boot.
  Status Wire(const std::vector<GroupSpec>& groups,
              const MemberResolver& resolve,
              const EndpointRegistrar& register_endpoint);

  /// Runs one catch-up pass over all groups now. Returns deltas delivered.
  size_t CatchUpStragglers();

  /// Post-restart re-offer of delivered history (see class comment).
  Status Resync();

  GroupRelay* relay(const std::string& group) const;
  const std::vector<GroupSpec>& groups() const { return specs_; }

  /// Registers bistro_fanout_group_* series.
  void AttachMetrics(MetricsRegistry* registry);

 private:
  Result<Message> LoadMessage(FileId id) const;
  void ScheduleCatchUp();

  BistroServer* server_;
  FileSystem* fs_;
  EventLoop* loop_;
  Logger* logger_;
  Options options_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::vector<GroupSpec> specs_;
  std::map<std::string, std::unique_ptr<GroupRelay>> relays_;
  Counter* m_catchup_deliveries_ = nullptr;
  Counter* m_resync_offers_ = nullptr;
  Gauge* m_straggler_lag_ = nullptr;
};

}  // namespace fanout
}  // namespace bistro

#endif  // BISTRO_FANOUT_GROUP_H_
