#ifndef BISTRO_FEDERATION_FEDERATION_H_
#define BISTRO_FEDERATION_FEDERATION_H_

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "config/spec.h"
#include "core/server.h"
#include "net/socket_transport.h"

namespace bistro {

/// Bistro-to-Bistro federation (paper Fig. 1): an upstream server treats
/// each configured peer as a push subscriber whose endpoint is a TCP
/// address, and a downstream server ingests what arrives on its listener
/// exactly like locally deposited files.
///
/// Exactly-once across real process crashes is the composition of three
/// at-least-once mechanisms, each WAL-backed on its own side:
///  - upstream delivery receipts: a file is retransmitted until its ack
///    is durable, so a downstream crash before ingest only delays it;
///  - downstream arrival receipts: a file whose name is already
///    receipted (FindIdByName) is acknowledged without re-ingesting, so
///    an upstream crash after delivery but before its receipt commit —
///    which redelivers on restart — is absorbed as a duplicate;
///  - an in-memory recent-name set covering the window between admission
///    and durable receipt under threaded ingest, so rapid-fire
///    redelivery cannot double-admit either.

/// Downstream inbound endpoint: dedupes by receipt before handing the
/// message to the server. Register as the SocketTransport's inbound
/// endpoint (and with the upstream-facing name for loopback tests).
class FederationInbound : public Endpoint {
 public:
  FederationInbound(BistroServer* server, Logger* logger);

  Status HandleMessage(const Message& msg) override;

  /// Registers bistro_federation_* counters.
  void AttachMetrics(MetricsRegistry* registry);

  uint64_t files_ingested() const { return files_ingested_; }
  uint64_t duplicates_absorbed() const { return duplicates_absorbed_; }

 private:
  BistroServer* server_;
  Logger* logger_;

  /// Names admitted recently, guarding the admission-to-durable-receipt
  /// window (bounded; receipts carry the long-term dedupe).
  std::set<std::string> recent_names_;
  std::deque<std::string> recent_order_;
  size_t recent_capacity_ = 8192;

  uint64_t files_ingested_ = 0;
  uint64_t duplicates_absorbed_ = 0;

  Counter* m_files_ = nullptr;
  Counter* m_duplicates_ = nullptr;
  Counter* m_batches_ = nullptr;
  Counter* m_rejected_ = nullptr;
};

/// True when `feed` belongs to shard `index` of `count` under the
/// federation's stable hash partitioning (FNV-1a of the feed name).
bool FeedInShard(const FeedName& feed, int index, int count);

/// Feeds of `config` routed to `peer`: the explicit list when present;
/// the peer's hash shard (widened to `replicas` consecutive shards) when
/// sharding is set; every feed otherwise — except that a peer declared
/// only as another peer's `failover` target is a standby and takes no
/// feeds until the failover activates.
std::vector<FeedName> PeerFeeds(const ServerConfig& config,
                                const PeerSpec& peer);

/// Upstream wiring: declares every configured peer on the transport and
/// registers it as a push subscriber (name == host == peer name) so the
/// ordinary delivery engine — receipts, retries, send windows,
/// coalescing — drives the federated handoff. Idempotent per peer name
/// (an AlreadyExists subscriber is re-addressed, not duplicated).
Status WirePeers(const ServerConfig& config, BistroServer* server,
                 SocketTransport* transport, Logger* logger);

}  // namespace bistro

#endif  // BISTRO_FEDERATION_FEDERATION_H_
