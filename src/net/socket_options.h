#ifndef BISTRO_NET_SOCKET_OPTIONS_H_
#define BISTRO_NET_SOCKET_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/time.h"

namespace bistro {

/// Default bound on a decoded message body (and on stream-decoder
/// buffering). Frames from untrusted sockets claiming more than this are
/// rejected as corrupt before any allocation happens.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// This server's network identity and socket-transport tuning: the
/// config's `server { ... }` block, parsed straight into the struct the
/// SocketTransport runs on (SocketTransport::Options extends it). A
/// leaf header, so config/spec.h can include it without net/ depending
/// on config/.
struct ServerNetSpec {
  /// "ip:port" to accept Bistro-to-Bistro connections on ("127.0.0.1:4400",
  /// "0.0.0.0:4400", "localhost:0"); empty = outbound-only transport.
  /// Port 0 binds an ephemeral port. Config key: `listen`.
  std::string listen_address;
  /// Per-frame body bound enforced on inbound bytes; oversized claims
  /// drop the connection.
  int64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on bytes queued toward one peer; sends over the cap fail
  /// immediately with Unavailable (backpressure surfaces to the delivery
  /// engine instead of buffering without bound).
  int64_t outbound_queue_bytes = 64 << 20;
  /// Reconnect backoff envelope (decorrelated jitter between them).
  Duration reconnect_backoff_min = 200 * kMillisecond;
  Duration reconnect_backoff_max = 10 * kSecond;
  /// A send unacknowledged for this long fails (Unavailable) and drops
  /// the connection, which also catches half-open peers.
  Duration ack_timeout = 30 * kSecond;

  bool operator==(const ServerNetSpec&) const = default;
};

}  // namespace bistro

#endif  // BISTRO_NET_SOCKET_OPTIONS_H_
