// The measured system: an origin BistroServer pushing over loopback TCP
// (SocketTransport + WirePeers) to a downstream BistroServer, which
// ingests through FederationInbound and fans out over a LoopbackTransport
// to bench-owned leaf endpoints. Each server runs on its own real-clock
// EventLoop thread, on LocalFileSystem, with staging and WAL fsyncs on —
// the shape of two `bistrod --durable` hosts.

#ifndef PIPEBENCH_TOPOLOGY_H_
#define PIPEBENCH_TOPOLOGY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "config/spec.h"
#include "core/server.h"
#include "federation/federation.h"
#include "net/socket_transport.h"
#include "tracing.h"
#include "trigger/trigger.h"
#include "vfs/localfs.h"

namespace pipebench {

/// File name -> index into Plan::files.
using NameIndex = std::unordered_map<std::string, uint32_t>;

/// One file seen by one leaf.
struct Delivery {
  uint32_t file = 0;
  int64_t at_us = 0;          // RealClock time of HandleMessage
  uint64_t fingerprint = 0;   // of the delivered bytes
};

/// A subscriber application. During timed phases it only records what
/// arrived, when, and a fingerprint of the bytes; the oracle runs later.
class LeafEndpoint : public bistro::Endpoint {
 public:
  explicit LeafEndpoint(const NameIndex* names) : names_(names) {}

  bistro::Status HandleMessage(const bistro::Message& msg) override;

  /// Read only once the downstream loop has stopped.
  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  /// Delivered names the plan does not know.
  const std::vector<std::string>& strangers() const { return strangers_; }
  /// Safe from any thread.
  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  /// Counts deliveries of files flagged in `flags` (indexed by file) in
  /// watched(). Set before the files can arrive; `flags` must outlive
  /// the deliveries.
  void Watch(const std::vector<char>* flags) { watch_ = flags; }
  uint64_t watched() const { return watched_.load(std::memory_order_acquire); }

 private:
  const NameIndex* names_;
  const std::vector<char>* watch_ = nullptr;
  std::atomic<uint64_t> watched_{0};
  std::vector<Delivery> deliveries_;
  std::vector<std::string> strangers_;
  std::atomic<uint64_t> count_{0};
};

/// An EventLoop on its own thread under the real clock.
class LoopThread {
 public:
  LoopThread();
  ~LoopThread();
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  bistro::EventLoop* loop() { return &loop_; }
  /// Runs `fn` on the loop thread and waits for it (inline once stopped).
  void Run(const std::function<void()>& fn);
  /// User+system CPU seconds the loop thread has used.
  double CpuSeconds();
  void Stop();

 private:
  bistro::EventLoop loop_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct TopologyOptions {
  std::string dir;                    // fresh directory for both servers
  bistro::ServerConfig origin_config;  // the downstream peer is added here
  bistro::ServerConfig down_config;
  int leaves = 1;          // leaf endpoints registered on the wire
  int initial_leaves = 1;  // of which subscribed during setup
  SpanRecorder* tracer = nullptr;  // non-null: install the decorators
};

class Topology {
 public:
  /// Builds both servers, subscribes the initial leaves and opens the
  /// peer connection (one heartbeat round trip). Null on failure.
  static std::unique_ptr<Topology> Build(const TopologyOptions& options,
                                         const NameIndex* names,
                                         std::string* error);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  LoopThread& origin_loop() { return origin_loop_; }
  LoopThread& down_loop() { return down_loop_; }
  /// Use on the owning loop thread only.
  bistro::BistroServer* origin() { return origin_.get(); }
  bistro::BistroServer* down() { return down_.get(); }
  LeafEndpoint* leaf(int i) { return leaves_[static_cast<size_t>(i)].get(); }
  /// Filesystems carrying each server's FsOpStats.
  bistro::FileSystem* origin_fs() { return &origin_local_; }
  bistro::FileSystem* down_fs() { return &down_local_; }

  static std::string LeafName(int i) { return "leaf" + std::to_string(i); }

  /// Subscribes leaf `i` on the downstream (AddSubscriber, which
  /// backfills its history); returns the call's wall time in ms.
  double Subscribe(int i, bistro::Status* status);
  /// Wall time (ms) of every Subscribe so far.
  const std::vector<double>& subscribe_ms() const { return subscribe_ms_; }

  /// Delivery receipts buffered for group commit are written now.
  void FlushReceipts();
  /// Stops both loop threads and closes every socket.
  void Stop();

 private:
  explicit Topology(const TopologyOptions& options);

  TopologyOptions options_;
  // Declared first so they are destroyed last: every member below is
  // used from these threads until Stop().
  LoopThread origin_loop_;
  LoopThread down_loop_;
  bistro::Logger logger_;
  bistro::CallbackInvoker invoker_;
  bistro::LocalFileSystem origin_local_;
  bistro::LocalFileSystem down_local_;
  std::unique_ptr<TracingFileSystem> origin_traced_fs_;
  std::unique_ptr<TracingFileSystem> down_traced_fs_;
  std::unique_ptr<bistro::SocketTransport> origin_net_;
  std::unique_ptr<TracingTransport> origin_traced_net_;
  std::unique_ptr<bistro::SocketTransport> down_net_;
  std::unique_ptr<bistro::LoopbackTransport> down_wire_;
  std::vector<std::unique_ptr<LeafEndpoint>> leaves_;
  std::unique_ptr<bistro::BistroServer> origin_;
  std::unique_ptr<bistro::BistroServer> down_;
  std::unique_ptr<bistro::FederationInbound> inbound_;
  std::unique_ptr<TracingEndpoint> traced_inbound_;
  std::vector<double> subscribe_ms_;
  bool stopped_ = false;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TOPOLOGY_H_
