#include "topology.h"

#include <pthread.h>
#include <sched.h>

#include <future>

#include "util.h"

namespace pipebench {

using bistro::BistroServer;
using bistro::Message;
using bistro::MessageType;
using bistro::Status;

Status LeafEndpoint::HandleMessage(const Message& msg) {
  if (msg.type != MessageType::kFileData) return Status::OK();
  Delivery d;
  d.at_us = bistro::RealClock::Get()->Now();
  auto it = names_->find(msg.name);
  if (it == names_->end()) {
    strangers_.push_back(msg.name);
  } else {
    d.file = it->second;
    d.fingerprint = Fingerprint(msg.payload.view());
    deliveries_.push_back(d);
    if (watch_ != nullptr && (*watch_)[d.file]) {
      watched_.fetch_add(1, std::memory_order_release);
    }
  }
  count_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

// ---------------------------------------------------------------- loops

LoopThread::LoopThread() : loop_(bistro::RealClock::Get()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      loop_.RunFor(20 * bistro::kMillisecond);
    }
  });
}

LoopThread::~LoopThread() { Stop(); }

void LoopThread::Stop() {
  stop_.store(true, std::memory_order_release);
  loop_.Wake();
  if (thread_.joinable()) thread_.join();
}

void LoopThread::Run(const std::function<void()>& fn) {
  if (!thread_.joinable()) {
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  loop_.Post([&] {
    fn();
    done.set_value();
  });
  finished.wait();
}

double LoopThread::CpuSeconds() {
  double cpu = 0;
  Run([&] { cpu = pipebench::CpuSeconds(RUSAGE_THREAD); });
  return cpu;
}

// ------------------------------------------------------------- topology

namespace {

/// With at least four usable cores, each loop thread gets a core of its
/// own and the servers' ingest threads share the rest, so thread placement
/// does not vary from run to run. With fewer cores nothing is pinned.
struct CorePlan {
  std::vector<int> origin, down, workers;
};

CorePlan PlanCores() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return {};
  return {{cpus[0]}, {cpus[1]}, std::vector<int>(cpus.begin() + 2, cpus.end())};
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

Topology::Topology(const TopologyOptions& options)
    : options_(options), logger_(bistro::RealClock::Get()) {
  logger_.SetMinLevel(bistro::LogLevel::kAlarm);
}

std::unique_ptr<Topology> Topology::Build(const TopologyOptions& options,
                                          const NameIndex* names,
                                          std::string* error) {
  std::unique_ptr<Topology> t(new Topology(options));
  SpanRecorder* rec = options.tracer;
  bistro::FileSystem* origin_fs = &t->origin_local_;
  bistro::FileSystem* down_fs = &t->down_local_;
  if (rec != nullptr) {
    t->origin_traced_fs_ = std::make_unique<TracingFileSystem>(origin_fs, rec);
    t->down_traced_fs_ = std::make_unique<TracingFileSystem>(down_fs, rec);
    origin_fs = t->origin_traced_fs_.get();
    down_fs = t->down_traced_fs_.get();
  }
  auto server_options = [&](const std::string& side) {
    BistroServer::Options o;
    o.landing_root = options.dir + "/" + side + "/landing";
    o.staging_root = options.dir + "/" + side + "/staging";
    o.db_dir = options.dir + "/" + side + "/db";
    o.sync_staging = true;
    o.kv.sync_wal = true;
    return o;
  };
  Status status;

  // Threads a server creates inherit its loop thread's affinity: create
  // each server while its loop runs on the worker cores, then move the
  // loop to its own core.
  const CorePlan cores = PlanCores();

  // Downstream: TCP listener in, loopback fan-out to the leaves.
  t->down_loop_.Run([&] {
    PinThisThread(cores.workers);
    bistro::SocketTransport::Options net;
    net.listen_address = "127.0.0.1:0";
    t->down_net_ = std::make_unique<bistro::SocketTransport>(
        t->down_loop_.loop(), net);
    status = t->down_net_->Listen();
    if (!status.ok()) return;
    t->down_wire_ =
        std::make_unique<bistro::LoopbackTransport>(t->down_loop_.loop());
    for (int i = 0; i < options.leaves; ++i) {
      t->leaves_.push_back(std::make_unique<LeafEndpoint>(names));
      t->down_wire_->Register(LeafName(i), t->leaves_.back().get());
    }
    auto server = BistroServer::Create(
        server_options("down"), options.down_config,
        down_fs, t->down_wire_.get(), t->down_loop_.loop(), &t->invoker_,
        &t->logger_);
    if (!server.ok()) {
      status = server.status();
      return;
    }
    t->down_ = std::move(*server);
    t->inbound_ =
        std::make_unique<bistro::FederationInbound>(t->down_.get(), &t->logger_);
    t->inbound_->AttachMetrics(t->down_->metrics());
    t->down_net_->AttachMetrics(t->down_->metrics());
    bistro::Endpoint* inbound = t->inbound_.get();
    if (rec != nullptr) {
      t->traced_inbound_ =
          std::make_unique<TracingEndpoint>(inbound, rec, "inbound");
      inbound = t->traced_inbound_.get();
    }
    t->down_net_->SetInboundEndpoint(inbound);
    PinThisThread(cores.down);
  });
  if (!status.ok()) {
    *error = "downstream: " + status.ToString();
    return nullptr;
  }

  // Origin: every feed routed to the downstream peer over TCP.
  bistro::ServerConfig origin_config = options.origin_config;
  bistro::PeerSpec peer;
  peer.name = "down";
  peer.address = "127.0.0.1:" + std::to_string(t->down_net_->listen_port());
  peer.feeds = {"SNMP"};
  origin_config.peers = {peer};
  t->origin_loop_.Run([&] {
    PinThisThread(cores.workers);
    t->origin_net_ = std::make_unique<bistro::SocketTransport>(
        t->origin_loop_.loop(), bistro::SocketTransport::Options());
    bistro::Transport* wire = t->origin_net_.get();
    if (rec != nullptr) {
      t->origin_traced_net_ = std::make_unique<TracingTransport>(wire, rec);
      wire = t->origin_traced_net_.get();
    }
    auto server = BistroServer::Create(
        server_options("origin"), origin_config,
        origin_fs, wire, t->origin_loop_.loop(), &t->invoker_, &t->logger_);
    if (!server.ok()) {
      status = server.status();
      return;
    }
    t->origin_ = std::move(*server);
    status = bistro::WirePeers(origin_config, t->origin_.get(),
                               t->origin_net_.get(), &t->logger_);
    PinThisThread(cores.origin);
  });
  if (!status.ok()) {
    *error = "origin: " + status.ToString();
    return nullptr;
  }

  for (int i = 0; i < options.initial_leaves; ++i) {
    t->Subscribe(i, &status);
    if (!status.ok()) {
      *error = "subscribe: " + status.ToString();
      return nullptr;
    }
  }

  // First peer connect: one heartbeat round trip over TCP.
  // Shared with the callback, which may outlive this frame on timeout.
  auto acked = std::make_shared<std::promise<Status>>();
  std::future<Status> ack = acked->get_future();
  t->origin_loop_.Run([&] {
    Message hello;
    hello.type = MessageType::kHeartbeat;
    t->origin_net_->Send("down", hello,
                         [acked](const Status& s) { acked->set_value(s); });
  });
  if (ack.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    *error = "peer connect timed out";
    return nullptr;
  }
  status = ack.get();
  if (!status.ok()) {
    *error = "peer connect: " + status.ToString();
    return nullptr;
  }
  return t;
}

double Topology::Subscribe(int i, Status* status) {
  bistro::SubscriberSpec spec;
  spec.name = LeafName(i);
  spec.host = LeafName(i);
  spec.feeds = {"SNMP"};
  double ms = 0;
  down_loop_.Run([&] {
    ScopedSpan span(options_.tracer, "add_subscriber");
    int64_t start = SteadyNs();
    *status = down_->AddSubscriber(spec);
    ms = static_cast<double>(SteadyNs() - start) / 1e6;
  });
  subscribe_ms_.push_back(ms);
  return ms;
}

void Topology::FlushReceipts() {
  down_loop_.Run([&] { down_->delivery()->FlushDeliveryReceipts(); });
  origin_loop_.Run([&] { origin_->delivery()->FlushDeliveryReceipts(); });
}

void Topology::Stop() {
  if (stopped_) return;
  stopped_ = true;
  origin_loop_.Stop();
  down_loop_.Stop();
  // With the loops gone, failing in-flight sends runs their callbacks
  // here, while both servers are still alive.
  if (origin_net_ != nullptr) origin_net_->Shutdown();
  if (down_net_ != nullptr) down_net_->Shutdown();
}

Topology::~Topology() { Stop(); }

}  // namespace pipebench
