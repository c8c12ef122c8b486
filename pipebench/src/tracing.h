// Bench-side tracing for the traced run: an in-memory span recorder and
// decorators around public interfaces the servers already accept
// (FileSystem, Transport, Endpoint). Untraced runs install none of this.

#ifndef PIPEBENCH_TRACING_H_
#define PIPEBENCH_TRACING_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "vfs/filesystem.h"

namespace pipebench {

/// One recorded interval. `parent` is the index of the enclosing span on
/// the same thread (-1 at top level); `file` is the bench file index + 1
/// for spans tied to one file (0 otherwise).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t file = 0;
  uint32_t thread = 0;
};

/// Thread-safe span store. Nested spans on one thread find their parent
/// through a thread-local stack, so a vfs.sync inside Deposit is a child
/// of the deposit span and self times subtract correctly.
class SpanRecorder {
 public:
  /// Opens a span; returns its index for End().
  int64_t Begin(const char* name, uint64_t file);
  void End(int64_t index);
  /// Records a finished asynchronous span (no parent, no children).
  void AddAsync(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t file);

  /// Durations (ns) of every span with `name`; `file_only` keeps spans
  /// tied to a file.
  std::vector<int64_t> Durations(const char* name, bool file_only) const;
  /// Total self time (ns) per span name: duration minus the part covered
  /// by child spans.
  std::map<std::string, int64_t> SelfTimes() const;

  /// Writes every span as TSV (index, name, start, end, parent, file,
  /// thread); returns false when the file cannot be written.
  bool Dump(const std::string& path) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t file = 0)
      : rec_(rec), index_(rec == nullptr ? -1 : rec->Begin(name, file)) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t index_;
};

/// FileSystem decorator: one vfs.<op> span per call.
class TracingFileSystem : public bistro::FileSystem {
 public:
  TracingFileSystem(bistro::FileSystem* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  bistro::Status WriteFile(const std::string& path,
                           std::string_view data) override;
  bistro::Status AppendFile(const std::string& path,
                            std::string_view data) override;
  bistro::Result<std::string> ReadFile(const std::string& path) override;
  bistro::Result<bistro::FileInfo> Stat(const std::string& path) override;
  bistro::Result<std::vector<bistro::FileInfo>> ListDir(
      const std::string& path) override;
  bistro::Status Rename(const std::string& from,
                        const std::string& to) override;
  bistro::Status Delete(const std::string& path) override;
  bistro::Status Sync(const std::string& path) override;
  bistro::Status MkDirs(const std::string& path) override;
  bool Exists(const std::string& path) override;
  bistro::FsOpStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  bistro::FileSystem* inner_;
  SpanRecorder* rec_;
};

/// Transport decorator: one net.send span per message, from Send (or
/// SendBundle) to its completion callback.
class TracingTransport : public bistro::Transport {
 public:
  TracingTransport(bistro::Transport* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  void Send(const std::string& endpoint, const bistro::Message& msg,
            bistro::SendCallback done) override;
  void SendBundle(const std::string& endpoint,
                  std::vector<bistro::BundleItem> items) override;
  bistro::Duration EstimateCost(const std::string& endpoint,
                                uint64_t bytes) const override {
    return inner_->EstimateCost(endpoint, bytes);
  }
  void AttachMetrics(bistro::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }

 private:
  bistro::SendCallback Wrap(const bistro::Message& msg,
                            bistro::SendCallback done);

  bistro::Transport* inner_;
  SpanRecorder* rec_;
};

/// Endpoint decorator: one `name` span around each HandleMessage.
class TracingEndpoint : public bistro::Endpoint {
 public:
  TracingEndpoint(bistro::Endpoint* inner, SpanRecorder* rec,
                  const char* name)
      : inner_(inner), rec_(rec), name_(name) {}

  bistro::Status HandleMessage(const bistro::Message& msg) override;

 private:
  bistro::Endpoint* inner_;
  SpanRecorder* rec_;
  const char* name_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACING_H_
